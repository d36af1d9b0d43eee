"""Chaining bounds through admissible partition trees.

An *admissible partition tree* over a finite set ``T`` is a sequence of
partitions ``P_0 = {T}, P_1, P_2, ...`` where each ``P_n`` refines the
previous one, holds at most ``2^(2^n)`` blocks, and each block carries a
representative point chosen from inside it.  Walking a point's blocks from
the root to its singleton leaf yields a telescoping chain, and summing the
increment norms ``||X_{rep_n} - X_{rep_(n-1)}||_{2^n}`` along the worst
chain gives an upper bound: the expected supremum of the canonical process
over ``T`` is at most four times the best such sum.

This module provides

* the tree data structure with a strict validator,
* a deterministic greedy builder (farthest-point centers, budgets split
  proportionally among parents) that also grows a whole forest of trees,
  one split per level for all of them, with array checks on every level,
* the chain-sum evaluator for any :class:`~procsup.moments.MomentModel`,
* a combiner that turns trees on ``A`` and ``B`` into a tree on the sum set
  ``A + B`` (products of blocks, one level deeper), and
* an exhaustive minimiser over *all* admissible trees for tiny sets, used
  as ground truth for the greedy builder.
"""

from __future__ import annotations

import heapq
import itertools
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import FiniteSet, Point, ProcessKind, Seed, distinct_rows
from .errors import CapacityError, ParameterError, ValidationError
from .moments import _BLOCK_BYTES, EXACT_ENUMERATION_MAX_DIM, ModelKind, MomentModel
from .reports import ComparisonReport, safe_ratio
from .suprema import expected_sup

#: Upper bound constant: E sup <= SUP_BOUND_FACTOR * (best chain sum).
SUP_BOUND_FACTOR = 4.0

#: Hard cap for the exhaustive tree search.
EXHAUSTIVE_MAX_POINTS = 5


def level_budget(n: int) -> int:
    """Largest admissible number of blocks at level ``n``: 2^(2^n)."""
    if n < 0:
        raise ParameterError(f"level must be >= 0, got {n}")
    return 1 << (1 << n)


@dataclass(frozen=True)
class Block:
    """A partition block: sorted member indices plus one of them as representative."""

    members: tuple[int, ...]
    rep: int

    def __post_init__(self) -> None:
        if not self.members:
            raise ValidationError("a block cannot be empty")
        try:
            ordered = tuple(sorted(self.members))
        except TypeError as exc:  # members that do not sort cannot be point indices
            raise ValidationError(f"block members must be integers: {exc}") from None
        if ordered != self.members:
            object.__setattr__(self, "members", ordered)
        if self.rep not in self.members:
            raise ValidationError(f"representative {self.rep} is not a member of {self.members}")


def _is_index_type(kind: type) -> bool:
    return issubclass(kind, numbers.Integral) and not issubclass(kind, bool)


def _check_indices(values: tuple, what: str) -> None:
    """Reject any value that is not an integer (a bool included), naming the first."""
    if not all(map(_is_index_type, set(map(type, values)))):  # a few types, however many values
        bad = next(v for v in values if not _is_index_type(type(v)))
        raise ValidationError(f"{what} must be an integer, got {bad!r}")


def _raise_first_stray(k: int, idx: np.ndarray, n: int) -> None:
    """Name the first of ``idx``, level ``k``'s members, that repeats or lies outside ``[0, n)``."""
    order = np.argsort(idx, kind="stable")
    bad = (idx < 0) | (idx >= n)
    bad[order[1:]] |= idx[order[1:]] == idx[order[:-1]]  # later occurrences only
    j = bad.argmax()
    if 0 <= idx[j] < n:
        raise ValidationError(f"level {k}: point {idx[j]} appears in two blocks")
    raise ValidationError(f"level {k}: point index {idx[j]} out of range")


@dataclass(frozen=True)
class PartitionTree:
    n_points: int
    levels: tuple[tuple[Block, ...], ...]

    def __post_init__(self) -> None:
        self.validate()

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def validate(self) -> None:
        """Check admissibility with array passes over all levels at once.

        Faults are named as a scan level by level meets them: for each level
        in turn its block budget, then its first member (blocks laid end to
        end) that repeats an earlier one or is out of range, then the points
        it leaves uncovered, then its first block with members under two
        parent blocks.
        """
        n = self.n_points
        _check_indices((n,), "n_points")
        if n < 1:
            raise ValidationError("tree needs at least one point")
        if not self.levels:
            raise ValidationError("tree needs at least the root level")
        if len(self.levels[0]) != 1 or self.levels[0][0].members != tuple(range(n)):
            raise ValidationError("level 0 must be the single block holding every point")
        members = [block.members for level in self.levels for block in level]
        try:  # a member that is itself a sequence makes the array ragged
            idx = np.array(list(itertools.chain.from_iterable(members)))
            if idx.dtype.kind not in "iu":
                raise ValueError
        except ValueError:
            raise ValidationError("point indices must be 64-bit integers") from None
        depth = len(self.levels)
        sizes = np.fromiter(map(len, members), np.intp, len(members))
        block_level = np.repeat(np.arange(depth), [len(level) for level in self.levels])
        block_of = np.repeat(np.arange(len(members)), sizes)  # blocks numbered across levels
        level_of = block_level[block_of]
        starts = np.searchsorted(level_of, np.arange(depth + 1))  # each level's entries
        inside = (idx >= 0) & (idx < n)
        owner = np.full((depth, n), -1, dtype=np.intp)
        owner[level_of[inside], idx[inside]] = block_of[inside]
        filled = (owner >= 0).sum(axis=1)  # a level with a repeat or a stray index has too few
        below = inside & (level_of > 0)
        parent = owner[level_of[below] - 1, idx[below]]
        some_parent = np.empty(len(members), dtype=np.intp)
        some_parent[block_of[below]] = parent
        straddling = block_of[below][some_parent[block_of[below]] != parent]
        straddles = np.bincount(block_level[straddling], minlength=depth)
        for k, level in enumerate(self.levels):
            if k >= 1 and len(level) > level_budget(k):
                raise ValidationError(
                    f"level {k} has {len(level)} blocks, over the budget {level_budget(k)}"
                )
            if starts[k + 1] - starts[k] > filled[k]:
                _raise_first_stray(k, idx[starts[k] : starts[k + 1]], n)
            if filled[k] < n:
                missing = np.flatnonzero(owner[k] < 0).tolist()
                raise ValidationError(f"level {k}: points {missing} not covered")
            if straddles[k]:
                block = members[straddling[block_level[straddling] == k].min()]
                raise ValidationError(f"level {k}: block {block} straddles parent blocks")
        if len(self.levels[-1]) != n:  # every level partitions the points
            raise ValidationError("deepest level must consist of singletons")

    def to_dict(self) -> dict:
        return {
            "n_points": self.n_points,
            "levels": [
                [{"members": list(b.members), "rep": b.rep} for b in level]
                for level in self.levels
            ],
        }


def tree_from_dict(doc: dict) -> PartitionTree:
    """Rebuild a tree from :meth:`PartitionTree.to_dict` output.

    ``n_points``, every ``rep`` and every member must be integers: a bool,
    float or string is rejected, not converted.
    """
    try:
        levels = []
        for n, level in enumerate(doc["levels"]):
            blocks = []
            for b, block in enumerate(level):
                members, rep = tuple(block["members"]), block["rep"]
                _check_indices(members, f"level {n}: block {b} member")
                _check_indices((rep,), f"level {n}: block {b} rep")
                blocks.append(Block(members, rep))
            levels.append(tuple(blocks))
        return PartitionTree(n_points=doc["n_points"], levels=tuple(levels))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed partition tree document: {exc}") from exc


def _allocate_children(budget: int, sizes: list[int]) -> list[int]:
    """Distribute ``budget`` child slots among parents, one each, rest by need.

    "Need" is the ratio of a parent's size to its current allocation, so
    large parents split more; allocations never exceed the parent's size and
    ties go to the earliest parent.  A heap keyed ``(-need, index)`` hands out
    one slot per pop; a parent leaves it once its allocation reaches its size.
    """
    alloc = [1] * len(sizes)
    heap = [(-float(s), i) for i, s in enumerate(sizes) if s > 1]
    heapq.heapify(heap)
    for _ in range(budget - len(sizes)):
        if not heap:
            break
        i = heap[0][1]
        alloc[i] += 1
        if alloc[i] < sizes[i]:
            heapq.heapreplace(heap, (-(sizes[i] / alloc[i]), i))
        else:
            heapq.heappop(heap)
    return alloc


def _farthest_points(x: np.ndarray, member: np.ndarray, first: np.ndarray, k: np.ndarray):
    """Farthest-point traversals of the rows of ``x``, all rows one step at a time.

    ``x`` is ``(rows, width, d)`` with ``member`` marking the real entries
    (the rest is padding); ``first`` is each row's seed position; ``k``,
    nonincreasing, is each row's number of centers, so the rows still
    choosing form a prefix.  ``near`` tracks each member's distance to its
    nearest center and is ``-inf`` on padding and chosen centers, which
    keeps them out of the ``argmax`` (ties to the lowest position) and the
    centers in their own blocks even when a distance underflows to 0.
    Returns each entry's center number (nearest, ties to the earliest) and
    the mask of chosen centers.
    """
    rows = np.arange(len(x))
    near = np.where(member, np.inf, -np.inf)
    assign = np.zeros(member.shape, dtype=np.intp)
    diff = np.empty_like(x)
    active = np.searchsorted(-k, -np.arange(k[0]))  # rows with k > j
    for j, a in enumerate(active.tolist()):
        row, region, d2 = rows[:a], near[:a], diff[:a]
        c = first if j == 0 else region.argmax(axis=1)
        np.subtract(x[:a], x[row, c][:, None, :], out=d2)
        dist = np.sqrt(np.add.reduce(np.multiply(d2, d2, out=d2), axis=-1))
        dist[row, c] = -np.inf
        np.copyto(assign[:a], j, where=dist < region)
        np.minimum(region, dist, out=region)
    return assign, member & (near == -np.inf)


def _split_level(coords: np.ndarray, order: np.ndarray, sizes: np.ndarray, reps: np.ndarray,
                 alloc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split every block of one level into its ``alloc`` children by farthest-point centers.

    A level is ``order`` (its blocks' members, block after block, each
    ascending) with each block's size and representative; the blocks may
    belong to many trees over disjoint rows of ``coords`` (a forest), since
    each block is split on its own.  The parent's representative seeds its
    traversal (so one child always inherits it); each further center is
    the member farthest from all chosen centers, ties to the lowest point
    index; members then join their nearest center, ties to the earliest
    center.  Children follow their parent's position, then the order their
    centers were chosen.  Parents are padded to rows and traversed
    together, largest ``alloc`` first, in chunks of at most
    ``_BLOCK_BYTES`` of coordinates (a larger parent goes alone).  Beyond
    1/128 of that budget a chunk also keeps its sizes within a factor 2, so
    padding at most doubles the work; below it, fewer steps matter more.
    A parent's children depend only on its own rows, never on its chunk.
    """
    starts = np.cumsum(sizes) - sizes
    first_child = np.cumsum(alloc) - alloc
    label = np.repeat(first_child, sizes)
    child_reps = np.repeat(reps, alloc)
    split = np.flatnonzero(alloc > 1)
    split = split[np.argsort(-alloc[split], kind="stable")]
    row_bytes = 8 * coords.shape[1]
    lo, widths = 0, sizes[split].tolist()
    while lo < len(split):
        hi, narrow, width = lo + 1, widths[lo], widths[lo]
        while hi < len(split):
            wider, narrower = max(width, widths[hi]), min(narrow, widths[hi])
            padded = (hi + 1 - lo) * wider * row_bytes
            if padded > _BLOCK_BYTES or (wider > 2 * narrower and padded > _BLOCK_BYTES >> 7):
                break
            hi, narrow, width = hi + 1, narrower, wider
        parents = split[lo:hi]
        lo = hi
        size, k, start = sizes[parents, None], alloc[parents], starts[parents, None]
        col = np.arange(width)
        member = col < size
        idx = order[start + np.minimum(col, size - 1)]
        first = (idx == reps[parents, None]).argmax(axis=1)
        assign, center = _farthest_points(coords[idx], member, first, k)
        label[(start + col)[member]] += assign[member]
        row, pos = np.nonzero(center)
        child_reps[first_child[parents][row] + assign[row, pos]] = idx[row, pos]
    return order[np.argsort(label, kind="stable")], np.bincount(label, minlength=child_reps.size), child_reps


class _Level(NamedTuple):
    """One level of a forest of trees over disjoint runs of rows.

    ``order`` lists the blocks' members (row indices) block after block,
    ``sizes`` and ``reps`` give each block's size and representative, and
    ``tree`` the tree each block belongs to.  A tree's blocks are
    contiguous, and the trees follow the order of their rows.
    """

    order: np.ndarray
    sizes: np.ndarray
    reps: np.ndarray
    tree: np.ndarray


def _check_level(lvl: int, parent: _Level | None, level: _Level, counts: np.ndarray) -> None:
    """Check one level of the forest over runs of ``counts`` rows with array passes.

    Every point is covered once; every block is nonempty, lies inside one
    tree and (below the root) inside one parent block, and holds its
    representative; each tree keeps within its budget, one block at the
    root and ``min(2^(2^lvl), count)`` below.  Any fault raises
    :class:`ValidationError`.
    """
    order, sizes, reps, tree = level
    n, n_blocks = int(counts.sum()), len(sizes)
    if len(order) != n or (n and (order.min() < 0 or order.max() >= n)):
        raise ValidationError(f"forest level {lvl}: members are not the {n} points")
    if np.bincount(order, minlength=n).max(initial=1) > 1:
        raise ValidationError(f"forest level {lvl}: a point appears in two blocks")
    if len(reps) != n_blocks or len(tree) != n_blocks or sizes.min(initial=1) < 1 or sizes.sum() != n:
        raise ValidationError(f"forest level {lvl}: block sizes do not partition the points")
    block = np.empty(n, dtype=np.intp)
    block[order] = np.repeat(np.arange(n_blocks), sizes)
    if (reps < 0).any() or (reps >= n).any() or (block[reps] != np.arange(n_blocks)).any():
        raise ValidationError(f"forest level {lvl}: a representative lies outside its block")
    if (np.repeat(np.arange(len(counts)), counts)[order] != np.repeat(tree, sizes)).any():
        raise ValidationError(f"forest level {lvl}: a block straddles trees")
    if parent is not None:
        up = np.empty(n, dtype=np.intp)
        up[parent.order] = np.repeat(np.arange(len(parent.sizes)), parent.sizes)
        up = up[order]
        if (up != np.repeat(up[np.cumsum(sizes) - sizes], sizes)).any():
            raise ValidationError(f"forest level {lvl}: a block straddles parent blocks")
    cap = min(level_budget(lvl), n) if lvl else 1
    if (np.bincount(tree, minlength=len(counts)) > np.minimum(counts, cap)).any():
        raise ValidationError(f"forest level {lvl}: a tree exceeds its block budget")


def _grow(coords: np.ndarray, counts) -> Iterator[_Level]:
    """Yield the levels of the greedy trees over consecutive runs of ``counts`` rows of ``coords``.

    Level ``n`` splits every level ``n-1`` block with :func:`_split_level`,
    all trees at once, under each tree's budget ``min(2^(2^n), count)``
    distributed among its blocks by :func:`_allocate_children`.  A tree
    bottoms out in singletons at the least ``n`` with ``2^(2^n) >= count``;
    after that its blocks keep their points and representatives.  Every
    level passes :func:`_check_level`, and the last must be all singletons.
    """
    counts = np.asarray(counts, dtype=np.intp)
    if not counts.size or counts.min() < 1 or counts.sum() != len(coords):
        raise ParameterError("a forest needs trees of at least one point each, covering the rows")
    starts = np.cumsum(counts) - counts
    level = _Level(np.arange(len(coords)), counts, starts, np.arange(len(counts)))
    _check_level(0, None, level, counts)
    yield level
    depth = 0 if counts.max() == 1 else 1
    while level_budget(depth) < counts.max():
        depth += 1
    for lvl in range(1, depth + 1):
        budgets = np.minimum(counts, min(level_budget(lvl), len(coords))).tolist()
        bounds = np.searchsorted(level.tree, np.arange(len(counts) + 1)).tolist()
        sizes = level.sizes.tolist()
        alloc = np.ones(len(sizes), dtype=np.intp)
        for t in np.flatnonzero(np.diff(bounds) < counts).tolist():  # trees not yet all singletons
            a, b = bounds[t], bounds[t + 1]
            alloc[a:b] = _allocate_children(budgets[t], sizes[a:b])
        child = _Level(*_split_level(coords, level.order, level.sizes, level.reps, alloc),
                       np.repeat(level.tree, alloc))
        _check_level(lvl, level, child, counts)
        level = child
        yield level
    if level.sizes.max(initial=1) > 1:
        raise ValidationError(f"forest level {depth}: the deepest level is not all singletons")


def _blocks(order: np.ndarray, sizes: np.ndarray, reps: np.ndarray) -> tuple[Block, ...]:
    """The level laid out as in :func:`_split_level`, as blocks."""
    members = order.tolist()
    ends = np.cumsum(sizes).tolist()
    return tuple(
        Block(tuple(members[a:b]), rep=r) for a, b, r in zip([0, *ends], ends, reps.tolist())
    )


def build_partition_greedy(ts: FiniteSet) -> PartitionTree:
    """Deterministic greedy admissible tree for ``ts``: the one-tree forest of :func:`_grow`.

    Level ``n`` splits every level ``n-1`` block with farthest-point centers
    in l2, under the total budget ``min(2^(2^n), |T|)`` distributed
    proportionally among parents.  The tree bottoms out in singletons at the
    least ``n`` with ``2^(2^n) >= |T|``.  The levels pass the forest's level
    checks and then :meth:`PartitionTree.validate`.
    """
    levels = tuple(_blocks(level.order, level.sizes, level.reps) for level in _grow(ts.matrix, [len(ts)]))
    return PartitionTree(n_points=len(ts), levels=levels)


@dataclass(frozen=True)
class ChainBound:
    """The chain-sum bound: worst per-point sum of increment norms."""

    value: float
    per_point: tuple[float, ...]
    tree: PartitionTree
    model: MomentModel


def _chain_step(coords: np.ndarray, model: MomentModel, lvl: int, order: np.ndarray, sizes: np.ndarray,
                reps: np.ndarray, prev_rep: np.ndarray, sums: np.ndarray) -> None:
    """Add level ``lvl``'s increments to the chain sums ``sums`` in place.

    The level is laid out as in :func:`_split_level`; ``prev_rep`` holds
    each point's representative one level up and moves down to this level.
    Every block's increment from its parent's representative to its own,
    ``x[max] - x[min]`` of the two indices, goes through one
    :meth:`MomentModel.norms` call; blocks that keep their parent's
    representative add exactly 0.0, which leaves a sum's bits alone.
    """
    parent_reps = prev_rep[order[np.cumsum(sizes) - sizes]]
    moved = parent_reps != reps
    lo = np.minimum(parent_reps, reps)[moved]
    hi = np.maximum(parent_reps, reps)[moved]
    steps = np.zeros(len(sizes))
    steps[moved] = model.norms(coords[hi] - coords[lo], 1 << lvl)
    sums[order] += np.repeat(steps, sizes)
    prev_rep[order] = np.repeat(reps, sizes)


def chain_bound(ts: FiniteSet, tree: PartitionTree, model: MomentModel) -> ChainBound:
    """Evaluate ``max_t sum_n ||X_(rep_n(t)) - X_(rep_(n-1)(t))||_(2^n)``.

    Each level is turned into arrays and taken by :func:`_chain_step`, one
    :meth:`MomentModel.norms` call per level.
    """
    if tree.n_points != len(ts):
        raise ParameterError(f"tree covers {tree.n_points} points but the set has {len(ts)}")
    n = len(ts)
    sums = np.zeros(n)
    prev_rep = np.full(n, tree.levels[0][0].rep)
    for lvl, level in enumerate(tree.levels[1:], start=1):
        sizes = np.fromiter((len(b.members) for b in level), np.intp, len(level))
        members = np.fromiter(itertools.chain.from_iterable(b.members for b in level), np.intp, n)
        reps = np.fromiter((b.rep for b in level), np.intp, len(level))
        _chain_step(ts.matrix, model, lvl, members, sizes, reps, prev_rep, sums)
    per_point = tuple(sums.tolist())
    return ChainBound(value=max(per_point), per_point=per_point, tree=tree, model=model)


def greedy_forest_bounds(coords: np.ndarray, counts, model: MomentModel) -> tuple[np.ndarray, np.ndarray]:
    """Chain bounds of the greedy trees over consecutive runs of ``counts`` rows of ``coords``.

    Each run is one set (its rows distinct) and gets the tree
    :func:`build_partition_greedy` would build on it, grown all at once by
    :func:`_grow` with one :func:`_chain_step` per level.  Returns each
    tree's bound, the segment max of its points' chain sums, and the sums
    themselves; both equal :func:`chain_bound` on the one-set tree bit for
    bit when the model's norms are row by row (not Monte Carlo, whose rows
    share a stream).
    """
    counts = np.asarray(counts, dtype=np.intp)
    starts = np.cumsum(counts) - counts
    sums = np.zeros(len(coords))
    prev_rep = np.repeat(starts, counts)
    for lvl, level in enumerate(_grow(coords, counts)):
        if lvl:
            _chain_step(coords, model, lvl, level.order, level.sizes, level.reps, prev_rep, sums)
    return np.maximum.reduceat(sums, starts), sums


def combine_sum_set(
    ts_a: FiniteSet,
    tree_a: PartitionTree,
    ts_b: FiniteSet,
    tree_b: PartitionTree,
) -> tuple[FiniteSet, PartitionTree]:
    """Tree on the sum set ``A + B`` whose level n+1 is the products of level-n blocks.

    Representatives follow the product rule (rep of ``A_blk + B_blk`` is the
    sum of the two reps), which is what makes the combined chain sum at most
    ``sqrt(3)`` times the sum of the two marginal chain sums for exact
    Gaussian or Bernoulli norms: each product increment telescopes into the
    two marginal increments one level earlier, and one level of delay costs
    at most the ``||.||_2p / ||.||_p`` norm ratio.

    Distinct pairs can collide on one sum point; such a point joins the
    block of the first (lowest ``(i_a, i_b)``) pair producing it, and any
    block whose product representative was claimed by an outside block falls
    back to its lowest member as representative.  Collisions never occur for
    generic (e.g. randomly drawn) inputs.
    """
    if ts_a.dim != ts_b.dim:
        raise ParameterError(f"dimension mismatch: {ts_a.dim} vs {ts_b.dim}")
    if tree_a.n_points != len(ts_a) or tree_b.n_points != len(ts_b):
        raise ParameterError("trees do not match their sets")

    # Row ia * |B| + ib is a_ia + b_ib; pair_point[ia][ib] is its index in
    # the sum set and owns[ia][ib] says whether (ia, ib) produced it first.
    sums = (ts_a.matrix[:, None, :] + ts_b.matrix[None, :, :]).reshape(-1, ts_a.dim)
    first, slot = distinct_rows(sums)
    shape = (len(ts_a), len(ts_b))
    pair_point = slot.reshape(shape).tolist()
    owns = (first[slot] == np.arange(slot.size)).reshape(shape).tolist()
    total = len(first)

    def marginal(tree: PartitionTree, n: int) -> tuple[Block, ...]:
        return tree.levels[min(n, tree.depth)]

    def product_blocks(n: int) -> list[Block]:
        blocks = []
        for blk_a in marginal(tree_a, n):
            for blk_b in marginal(tree_b, n):
                members = [pair_point[ia][ib] for ia in blk_a.members
                           for ib in blk_b.members if owns[ia][ib]]
                if not members:
                    continue
                rep_candidate = pair_point[blk_a.rep][blk_b.rep]
                rep = rep_candidate if rep_candidate in members else min(members)
                blocks.append(Block(members=tuple(members), rep=rep))
        return blocks

    root_rep = pair_point[tree_a.levels[0][0].rep][tree_b.levels[0][0].rep]
    levels: list[tuple[Block, ...]] = [(Block(tuple(range(total)), rep=root_rep),)]
    depth = max(tree_a.depth, tree_b.depth) + 1
    for n in range(1, depth + 1):
        levels.append(tuple(product_blocks(n - 1)))
    combined = FiniteSet(name=f"{ts_a.name}+{ts_b.name}", points=sums[first])
    return combined, PartitionTree(n_points=total, levels=tuple(levels))


def _set_partitions(items: tuple[int, ...]):
    """All partitions of ``items``, each a tuple of sorted blocks, deterministic order."""
    if not items:
        yield ()
        return
    head, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            yield tuple(
                tuple(sorted((head,) + sub[i])) if i == j else sub[j] for j in range(len(sub))
            )
        yield ((head,),) + sub


def _refinements(partition: tuple[tuple[int, ...], ...], max_blocks: int):
    """All partitions refining ``partition`` with at most ``max_blocks`` blocks."""
    for subs in itertools.product(*map(_set_partitions, partition)):
        blocks = tuple(itertools.chain.from_iterable(subs))
        if len(blocks) <= max_blocks:
            yield tuple(sorted(blocks))


def _exhaustive_depth(n_points: int, dim: int, model: MomentModel) -> int:
    """Deepest level the exact search must consider.

    Splitting later than necessary pays a larger moment order, so for exact
    Bernoulli/Gaussian norms (monotone in p and subadditive) nothing beyond
    the first singleton-capable level can help.  The proxy is neither — its
    value can drop as p grows — but it freezes to the plain l1 norm once
    p >= dim, after which delaying is again pointless; Monte Carlo models
    get the same conservative depth.
    """
    n_sing = 1
    while level_budget(n_sing) < n_points:
        n_sing += 1
    if model.kind in (ModelKind.BERNOULLI_EXACT, ModelKind.GAUSSIAN_EXACT):
        return n_sing
    return max(n_sing, math.ceil(math.log2(max(dim, 2))))


def _chains(n: int, depth: int) -> list[tuple[tuple[tuple[int, ...], ...], ...]]:
    """Every partition sequence ``(P_0, ..., P_L)`` the exhaustive search weighs, depth first.

    ``P_0`` is the whole set; each later level refines the one above within
    its block budget, and a sequence not yet at singletons by level
    ``depth - 1`` splits into them at ``depth``.
    """
    singletons = tuple((i,) for i in range(n))
    chains = [((tuple(range(n)),),)]
    for level in range(1, depth):
        cap = min(level_budget(level), n)
        chains = [c + (p,) for c in chains for p in _refinements(c[-1], cap)]
    return [c if c[-1] == singletons else c + (singletons,) for c in chains]


def _best_step(inc: list[list[float]], cost: list[float], r: int, child: tuple[int, ...]) -> tuple[float, int]:
    """Cheapest ``(increment from r + tail cost, s)`` over representatives ``s`` of ``child``.

    A cost tie goes to the lowest index.
    """
    return min((inc[r][s] + cost[s], s) for s in child)


def exhaustive_gamma(ts: FiniteSet, model: MomentModel) -> ChainBound:
    """Exact minimum chain sum over *all* admissible trees and representatives.

    Enumerates every nested partition sequence down to singletons (depth
    bounded as in :func:`_exhaustive_depth`) and picks representatives by a
    dynamic program from the leaves up.  A point lies in one block per
    level, so ``cost[r]`` is the cheapest worst-case tail below the block of
    ``r`` with ``r`` as its representative.  The first sequence with the
    least value wins.  Ground truth for greedy trees; capped at
    ``|T| <= 5`` points.
    """
    n = len(ts)
    if n > EXHAUSTIVE_MAX_POINTS:
        raise CapacityError(f"exhaustive search capped at {EXHAUSTIVE_MAX_POINTS} points, got {n}")
    if n == 1:
        tree = PartitionTree(n_points=1, levels=((Block((0,), 0),),))
        return chain_bound(ts, tree, model)

    depth = _exhaustive_depth(n, ts.dim, model)
    # inc[lvl][a][b] = ||X_b - X_a||_{2^lvl}, one norm call per pair and level.
    x = ts.matrix
    inc = [[[0.0] * n for _ in range(n)] for _ in range(depth + 1)]
    for lvl in range(1, depth + 1):
        for a, b in itertools.combinations(range(n), 2):
            inc[lvl][a][b] = inc[lvl][b][a] = model.norm(Point(x[b] - x[a]), 1 << lvl)

    best = None
    for chain in _chains(n, depth):
        costs = [[0.0] * n for _ in chain]
        for lvl in range(len(chain) - 1, 0, -1):
            for child in chain[lvl]:
                parent = next(block for block in chain[lvl - 1] if child[0] in block)
                for r in parent:
                    costs[lvl - 1][r] = max(costs[lvl - 1][r], _best_step(inc[lvl], costs[lvl], r, child)[0])
        value, root = min((c, r) for r, c in enumerate(costs[0]))
        if best is None or value < best[0]:
            best = (value, root, chain, costs)

    _, root, chain, costs = best
    rep_of = [root] * n
    levels = [(Block(chain[0][0], rep=root),)]
    for lvl in range(1, len(chain)):
        blocks = []
        for child in chain[lvl]:
            s = _best_step(inc[lvl], costs[lvl], rep_of[child[0]], child)[1]
            blocks.append(Block(child, rep=s))
            for m in child:
                rep_of[m] = s
        levels.append(tuple(blocks))
    tree = PartitionTree(n_points=n, levels=tuple(levels))
    return chain_bound(ts, tree, model)


def verify_sup_bound(
    ts: FiniteSet,
    kind: ProcessKind,
    samples: int = 100_000,
    seed: Seed | None = None,
    exact: bool = False,
) -> ComparisonReport:
    """Check ``E sup <= 4 * chain bound`` on one set, exactly where possible.

    The supremum takes :func:`~procsup.suprema.expected_sup`'s route:
    Bernoulli suprema are enumerated exactly up to the dimension cap (and by
    Monte Carlo beyond it, unless ``exact`` demands enumeration); Gaussian
    suprema are always Monte Carlo.  The
    chain bound uses the greedy tree under the matching exact model (proxy
    when the Bernoulli dimension exceeds the cap).  The violation flag
    allows Monte Carlo noise of three standard errors.
    """
    seed = seed if seed is not None else Seed(0)
    sup = expected_sup(kind, ts, samples, seed, exact=exact)
    if kind is ProcessKind.GAUSSIAN:
        model = MomentModel.gaussian_exact()
    elif ts.dim <= EXACT_ENUMERATION_MAX_DIM:
        model = MomentModel.bernoulli_exact()
    else:
        model = MomentModel.bernoulli_proxy()
    bound = chain_bound(ts, build_partition_greedy(ts), model)
    violation = sup.value > SUP_BOUND_FACTOR * bound.value + 3.0 * sup.stderr
    return ComparisonReport(
        quantity="sup-vs-chain-bound",
        lhs_label=f"E sup [{kind.value}, {sup.method.value}]",
        rhs_label=f"chain bound [{model.label}]",
        lhs=sup.value,
        rhs=bound.value,
        ratio=safe_ratio(sup.value, bound.value),
        lhs_stderr=sup.stderr,
        bound_factor=SUP_BOUND_FACTOR,
        violation=violation,
        extras={
            "set": ts.name,
            "tree_depth": bound.tree.depth,
            "samples": sup.samples,
        },
    )
