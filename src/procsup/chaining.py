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

* the tree, stored as one :class:`~procsup.reports.TreeLevel` of int arrays
  per level (``levels`` is a view of them as :class:`Block` tuples), with
  one reader from plain ``(members, rep)`` pairs, shared by the constructor
  and :func:`tree_from_dict`, and one level checker, shared with the forest,
* a deterministic greedy builder (farthest-point centers, budgets split
  proportionally among parents) that also grows a whole forest of trees,
  one split per level for all of them,
* the chain-sum evaluator for any :class:`~procsup.moments.MomentModel` or
  :class:`~procsup.moments.MonteCarloModel`,
* a combiner that turns trees on ``A`` and ``B`` into a tree on the sum set
  ``A + B`` (products of blocks, one level deeper), and
* an exhaustive minimiser over *all* admissible trees for tiny sets, used
  as ground truth for the greedy builder.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .core import (GENERATE_MAX_COORDINATES, FiniteSet, ProcessKind, Seed, check_integers, distinct_rows,
                   integer_types)
from .errors import CapacityError, ParameterError, ValidationError
from .moments import _BLOCK_BYTES, DEFAULT_SAMPLES, EXACT_ENUMERATION_MAX_DIM, MomentModel, MonteCarloModel
from .reports import ComparisonReport, TreeLevel, safe_ratio
from .suprema import expected_sup

#: Upper bound constant: E sup <= SUP_BOUND_FACTOR * (best chain sum).
SUP_BOUND_FACTOR = 4.0

#: Hard caps for the exhaustive tree search: points, and partition sequences weighed.
EXHAUSTIVE_MAX_POINTS = 5
EXHAUSTIVE_MAX_SEQUENCES = 2**15


def level_budget(n: int, count: int) -> int:
    """``min(2^(2^n), count)``, the blocks level ``n`` may hold among ``count`` points.

    ``2^(2^n)`` is formed only while it has at most twice as many bits as ``count``.
    """
    if n < 0:
        raise ParameterError(f"level must be >= 0, got {n}")
    count = int(count)
    return count if n >= count.bit_length().bit_length() else min(1 << (1 << n), count)


class Block(NamedTuple):
    """One block of :attr:`PartitionTree.levels`: its members, ascending, and its representative."""

    members: tuple[int, ...]
    rep: int


def _check_level(k: int, parent: TreeLevel | None, level: TreeLevel, counts: np.ndarray, last: bool = False) -> None:
    """Check level ``k`` of the trees over consecutive runs of ``counts`` points with array passes.

    The root must be one block per tree holding its run of points.  Below
    it, faults are named in the order a scan meets them: sizes that do not
    lay out ``order``; a tree over ``2^(2^k)`` blocks; the first member
    (blocks end to end) that repeats or is out of range; uncovered points;
    the first block under two ``parent`` blocks (so also under two trees);
    the first representative outside its block.  ``last`` asks for
    singletons.  Any fault raises :class:`ValidationError`.
    """
    order, sizes, reps = level
    n = int(counts.sum())
    if k == 0:
        starts = np.cumsum(counts) - counts
        if (len(sizes) != len(counts) or (sizes != counts).any() or len(order) != n
                or (order != np.arange(n)).any() or (reps < starts).any() or (reps >= starts + counts).any()):
            raise ValidationError("level 0 must be the single block holding every point")
    else:
        if len(reps) != len(sizes) or sizes.min(initial=1) < 1 or sizes.sum() != len(order):
            raise ValidationError(f"level {k}: block sizes do not lay out its {len(order)} members")
        firsts = np.cumsum(sizes) - sizes
        tree = np.minimum(np.searchsorted(np.cumsum(counts), order[firsts], side="right"), len(counts) - 1)
        most = int(np.bincount(tree, minlength=len(counts)).max())
        if most > level_budget(k, most):
            raise ValidationError(f"level {k} has {most} blocks, over the budget {level_budget(k, most)}")
        inside = (order >= 0) & (order < n)
        seen = np.bincount(order[inside].astype(np.intp), minlength=n)
        if not inside.all() or seen.max(initial=0) > 1:
            ranked = np.argsort(order, kind="stable")
            bad = ~inside
            bad[ranked[1:]] |= order[ranked[1:]] == order[ranked[:-1]]  # later occurrences only
            j = bad.argmax()
            if inside[j]:
                raise ValidationError(f"level {k}: point {order[j]} appears in two blocks")
            raise ValidationError(f"level {k}: point index {order[j]} out of range")
        if len(order) < n:
            raise ValidationError(f"level {k}: points {np.flatnonzero(seen == 0).tolist()} not covered")
        owner = _owners(level, n)
        block, up = owner[order], _owners(parent, n)[order]

        def members(b: int) -> tuple[int, ...]:
            return tuple(order[firsts[b] : firsts[b] + sizes[b]].tolist())

        straddling = np.flatnonzero(up != up[firsts][block])
        if straddling.size:
            raise ValidationError(f"level {k}: block {members(block[straddling[0]])} straddles parent blocks")
        held = (reps >= 0) & (reps < n)
        held[held] = owner[reps[held]] == np.flatnonzero(held)
        if not held.all():
            b = held.argmin()
            raise ValidationError(f"representative {reps[b]} is not a member of {members(b)}")
    if last and (sizes != 1).any():
        raise ValidationError("deepest level must consist of singletons")


def _check_blocks(pairs: list[tuple], ends: list[int]) -> None:
    """Raise the first fault of the ``(members, rep)`` blocks, level ``n`` ending at ``ends[n]``.

    Block by block in document order: a member that is not an integer (a
    bool included), then a representative that is not, an empty block, a
    representative outside its block.
    """
    for n, (start, end) in enumerate(zip([0, *ends], ends)):
        for b, (members, rep) in enumerate(pairs[start:end]):
            check_integers(members, f"level {n}: block {b} member", ValidationError)
            check_integers((rep,), f"level {n}: block {b} rep", ValidationError)
            if not len(members):
                raise ValidationError("a block cannot be empty")
            if rep not in members:
                raise ValidationError(f"representative {rep} is not a member of {tuple(sorted(members))}")


def _owners(level: TreeLevel, n: int) -> np.ndarray:
    """Each of the ``n`` points' block number in ``level``, which must cover them."""
    owner = np.empty(n, dtype=np.intp)
    owner[level.order] = np.repeat(np.arange(len(level.sizes)), level.sizes)
    return owner


class PartitionTree:
    """An admissible partition tree over the points ``0 .. n_points - 1``.

    ``arrays`` holds one :class:`~procsup.reports.TreeLevel` of read-only int
    arrays per level; ``levels`` shows them as tuples of :class:`Block`,
    built on first use.  ``PartitionTree(n_points, levels)`` is the one
    reader from plain values: it takes each level as ``(members, rep)``
    pairs (:class:`Block` among them), lays them out as arrays and runs
    :meth:`validate`.  A report writes the tree's :meth:`columns`, and
    :func:`tree_from_dict` reads the report's ``tree`` section back.
    """

    __slots__ = ("n_points", "arrays", "_blocks")

    def __init__(self, n_points: int, levels: Iterable[Iterable[tuple]]) -> None:
        """Read ``levels``, each a sequence of ``(members, rep)`` pairs, both the pair and ``members`` sequences.

        Every pair is read before any is checked.  Faults raise
        :class:`ValidationError`: first a fault inside a block, named block
        by block in document order by :func:`_check_blocks`; then
        ``n_points`` not a positive integer, no levels, a member outside
        int64, and what :meth:`validate` finds.  Members are sorted within
        each block.
        """
        pairs, ends = [], []
        for level in levels:
            pairs.extend(level)
            ends.append(len(pairs))
        blocks, reps = list(map(itemgetter(0), pairs)), list(map(itemgetter(1), pairs))
        members = list(itertools.chain.from_iterable(blocks))
        if not (integer_types(members) and integer_types(reps)):
            _check_blocks(pairs, ends)
        try:
            check_integers((n_points,), "n_points", ValidationError)
            if n_points < 1:
                raise ValidationError("tree needs at least one point")
            if not ends:
                raise ValidationError("tree needs at least the root level")
            try:
                order, reps = np.fromiter(members, np.int64, len(members)), np.fromiter(reps, np.int64, len(reps))
            except OverflowError:
                raise ValidationError("point indices must be 64-bit integers") from None
            sizes = np.fromiter(map(len, blocks), np.intp, len(blocks))
            block = np.repeat(np.arange(len(sizes)), sizes)
            if ((order[1:] < order[:-1]) & (block[1:] == block[:-1])).any():  # sort each block's members
                order = order[np.lexsort((order, block))]
            cuts = ends[:-1]
            starts = np.append(np.cumsum(sizes) - sizes, len(order))
            columns = np.split(order, starts[cuts]), np.split(sizes, cuts), np.split(reps, cuts)
            self._assign(n_points, tuple(map(TreeLevel, *columns)))
        except ValidationError:
            _check_blocks(pairs, ends)  # a fault inside a block is named first
            raise

    @classmethod
    def _from_arrays(cls, n_points: int, arrays: tuple[TreeLevel, ...], checked: bool = False) -> PartitionTree:
        tree = object.__new__(cls)
        tree._assign(n_points, arrays, checked)
        return tree

    def _assign(self, n_points: int, arrays: tuple[TreeLevel, ...], checked: bool = False) -> None:
        self.n_points, self.arrays, self._blocks = n_points, arrays, None
        if not checked:
            self.validate()
        self.arrays = tuple(TreeLevel(*(a.astype(np.intp, copy=False) for a in level)) for level in arrays)
        for a in itertools.chain(*self.arrays):
            a.flags.writeable = False

    def validate(self) -> None:
        """Check admissibility, level by level, with :func:`_check_level`."""
        counts = np.array([self.n_points])
        for k, level in enumerate(self.arrays):
            _check_level(k, self.arrays[k - 1] if k else None, level, counts, last=k == self.depth)

    @property
    def depth(self) -> int:
        return len(self.arrays) - 1

    @property
    def levels(self) -> tuple[tuple[Block, ...], ...]:
        """The tree as tuples of :class:`Block`, root first, built from the arrays on first use."""
        if self._blocks is None:
            self._blocks = tuple(tuple(Block(tuple(m), r) for m, r in level.blocks()) for level in self.arrays)
        return self._blocks

    def columns(self) -> dict:
        """The report document: ``n_points`` and each level's :class:`~procsup.reports.TreeLevel`."""
        return {"n_points": self.n_points, "levels": list(self.arrays)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartitionTree):
            return NotImplemented
        return (self.n_points == other.n_points and len(self.arrays) == len(other.arrays)
                and all(map(np.array_equal, itertools.chain(*self.arrays), itertools.chain(*other.arrays))))


def tree_from_dict(doc: dict) -> PartitionTree:
    """Rebuild a tree from a report's ``tree`` section with the :class:`PartitionTree` reader.

    ``n_points``, every ``rep`` and every member must be integers: a bool,
    float or string is rejected, not converted.  A missing key or a value
    of the wrong shape raises :class:`ValidationError` naming it.
    """
    try:
        levels = (((block["members"], block["rep"]) for block in level) for level in doc["levels"])
        return PartitionTree(doc["n_points"], levels)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed partition tree document: {exc}") from exc


def _allocate_children(budget: int, sizes: np.ndarray, tree: np.ndarray) -> np.ndarray:
    """Each block's number of children, the blocks of each tree sharing ``budget`` slots.

    ``sizes`` and ``tree`` (nondecreasing) are int arrays, one entry a block.
    Every block gets one child; a tree's ``budget - blocks`` spare slots then
    go one at a time to its block of largest need ``size / allocation``, ties
    to the earliest, never past its size.  Needs ``s/1 > s/2 > ...`` strictly
    fall: one sort ranks every tree's largest, ``min(size - 1, spare)`` a block.
    """
    spare = np.maximum(budget - np.bincount(tree), 0)
    offers = np.minimum(sizes - 1, spare[tree])
    block = np.repeat(np.arange(len(sizes)), offers)
    held = np.arange(block.size) - np.repeat(np.cumsum(offers) - offers, offers) + 1  # allocation before the offer
    owner = tree[block]  # nondecreasing, so each tree's run of ranked offers stays in place
    rank = np.lexsort((block, -(sizes[block] / held), owner))
    won = np.arange(block.size) - np.searchsorted(owner, owner) < spare[owner]
    return 1 + np.bincount(block[rank[won]], minlength=len(sizes))


class DistanceOverflow(ParameterError):
    """A squared l2 distance between two rows of a greedy split's coordinates overflows float64."""

    def __init__(self, a: int, b: int) -> None:
        self.rows = (min(a, b), max(a, b))
        super().__init__(f"the squared l2 distance between points {self.rows[0]} and {self.rows[1]} overflows float64")


def _squared_distances(xt: np.ndarray, centers: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each column of ``xt`` to its center's column, ``counts[i]`` columns to ``centers[i]``, squared.

    ``xt`` holds ``d`` coordinate rows and at least two columns (a splitting
    parent has two or more members), so the reduce adds the squared
    differences row after row: each distance sums its coordinates in index
    order.
    """
    q = xt[:, centers].repeat(counts, axis=1)
    np.subtract(xt, q, q)
    return np.add.reduce(np.multiply(q, q, q), axis=0)


def _split_level(coords_t: np.ndarray, order: np.ndarray, sizes: np.ndarray, reps: np.ndarray,
                 alloc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split every block of one level into its ``alloc`` children by farthest-point centers.

    ``coords_t`` holds the points column-major, one row a coordinate: point
    ``i`` is column ``i``.  A level is ``order`` (its blocks' members, block
    after block, each ascending) with each block's size and representative;
    the blocks may belong to many trees over disjoint points (a forest),
    since each block is split on its own.  The parent's representative
    seeds its traversal (so one child always inherits it); each further
    center is the member farthest from all chosen centers, ties to the
    lowest point index; members then join their nearest center, ties to the
    earliest center.  Children follow their parent's position, then the
    order their centers were chosen.  The splitting parents lie end to end,
    largest ``alloc`` first, in runs of at most ``_BLOCK_BYTES`` of
    coordinates (a larger parent alone); at step ``j`` those with
    ``alloc > j`` are a prefix of the run, and each takes the segment argmax
    of ``near``, its members' distances to their nearest center, ``-inf`` on
    centers (so they stay in their own blocks even when a distance
    underflows to 0).  A parent's children depend only on its own rows,
    never on its run.

    A run's coordinates are gathered once from ``coords_t`` into a
    C-contiguous ``(d, len)`` array ``xt``, with no row-major copy.  A step
    repeats the active centers' columns into a ``(d, m)`` buffer, subtracts
    and squares it in place and adds its ``d`` rows one after another, so
    every distance sums its coordinates in index order, whatever ``d``.  A
    squared distance that overflows float64 raises :class:`DistanceOverflow`,
    with no warning, naming the center and the first such member of the
    first parent, in split order, that overflows when split alone: a run
    that overflows is split again a parent at a time, so the pair does not
    depend on ``_BLOCK_BYTES``.
    """
    starts = np.cumsum(sizes) - sizes
    first_child = np.cumsum(alloc) - alloc
    label = np.repeat(first_child, sizes)
    child_reps = np.repeat(reps, alloc)
    split = np.flatnonzero(alloc > 1)
    split = split[np.argsort(-alloc[split], kind="stable")]
    ends = np.cumsum(sizes[split])
    lo, rows = 0, _BLOCK_BYTES // (8 * len(coords_t))
    while lo < len(split):
        hi = max(int(np.searchsorted(ends, ends[lo] - sizes[split[lo]] + rows, side="right")), lo + 1)
        parents, lo = split[lo:hi], hi
        size, k = sizes[parents], alloc[parents]
        tops = np.cumsum(size)
        seg = tops - size
        pos = np.repeat(starts[parents] - seg, size) + np.arange(tops[-1])
        idx = order[pos]
        xt = np.take(coords_t, idx, axis=1)  # (d, len), C-contiguous
        near, assign = np.full(len(idx), np.inf), np.zeros(len(idx), dtype=np.intp)
        c = np.flatnonzero(idx == np.repeat(reps[parents], size))
        overflow = False
        with np.errstate(over="raise"):
            for j, a in enumerate(np.searchsorted(-k, -np.arange(k[0])).tolist()):  # a parents with k > j
                m, region = tops[a - 1], near[: tops[a - 1]]
                if j:
                    hit = np.flatnonzero(region == np.repeat(np.maximum.reduceat(region, seg[:a]), size[:a]))
                    c = hit[np.searchsorted(hit, seg[:a])]  # each segment's first maximum
                try:
                    dist = np.sqrt(_squared_distances(xt[:, :m], c, size[:a]))
                except FloatingPointError:
                    if len(parents) > 1:
                        overflow = True
                        break
                    with np.errstate(over="ignore"):
                        p = (_squared_distances(xt[:, :m], c, size[:a]) == np.inf).argmax()
                    raise DistanceOverflow(int(np.repeat(idx[c], size[:a])[p]), int(idx[p])) from None
                dist[c] = -np.inf
                np.copyto(assign[:m], j, where=dist < region)
                np.minimum(region, dist, out=region)
        if overflow:  # split the run again a parent at a time
            lo, rows = lo - len(parents), 0
            continue
        centers = pos[near == -np.inf]  # each child's center, at its position in order
        label[pos] += assign
        child_reps[label[centers]] = order[centers]
    return order[np.argsort(label, kind="stable")], np.bincount(label, minlength=child_reps.size), child_reps


def _grow(coords: np.ndarray, counts) -> Iterator[TreeLevel]:
    """Yield the levels of the greedy trees over consecutive runs of ``counts`` rows of ``coords``.

    Level ``n`` splits every level ``n-1`` block with :func:`_split_level`,
    all trees at once, each tree's budget ``min(2^(2^n), count)`` shared
    among its blocks by :func:`_allocate_children`.  A tree bottoms out in
    singletons at the least ``n`` with ``2^(2^n) >= count``.  Every level
    passes :func:`_check_level`; the last is all singletons.  The splits
    read one C-contiguous ``(d, n)`` copy of ``coords`` and sum each squared
    distance's coordinates in index order.
    """
    counts = np.asarray(counts, dtype=np.intp)
    if not counts.size or counts.min() < 1 or counts.sum() != len(coords):
        raise ParameterError("a forest needs trees of at least one point each, covering the rows")
    depth = 0 if counts.max() == 1 else 1
    while level_budget(depth, counts.max()) < counts.max():
        depth += 1
    level = TreeLevel(np.arange(len(coords)), counts, np.cumsum(counts) - counts)
    _check_level(0, None, level, counts, last=depth == 0)
    yield level
    coords_t = np.ascontiguousarray(coords.T)
    tree = np.arange(len(counts))  # each block's tree
    for lvl in range(1, depth + 1):
        alloc = _allocate_children(level_budget(lvl, len(coords)), level.sizes, tree)
        child = TreeLevel(*_split_level(coords_t, *level, alloc))
        _check_level(lvl, level, child, counts, last=lvl == depth)
        level, tree = child, np.repeat(tree, alloc)
        yield level


def build_partition_greedy(ts: FiniteSet) -> PartitionTree:
    """Deterministic greedy admissible tree for ``ts``: the one-tree forest of :func:`_grow`.

    Level ``n`` splits every level ``n-1`` block with farthest-point centers
    in l2, under the total budget ``min(2^(2^n), |T|)`` distributed
    proportionally among parents.  The tree bottoms out in singletons at the
    least ``n`` with ``2^(2^n) >= |T|``.  The tree keeps :func:`_grow`'s
    level arrays, each checked once as it grew.
    """
    return PartitionTree._from_arrays(len(ts), tuple(_grow(ts.matrix, [len(ts)])), checked=True)


@dataclass(frozen=True)
class ChainBound:
    """The chain-sum bound: worst per-point sum of increment norms."""

    value: float
    per_point: tuple[float, ...]
    tree: PartitionTree


def _chain_sums(coords: np.ndarray, levels: Iterable[TreeLevel], model: MomentModel | MonteCarloModel) -> np.ndarray:
    """Each point's chain sum down ``levels`` (root first), one ``model.norms`` call per level.

    ``prev_rep`` holds each point's representative one level up.  Every
    block's increment from its parent's representative to its own,
    ``x[max] - x[min]`` of the two indices, goes through its level's norms
    call; blocks that keep their parent's representative add exactly 0.0,
    which leaves a sum's bits alone.
    """
    levels = iter(levels)
    root = next(levels)
    sums, prev_rep = np.zeros(len(coords)), np.repeat(root.reps, root.sizes)
    for lvl, (order, sizes, reps) in enumerate(levels, start=1):
        parent_reps = prev_rep[order[np.cumsum(sizes) - sizes]]
        moved = parent_reps != reps
        lo = np.minimum(parent_reps, reps)[moved]
        hi = np.maximum(parent_reps, reps)[moved]
        steps = np.zeros(len(sizes))
        steps[moved] = model.norms(coords[hi] - coords[lo], 1 << lvl)
        sums[order] += np.repeat(steps, sizes)
        prev_rep[order] = np.repeat(reps, sizes)
    return sums


def chain_bound(ts: FiniteSet, tree: PartitionTree, model: MomentModel | MonteCarloModel) -> ChainBound:
    """Evaluate ``max_t sum_n ||X_(rep_n(t)) - X_(rep_(n-1)(t))||_(2^n)`` with :func:`_chain_sums`."""
    if tree.n_points != len(ts):
        raise ParameterError(f"tree covers {tree.n_points} points but the set has {len(ts)}")
    per_point = tuple(_chain_sums(ts.matrix, tree.arrays, model).tolist())
    return ChainBound(value=max(per_point), per_point=per_point, tree=tree)


def greedy_forest_bounds(
    coords: np.ndarray, counts, model: MomentModel | MonteCarloModel
) -> tuple[np.ndarray, np.ndarray]:
    """Chain bounds of the greedy trees over consecutive runs of ``counts`` rows of ``coords``.

    Each run is one set (its rows distinct) and gets the tree
    :func:`build_partition_greedy` would build on it, grown all at once by
    :func:`_grow` and summed by :func:`_chain_sums` level by level.  Returns
    each tree's bound, the segment max of its points' chain sums, and the
    sums themselves; both equal :func:`chain_bound` on the one-set tree bit
    for bit when the model's norms are row by row (not Monte Carlo, whose
    rows share a stream).
    """
    sums = _chain_sums(coords, _grow(coords, counts), model)
    return np.maximum.reduceat(sums, np.cumsum(counts) - counts), sums


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
    generic (e.g. randomly drawn) inputs.  A sum set of more than
    ``GENERATE_MAX_COORDINATES`` coordinates is a :class:`CapacityError`,
    raised before any sum is formed.
    """
    if ts_a.dim != ts_b.dim:
        raise ParameterError(f"dimension mismatch: {ts_a.dim} vs {ts_b.dim}")
    if tree_a.n_points != len(ts_a) or tree_b.n_points != len(ts_b):
        raise ParameterError("trees do not match their sets")
    if len(ts_a) * len(ts_b) * ts_a.dim > GENERATE_MAX_COORDINATES:
        raise CapacityError(f"sum set capped at {GENERATE_MAX_COORDINATES} coordinates, "
                            f"got {len(ts_a)} x {len(ts_b)} points of dim {ts_a.dim}")

    # Row ia * |B| + ib is a_ia + b_ib; sum point p is row first[p], its pair (pair_a[p], pair_b[p]).
    sums = (ts_a.matrix[:, None, :] + ts_b.matrix[None, :, :]).reshape(-1, ts_a.dim)
    first, slot = distinct_rows(sums)
    pair_a, pair_b = np.divmod(first, len(ts_b))

    def product(n: int) -> TreeLevel:
        """The nonempty products of the two trees' level-n blocks, in their nested order."""
        la, lb = tree_a.arrays[min(n, tree_a.depth)], tree_b.arrays[min(n, tree_b.depth)]
        key = _owners(la, len(ts_a))[pair_a] * len(lb.sizes) + _owners(lb, len(ts_b))[pair_b]
        order = np.argsort(key, kind="stable")
        keys, sizes = np.unique(key, return_counts=True)
        rep = slot[la.reps[keys // len(lb.sizes)] * len(ts_b) + lb.reps[keys % len(lb.sizes)]]
        return TreeLevel(order, sizes, np.where(key[rep] == keys, rep, order[np.cumsum(sizes) - sizes]))

    # the roots' product is the root, and level n's products are level n + 1
    levels = [product(0)] + [product(n) for n in range(max(tree_a.depth, tree_b.depth) + 1)]
    combined = FiniteSet(name=f"{ts_a.name}+{ts_b.name}", points=sums[first])
    return combined, PartitionTree._from_arrays(len(first), tuple(levels))


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


def _exhaustive_depth(n_points: int, dim: int, model: MomentModel | MonteCarloModel) -> int:
    """Deepest level the exact search must consider.

    Splitting later than necessary pays a larger moment order, so for exact
    Bernoulli/Gaussian norms (monotone in p and subadditive) nothing beyond
    the first singleton-capable level can help.  The proxy is neither — its
    value can drop as p grows — but it freezes to the plain l1 norm once
    p >= dim, after which delaying is again pointless; Monte Carlo models
    get the same conservative depth.
    """
    n_sing = 1
    while level_budget(n_sing, n_points) < n_points:
        n_sing += 1
    if model in (MomentModel.BERNOULLI_EXACT, MomentModel.GAUSSIAN_EXACT):
        return n_sing
    return max(n_sing, math.ceil(math.log2(max(dim, 2))))


def _chains(n: int, depth: int) -> list[tuple[tuple[tuple[int, ...], ...], ...]]:
    """Every partition sequence ``(P_0, ..., P_L)`` the exhaustive search weighs, depth first.

    ``P_0`` is the whole set; each later level refines the one above within
    its block budget, and a sequence not yet at singletons by level
    ``depth - 1`` splits into them at ``depth``.  Every sequence extends to
    at least one at the next level, so the first level past
    ``EXHAUSTIVE_MAX_SEQUENCES`` raises :class:`CapacityError` as it grows.
    """
    singletons = tuple((i,) for i in range(n))
    chains = [((tuple(range(n)),),)]
    for level in range(1, depth):
        cap = level_budget(level, n)
        grown = (c + (p,) for c in chains for p in _refinements(c[-1], cap))
        chains = list(itertools.islice(grown, EXHAUSTIVE_MAX_SEQUENCES + 1))
        if len(chains) > EXHAUSTIVE_MAX_SEQUENCES:
            raise CapacityError(f"exhaustive search capped at {EXHAUSTIVE_MAX_SEQUENCES} partition sequences, "
                                f"got more at depth {depth} over {n} points")
    return [c if c[-1] == singletons else c + (singletons,) for c in chains]


def _best_step(inc: list[list[float]], cost: list[float], r: int, child: tuple[int, ...]) -> tuple[float, int]:
    """Cheapest ``(increment from r + tail cost, s)`` over representatives ``s`` of ``child``.

    A cost tie goes to the lowest index.
    """
    return min((inc[r][s] + cost[s], s) for s in child)


def exhaustive_gamma(ts: FiniteSet, model: MomentModel | MonteCarloModel) -> ChainBound:
    """Exact minimum chain sum over *all* admissible trees and representatives.

    Enumerates every nested partition sequence down to singletons (depth
    bounded as in :func:`_exhaustive_depth`) and picks representatives by a
    dynamic program from the leaves up.  A point lies in one block per
    level, so ``cost[r]`` is the cheapest worst-case tail below the block of
    ``r`` with ``r`` as its representative.  The first sequence with the
    least value wins.  Ground truth for greedy trees, capped at
    ``|T| <= 5`` points and at ``EXHAUSTIVE_MAX_SEQUENCES = 2**15`` partition
    sequences: the proxy and Monte Carlo depths grow as ``log2 d``, and 5
    points pass the cap at depth 9 (``d > 256``).  Either cap, and then a
    pair whose squared l2 distance overflows float64
    (:class:`DistanceOverflow`), raises before any norm is computed.
    """
    n = len(ts)
    if n > EXHAUSTIVE_MAX_POINTS:
        raise CapacityError(f"exhaustive search capped at {EXHAUSTIVE_MAX_POINTS} points, got {n}")
    if n == 1:
        tree = PartitionTree(n_points=1, levels=((Block((0,), 0),),))
        return chain_bound(ts, tree, model)

    depth = _exhaustive_depth(n, ts.dim, model)
    chains = _chains(n, depth)
    # inc[lvl][a][b] = ||X_b - X_a||_{2^lvl}, one norm call on the row of each pair per level.
    pairs = list(itertools.combinations(range(n), 2))
    first, second = np.array(pairs).T
    with np.errstate(over="ignore"):
        rows = ts.matrix[second] - ts.matrix[first]
        far = ~np.isfinite(np.vecdot(rows, rows))
    if far.any():
        raise DistanceOverflow(*pairs[far.argmax()])
    inc = [[[0.0] * n for _ in range(n)] for _ in range(depth + 1)]
    for lvl in range(1, depth + 1):
        for k, (a, b) in enumerate(pairs):
            inc[lvl][a][b] = inc[lvl][b][a] = float(model.norms(rows[k : k + 1], 1 << lvl)[0])

    best = None
    for chain in chains:
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
    samples: int = DEFAULT_SAMPLES,
    seed: Seed = Seed(0),
    exact: bool = False,
) -> ComparisonReport:
    """Check ``E sup <= 4 * chain bound`` on one set, exactly where possible.

    The supremum takes :func:`~procsup.suprema.expected_sup`'s route:
    Bernoulli suprema are enumerated exactly within the dimension and sign-sum
    caps (and by Monte Carlo beyond them, unless ``exact`` demands
    enumeration); Gaussian suprema are always Monte Carlo.  The
    chain bound uses the greedy tree under the matching exact model (proxy
    when the Bernoulli dimension exceeds the cap).  The violation flag
    allows Monte Carlo noise of three standard errors.
    """
    sup = expected_sup(kind, ts, samples, seed, exact=exact)
    if kind is ProcessKind.GAUSSIAN:
        model = MomentModel.GAUSSIAN_EXACT
    elif ts.dim <= EXACT_ENUMERATION_MAX_DIM:
        model = MomentModel.BERNOULLI_EXACT
    else:
        model = MomentModel.BERNOULLI_PROXY
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
