"""Chaining routes that faster ones replaced, kept as references.

``reference_exhaustive_gamma`` is the recursive search with a memoised
``g(level, block, rep)`` per partition sequence, over the partitions the
recursive ``_refinements`` below lists; ``exhaustive_gamma`` must return
the same value, per-point sums and tree.  ``reference_split_level`` is the
greedy split with row-major distances, each summing its coordinates in
index order by a running sum, which no layout or blocking of numpy's
reduce can change; ``_split_level`` must return the same level arrays.
``ReferenceBlock`` is the block that checked itself as it was made, before
the tree's reader took over its checks.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from procsup import chaining
from procsup.chaining import (
    EXHAUSTIVE_MAX_POINTS,
    Block,
    ChainBound,
    PartitionTree,
    _exhaustive_depth,
    _set_partitions,
    chain_bound,
    level_budget,
)
from procsup.core import FiniteSet
from procsup.errors import CapacityError, ValidationError
from procsup.moments import MomentModel


@dataclass(frozen=True)
class ReferenceBlock:
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


def _refinements(partition: tuple[tuple[int, ...], ...], max_blocks: int):
    """All partitions refining ``partition`` with at most ``max_blocks`` blocks."""

    def rec(i: int, acc: tuple[tuple[int, ...], ...]):
        if len(acc) + (len(partition) - i) > max_blocks:
            return
        if i == len(partition):
            yield tuple(sorted(acc))
            return
        for sub in _set_partitions(partition[i]):
            yield from rec(i + 1, acc + sub)

    yield from rec(0, ())


def reference_exhaustive_gamma(ts: FiniteSet, model: MomentModel) -> ChainBound:
    """Exact minimum chain sum over *all* admissible trees and representatives.

    Enumerates every nested partition sequence down to singletons (depth
    bounded as in :func:`_exhaustive_depth`), optimising representative
    choices by dynamic programming over each sequence.  Ground truth for
    greedy trees; capped at ``|T| <= 5`` points.
    """
    n = len(ts)
    if n > EXHAUSTIVE_MAX_POINTS:
        raise CapacityError(f"exhaustive search capped at {EXHAUSTIVE_MAX_POINTS} points, got {n}")
    if n == 1:
        tree = PartitionTree(n_points=1, levels=((Block((0,), 0),),))
        return chain_bound(ts, tree, model)

    depth = _exhaustive_depth(n, ts.dim, model)
    rows = {(a, b): (ts.matrix[b] - ts.matrix[a])[None, :] for a, b in itertools.combinations(range(n), 2)}
    cache: dict[tuple[int, int, int], float] = {}

    def inc(a: int, b: int, lvl: int) -> float:
        if a == b:
            return 0.0
        key = (min(a, b), max(a, b), lvl)
        if key not in cache:
            cache[key] = float(model.norms(rows[key[:2]], 1 << lvl)[0])
        return cache[key]

    singletons = tuple((i,) for i in range(n))
    best_value = math.inf
    best_chain: list | None = None
    # chains[k] is the partition at level k+1; level 0 is always {everything}.
    stack: list[tuple[tuple[int, ...], ...]] = []

    def chain_cost(chain: list[tuple[tuple[int, ...], ...]]) -> tuple[float, list[dict]]:
        # g(level, block, rep): cheapest worst-case tail below `block` given its rep.
        memo: dict[tuple[int, tuple[int, ...], int], float] = {}
        choice: dict[tuple[int, tuple[int, ...], int], dict[tuple[int, ...], int]] = {}
        full = tuple(range(n))

        def children_of(level: int, block: tuple[int, ...]):
            return [c for c in chain[level] if c[0] in block and set(c) <= set(block)]

        def g(level: int, block: tuple[int, ...], rep: int) -> float:
            key = (level, block, rep)
            if key in memo:
                return memo[key]
            if level == len(chain):
                memo[key] = 0.0
                return 0.0
            worst = 0.0
            picks: dict[tuple[int, ...], int] = {}
            for child in children_of(level, block):
                best_child = math.inf
                best_rep = child[0]
                for s in child:
                    cost = inc(rep, s, level + 1) + g(level + 1, child, s)
                    if cost < best_child:
                        best_child, best_rep = cost, s
                picks[child] = best_rep
                worst = max(worst, best_child)
            memo[key] = worst
            choice[key] = picks
            return worst

        value = math.inf
        root = -1
        for r in range(n):
            v = g(0, full, r)
            if v < value:
                value, root = v, r
        # Rebuild the chosen representatives, level by level.
        reps: list[dict[tuple[int, ...], int]] = [{full: root}]
        for level in range(len(chain)):
            layer: dict[tuple[int, ...], int] = {}
            for block, rep in reps[level].items():
                for child, s in choice[(level, block, rep)].items():
                    layer[child] = s
            reps.append(layer)
        return value, reps

    def descend(level: int) -> None:
        nonlocal best_value, best_chain
        prev = stack[-1] if stack else (tuple(range(n)),)
        if level == depth:
            if prev != singletons:
                if len(singletons) > level_budget(level):
                    return
                stack.append(singletons)
                value, reps = chain_cost(stack)
                if value < best_value:
                    best_value, best_chain = value, (list(stack), reps)
                stack.pop()
            else:
                value, reps = chain_cost(stack)
                if value < best_value:
                    best_value, best_chain = value, (list(stack), reps)
            return
        cap = min(level_budget(level), n)
        for part in _refinements(prev, cap):
            stack.append(part)
            descend(level + 1)
            stack.pop()

    descend(1)
    assert best_chain is not None
    chain, reps = best_chain
    levels = [(Block(tuple(range(n)), rep=reps[0][tuple(range(n))]),)]
    for level, part in enumerate(chain, start=1):
        levels.append(tuple(Block(block, rep=reps[level][block]) for block in part))
    tree = PartitionTree(n_points=n, levels=tuple(levels))
    return chain_bound(ts, tree, model)


def reference_split_level(coords: np.ndarray, order: np.ndarray, sizes: np.ndarray, reps: np.ndarray,
                           alloc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The greedy split with row-major distances, as it was before they went column-major.

    Each step repeats the active centers' rows into an ``(m, d)`` buffer,
    subtracts and squares in place and sums each row in index order, as the
    last entry of its ``np.cumsum``; the run's coordinates are gathered
    row-major.  ``chaining._split_level`` must return the same ``(order,
    sizes, reps)`` and name the same pair in
    :class:`~procsup.chaining.DistanceOverflow`.
    """
    starts = np.cumsum(sizes) - sizes
    first_child = np.cumsum(alloc) - alloc
    label = np.repeat(first_child, sizes)
    child_reps = np.repeat(reps, alloc)
    split = np.flatnonzero(alloc > 1)
    split = split[np.argsort(-alloc[split], kind="stable")]
    ends = np.cumsum(sizes[split])
    lo, rows = 0, chaining._BLOCK_BYTES // (8 * coords.shape[1])
    while lo < len(split):
        hi = max(int(np.searchsorted(ends, ends[lo] - sizes[split[lo]] + rows, side="right")), lo + 1)
        parents, lo = split[lo:hi], hi
        size, k = sizes[parents], alloc[parents]
        tops = np.cumsum(size)
        seg = tops - size
        pos = np.repeat(starts[parents] - seg, size) + np.arange(tops[-1])
        idx = order[pos]
        x, near, assign = coords[idx], np.full(len(idx), np.inf), np.zeros(len(idx), dtype=np.intp)
        c = np.flatnonzero(idx == np.repeat(reps[parents], size))
        overflow = False
        with np.errstate(over="raise"):
            for j, a in enumerate(np.searchsorted(-k, -np.arange(k[0])).tolist()):  # a parents with k > j
                m, region = tops[a - 1], near[: tops[a - 1]]
                if j:
                    hit = np.flatnonzero(region == np.repeat(np.maximum.reduceat(region, seg[:a]), size[:a]))
                    c = hit[np.searchsorted(hit, seg[:a])]  # each segment's first maximum
                d2 = np.repeat(x[c], size[:a], axis=0)
                try:
                    np.subtract(x[:m], d2, out=d2)
                    dist = np.sqrt(np.cumsum(np.multiply(d2, d2, out=d2), axis=-1)[:, -1])
                except FloatingPointError:
                    if len(parents) > 1:
                        overflow = True
                        break
                    with np.errstate(over="ignore"):
                        far = np.cumsum(np.square(x[:m] - np.repeat(x[c], size[:a], axis=0)), axis=-1)[:, -1]
                    p = (far == np.inf).argmax()
                    raise chaining.DistanceOverflow(int(np.repeat(idx[c], size[:a])[p]), int(idx[p])) from None
                del d2
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
