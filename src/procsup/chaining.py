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
  proportionally among parents),
* the chain-sum evaluator for any :class:`~procsup.moments.MomentModel`,
* a combiner that turns trees on ``A`` and ``B`` into a tree on the sum set
  ``A + B`` (products of blocks, one level deeper), and
* an exhaustive minimiser over *all* admissible trees for tiny sets, used
  as ground truth for the greedy builder.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import FiniteSet, Point, ProcessKind, Seed, distinct_rows
from .errors import CapacityError, ParameterError, ValidationError
from .moments import EXACT_ENUMERATION_MAX_DIM, ModelKind, MomentModel
from .reports import ComparisonReport, safe_ratio
from .suprema import brute_force_bernoulli_sup, mc_sup

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
        if any(b < a for a, b in itertools.pairwise(self.members)):
            object.__setattr__(self, "members", tuple(sorted(self.members)))
        if self.rep not in self.members:
            raise ValidationError(f"representative {self.rep} is not a member of {self.members}")


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
        if self.n_points < 1:
            raise ValidationError("tree needs at least one point")
        if not self.levels:
            raise ValidationError("tree needs at least the root level")
        if len(self.levels[0]) != 1 or self.levels[0][0].members != tuple(range(self.n_points)):
            raise ValidationError("level 0 must be the single block holding every point")
        everyone = frozenset(range(self.n_points))
        prev_owner: dict[int, int] | None = None
        for n, level in enumerate(self.levels):
            if n >= 1 and len(level) > level_budget(n):
                raise ValidationError(
                    f"level {n} has {len(level)} blocks, over the budget {level_budget(n)}"
                )
            owner: dict[int, int] = {}
            for b, block in enumerate(level):
                for i in block.members:
                    if i in owner:
                        raise ValidationError(f"level {n}: point {i} appears in two blocks")
                    if not 0 <= i < self.n_points:
                        raise ValidationError(f"level {n}: point index {i} out of range")
                    owner[i] = b
            if set(owner) != everyone:
                missing = sorted(everyone - set(owner))
                raise ValidationError(f"level {n}: points {missing} not covered")
            if prev_owner is not None:
                for block in level:
                    parents = {prev_owner[i] for i in block.members}
                    if len(parents) > 1:
                        raise ValidationError(
                            f"level {n}: block {block.members} straddles parent blocks"
                        )
            prev_owner = owner
        if any(len(b.members) != 1 for b in self.levels[-1]):
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
    try:
        levels = tuple(
            tuple(Block(tuple(b["members"]), int(b["rep"])) for b in level)
            for level in doc["levels"]
        )
        return PartitionTree(n_points=int(doc["n_points"]), levels=levels)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed partition tree document: {exc}") from exc


def _allocate_children(budget: int, sizes: list[int]) -> list[int]:
    """Distribute ``budget`` child slots among parents, one each, rest by need.

    "Need" is the ratio of a parent's size to its current allocation, so
    large parents split more; allocations never exceed the parent's size and
    ties go to the earliest parent.
    """
    alloc = [1] * len(sizes)
    remaining = budget - len(sizes)
    while remaining > 0:
        best, best_need = -1, 0.0
        for i, (s, a) in enumerate(zip(sizes, alloc)):
            if a < s and s / a > best_need:
                best, best_need = i, s / a
        if best < 0:
            break
        alloc[best] += 1
        remaining -= 1
    return alloc


def _split_farthest_point(coords: np.ndarray, members: tuple[int, ...], rep: int, k: int) -> list[Block]:
    """Split one parent block into ``k`` children by farthest-point centers.

    The parent's representative seeds the traversal (so one child always
    inherits it); each further center is the member farthest from all chosen
    centers, ties to the lowest point index; members then join their nearest
    center, ties to the earliest center.
    """
    idx = np.asarray(members)
    local = coords[idx]
    centers = [members.index(rep)]
    dist = np.linalg.norm(local - local[centers[0]], axis=1)
    while len(centers) < k:
        nxt = int(np.argmax(dist))
        centers.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(local - local[nxt], axis=1))
    pairwise = np.linalg.norm(local[:, None, :] - local[None, centers, :], axis=2)
    assign = np.argmin(pairwise, axis=1)
    blocks = []
    for c, center in enumerate(centers):
        chosen = idx[assign == c]
        blocks.append(Block(members=tuple(int(i) for i in chosen), rep=int(idx[center])))
    return blocks


def build_partition_greedy(ts: FiniteSet) -> PartitionTree:
    """Deterministic greedy admissible tree for ``ts``.

    Level ``n`` splits every level ``n-1`` block with farthest-point centers
    in l2, under the total budget ``min(2^(2^n), |T|)`` distributed
    proportionally among parents.  The tree bottoms out in singletons at the
    least ``n`` with ``2^(2^n) >= |T|``.
    """
    n = len(ts)
    coords = ts.matrix
    levels: list[tuple[Block, ...]] = [(Block(tuple(range(n)), rep=0),)]
    lvl = 0
    while any(len(b.members) > 1 for b in levels[-1]):
        lvl += 1
        parents = levels[-1]
        budget = min(level_budget(lvl), n)
        alloc = _allocate_children(budget, [len(b.members) for b in parents])
        children: list[Block] = []
        for parent, k in zip(parents, alloc):
            if k == 1:
                children.append(parent)
            else:
                children.extend(_split_farthest_point(coords, parent.members, parent.rep, k))
        levels.append(tuple(children))
    return PartitionTree(n_points=n, levels=tuple(levels))


@dataclass(frozen=True)
class ChainBound:
    """The chain-sum bound: worst per-point sum of increment norms."""

    value: float
    per_point: tuple[float, ...]
    tree: PartitionTree
    model: MomentModel


def chain_bound(ts: FiniteSet, tree: PartitionTree, model: MomentModel) -> ChainBound:
    """Evaluate ``max_t sum_n ||X_(rep_n(t)) - X_(rep_(n-1)(t))||_(2^n)``.

    Increment norms are memoised per unordered point pair and level, so
    Monte Carlo models evaluate each increment exactly once.
    """
    if tree.n_points != len(ts):
        raise ParameterError(f"tree covers {tree.n_points} points but the set has {len(ts)}")
    cache: dict[tuple[int, int, int], float] = {}

    def increment(a: int, b: int, p: int) -> float:
        if a == b:
            return 0.0
        key = (min(a, b), max(a, b), p)
        if key not in cache:
            cache[key] = model.norm(Point(ts.matrix[key[1]] - ts.matrix[key[0]]), p)
        return cache[key]

    sums = [0.0] * len(ts)
    prev_rep = {i: tree.levels[0][0].rep for i in range(len(ts))}
    for lvl in range(1, len(tree.levels)):
        p = 1 << lvl
        for block in tree.levels[lvl]:
            parent_rep = prev_rep[block.members[0]]
            step = increment(parent_rep, block.rep, p)
            for i in block.members:
                sums[i] += step
                prev_rep[i] = block.rep
    return ChainBound(value=max(sums), per_point=tuple(sums), tree=tree, model=model)


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

    def rec(i: int, acc: tuple[tuple[int, ...], ...]):
        if len(acc) + (len(partition) - i) > max_blocks:
            return
        if i == len(partition):
            yield tuple(sorted(acc))
            return
        for sub in _set_partitions(partition[i]):
            yield from rec(i + 1, acc + sub)

    yield from rec(0, ())


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


def exhaustive_gamma(ts: FiniteSet, model: MomentModel) -> ChainBound:
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
    cache: dict[tuple[int, int, int], float] = {}

    def inc(a: int, b: int, lvl: int) -> float:
        if a == b:
            return 0.0
        key = (min(a, b), max(a, b), lvl)
        if key not in cache:
            cache[key] = model.norm(Point(ts.matrix[key[1]] - ts.matrix[key[0]]), 1 << lvl)
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


def verify_sup_bound(
    ts: FiniteSet,
    kind: ProcessKind,
    samples: int = 100_000,
    seed: Seed | None = None,
    exact: bool | None = None,
) -> ComparisonReport:
    """Check ``E sup <= 4 * chain bound`` on one set, exactly where possible.

    Bernoulli suprema are enumerated exactly up to the dimension cap (and by
    Monte Carlo beyond it); Gaussian suprema are always Monte Carlo.  The
    chain bound uses the greedy tree under the matching exact model (proxy
    when the Bernoulli dimension exceeds the cap).  The violation flag
    allows Monte Carlo noise of three standard errors.
    """
    seed = seed if seed is not None else Seed(0)
    enumerable = ts.dim <= EXACT_ENUMERATION_MAX_DIM
    if kind is ProcessKind.BERNOULLI:
        model = MomentModel.bernoulli_exact() if enumerable else MomentModel.bernoulli_proxy()
        use_exact = enumerable if exact is None else exact
        sup = brute_force_bernoulli_sup(ts) if use_exact else mc_sup(kind, ts, samples, seed)
    else:
        if exact:
            raise ParameterError("no exact supremum oracle for the Gaussian process")
        model = MomentModel.gaussian_exact()
        sup = mc_sup(kind, ts, samples, seed)
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
