"""Two-part decompositions of an index set: l1 heads plus Gaussian-like tails.

Splitting every point ``t`` at a magnitude threshold ``r`` — coordinates
larger than ``r`` go to the *head*, the small nonzero ones to the *tail* —
rewrites the set as a sum of two families.  The heads are controlled by
their worst l1 norm; the tails, having no dominant coordinate, behave like
a Gaussian index set and are controlled by a chaining bound under the exact
Gaussian moment model (with the zero point adjoined so chains are anchored).
The sum

    objective(r) = max_t ||head_t||_1  +  chain bound of {0} u {tail_t}

upper-bounds the Bernoulli supremum up to a universal factor, and a sweep
over all candidate thresholds (the distinct coordinate magnitudes, plus 0)
picks the best split.  The sweep evaluates its candidates as one batched
forest: each candidate's tail family is one tree, and the candidates go in
groups whose tail block fits in ``_BLOCK_BYTES >> 4``, each group grown
level by level with one split and one norms call per level.  The reported
``k_emp`` is the ratio of the winning objective to the measured Bernoulli
supremum — the empirical counterpart of that universal factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .chaining import DistanceOverflow, greedy_forest_bounds
from .core import FiniteSet, ProcessKind, Seed, distinct_rows
from .errors import CapacityError, ParameterError
from .moments import _BLOCK_BYTES, DEFAULT_SAMPLES, MomentModel, check_samples
from .reports import ComparisonReport, record, safe_ratio
from .suprema import SupEstimate, expected_sup


@dataclass(frozen=True)
class SplitRule:
    """Thresholds, one per point; the rule is global when they are all equal, per-point otherwise."""

    thresholds: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.thresholds:
            raise ParameterError("a split rule needs at least one threshold")
        if not all(r >= 0 for r in self.thresholds):  # NaN fails too
            raise ParameterError("thresholds must be nonnegative numbers")

    @property
    def mode(self) -> str:
        return "global" if len(set(self.thresholds)) == 1 else "per-point"

    def to_dict(self) -> dict:
        if self.mode == "global":
            return {"mode": self.mode, "threshold": self.thresholds[0]}
        return {"mode": self.mode, "thresholds": list(self.thresholds)}


def split_rows(m: np.ndarray, r) -> tuple[np.ndarray, np.ndarray]:
    """Split ``m`` into (head, tail) arrays at magnitude ``r``.

    ``r`` is one threshold, or one per row of a matrix ``m``.  The tail
    keeps the coordinates with ``0 < |m_i| <= r`` and the head the rest;
    the other side holds ``0.0`` there, so head + tail rebuilds ``m``.
    A negative or NaN threshold raises :class:`ParameterError`.
    """
    r = np.asarray(r)
    bad = ~(r >= 0.0)  # NaN fails too
    if bad.any():
        raise ParameterError(f"threshold must be nonnegative, got {r[bad][0]}")
    a = np.abs(m)
    small = (a > 0.0) & (a <= r[..., None])
    return np.where(small, 0.0, m), np.where(small, m, 0.0)


def _check_k(k_constant: float) -> None:
    if not 0.0 <= k_constant < math.inf:  # NaN fails too
        raise ParameterError(f"k constant must be finite and nonnegative, got {k_constant}")


def choose_p(tail_norm: float, k_constant: float, sup_reference: float):
    """Least integer ``p >= 1`` with ``sqrt(p) * tail_norm >= k * sup_reference``.

    Decided exactly at every size, as ``p * tail_norm**2 >= (k *
    sup_reference)**2`` in rationals.  Returns ``math.inf`` when the tail
    vanishes but the target is positive (no finite moment order can reach
    it).  A negative or non-finite tail norm or ``k``, or a non-finite
    reference, raises :class:`ParameterError`.
    """
    if not 0.0 <= tail_norm < math.inf:  # NaN fails too
        raise ParameterError(f"tail norm must be finite and nonnegative, got {tail_norm}")
    _check_k(k_constant)
    if not math.isfinite(sup_reference):
        raise ParameterError(f"the supremum reference must be finite, got {sup_reference}")
    target = Fraction(k_constant) * Fraction(sup_reference)
    if target <= 0:
        return 1
    if tail_norm == 0.0:
        return math.inf
    ratio = (target / Fraction(tail_norm)) ** 2
    return max(1, -(-ratio.numerator // ratio.denominator))


@dataclass(frozen=True)
class SweepEntry:
    """One evaluated candidate split."""

    threshold: float
    ell1_sup: float
    gamma2_bound: float
    objective: float

    def to_dict(self) -> dict:
        # spelled out rather than through reports.record: a sweep writes one of these per
        # candidate threshold, and record's walk over the fields takes about ten times as long
        return {
            "threshold": self.threshold,
            "ell1_sup": self.ell1_sup,
            "gamma2_bound": self.gamma2_bound,
            "objective": self.objective,
        }


@dataclass(frozen=True)
class DecompositionResult:
    split: SplitRule
    ell1_sup: float
    gamma2_bound: float
    objective: float
    s_b_reference: SupEstimate
    k_emp: float
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return record(self, split=self.split.to_dict(), s_b_reference=record(self.s_b_reference, samples=None))


def _row_sums(m: np.ndarray) -> np.ndarray:
    """Row sums added left to right, as a scalar loop adds them (``cumsum`` is sequential)."""
    return np.cumsum(m, axis=-1)[..., -1]


def _objectives(ts: FiniteSet, thresholds: np.ndarray) -> tuple[list[float], list[float]]:
    """``(ell1_sup, gamma2)`` of the split at each row of ``thresholds``.

    A row holds one threshold per point, or one shared by all.  Each
    split's tail family is its distinct tails with the zero point adjoined
    first, and its bound the greedy chain bound under the exact Gaussian
    model.  The rows go in groups whose ``(K, |T|+1, d)`` tail block fits in
    ``_BLOCK_BYTES >> 4``; a group's families are deduplicated by one
    :func:`distinct_rows` call keyed by row and bounded as one forest.
    A head whose l1 norm overflows float64, or tails whose greedy tree
    meets an overflowing squared distance, raise :class:`ParameterError`
    naming the set's points.
    """
    n, d = ts.matrix.shape
    group = max(1, (_BLOCK_BYTES >> 4) // (8 * (n + 1) * d))
    ell1, gamma = [], []
    for lo in range(0, len(thresholds), group):
        r = thresholds[lo : lo + group]
        heads, tails = split_rows(ts.matrix, r)
        with np.errstate(over="ignore"):
            head_l1 = _row_sums(np.abs(heads))
        if np.isinf(head_l1).any():
            point = np.argwhere(np.isinf(head_l1))[0, 1]
            raise ParameterError(f"the l1 norm of the head of point {point} overflows float64")
        ell1 += head_l1.max(axis=1).tolist()
        keyed = np.zeros((len(r), n + 1, d + 1))
        keyed[:, 1:, :d] = tails
        keyed[:, :, d] = np.arange(len(r))[:, None]
        keyed = keyed.reshape(-1, d + 1)
        first, _ = distinct_rows(keyed)
        counts = np.bincount(first // (n + 1), minlength=len(r))
        try:
            gamma += greedy_forest_bounds(keyed[first, :d], counts, MomentModel.GAUSSIAN_EXACT)[0].tolist()
        except DistanceOverflow as exc:
            a, b = (int(first[row] % (n + 1)) - 1 for row in exc.rows)  # -1: the adjoined zero point
            pair = f"the origin and the tail of point {b}" if a < 0 else f"the tails of points {a} and {b}"
            raise ParameterError(f"the squared l2 distance between {pair} overflows float64") from None
    return ell1, gamma


def _magnitudes(m: np.ndarray) -> list[float]:
    """The distinct nonzero ``|m_i|``, increasing."""
    return np.unique(np.abs(m[m != 0.0])).tolist()


#: Cap on the tree rows a decomposition grows; see :func:`_tree_rows`.
DECOMPOSE_MAX_ROWS = 2**20

#: Most coordinate-descent passes of the per-point refinement.
_DESCENT_PASSES = 3


def _tree_rows(m: np.ndarray, per_point: bool) -> int:
    """Tree rows a decomposition of the rows of ``m`` grows, at most.

    Each candidate split grows one tail tree of ``|T| + 1`` rows.  The sweep
    weighs ``1 +`` (distinct nonzero magnitudes) candidates; each per-point
    descent pass weighs, for every point ``i``, ``1 +`` (its distinct
    nonzero magnitudes).  Sorting each row's magnitudes counts those as the
    nonzero steps up from 0.
    """
    candidates = 1 + len(_magnitudes(m))
    if per_point:
        steps = np.diff(np.sort(np.abs(m), axis=1), axis=1, prepend=0.0)
        candidates += _DESCENT_PASSES * (len(m) + int(np.count_nonzero(steps)))
    return candidates * (len(m) + 1)


def sweep_objectives(ts: FiniteSet) -> list[SweepEntry]:
    """Evaluate the split objective at every global candidate threshold.

    Candidates are 0 and each distinct nonzero coordinate magnitude, in
    increasing order; deterministic (no randomness is involved).
    """
    grid = [0.0, *_magnitudes(ts.matrix)]
    ell1, gamma = _objectives(ts, np.array(grid)[:, None])
    return [SweepEntry(r, a, b, a + b) for r, a, b in zip(grid, ell1, gamma)]


def _refine_per_point(ts: FiniteSet, start: SweepEntry) -> tuple[tuple[float, ...], float, float]:
    """Deterministic coordinate descent over per-point threshold grids, from ``start``'s threshold.

    Each point's whole grid is evaluated at once, with the other points at
    their current thresholds; the scan over it then skips the current
    threshold and moves on a strict improvement.  Every trial differs from
    the current best only at that point, so this is the one-trial-at-a-time
    descent, stopped after ``_DESCENT_PASSES`` passes or a pass without a
    move.  Returns the thresholds with their ``ell1_sup`` and ``gamma2``.
    """
    best = [start.threshold] * len(ts)
    best_obj, parts = start.objective, (start.ell1_sup, start.gamma2_bound)
    for _ in range(_DESCENT_PASSES):
        improved = False
        for i, row in enumerate(ts.matrix):
            grid = [0.0, *_magnitudes(row)]
            trials = np.tile(best, (len(grid), 1))
            trials[:, i] = grid
            for r, a, b in zip(grid, *_objectives(ts, trials)):
                if r != best[i] and a + b < best_obj:
                    best[i], best_obj, parts = r, a + b, (a, b)
                    improved = True
        if not improved:
            break
    return tuple(best), *parts


def decompose_by_sweep(
    ts: FiniteSet,
    samples: int = DEFAULT_SAMPLES,
    seed: Seed = Seed(0),
    per_point: bool = False,
    k_constant: float = 1.0,
) -> DecompositionResult:
    """Best threshold split of ``ts``, with the measured Bernoulli supremum ``S_B(T)`` for scale.

    The global sweep is exhaustive over its candidate grid (ties resolve to
    the smallest threshold).  With ``per_point=True`` the winning global
    threshold seeds a coordinate-descent refinement in which each point may
    settle on its own magnitude grid.  The descent moves only on a strict
    improvement over the sweep's minimum, and every point's grid lies inside
    the sweep's, so it never ends on equal thresholds other than its start:
    the split's mode is ``per-point`` exactly when the descent moved.  The
    reported ``ell1_sup`` and ``gamma2_bound`` are those the sweep or the
    descent computed for the chosen split.  The reference is ``S_B(T)`` by
    :func:`~procsup.suprema.expected_sup`: enumerated within its caps,
    Monte Carlo beyond.  Before the sweep, a non-finite or negative ``k_constant``
    and a ``samples`` that :func:`~procsup.moments.check_samples` rejects
    raise :class:`ParameterError`, and tail trees of more than
    ``DECOMPOSE_MAX_ROWS = 2**20`` rows in all raise
    :class:`CapacityError`: the sweep grows ``(1 +`` distinct
    magnitudes ``)·(|T| + 1)`` rows, and ``per_point`` adds up to three
    passes of ``Σ_i (1 +`` distinct magnitudes of point ``i)·(|T| + 1)``.
    A sphere in 16 dimensions passes the cap at 256 points, 125 with
    ``per_point``.
    """
    _check_k(k_constant)
    check_samples(samples)
    rows = _tree_rows(ts.matrix, per_point)
    if rows > DECOMPOSE_MAX_ROWS:
        raise CapacityError(f"decomposition capped at {DECOMPOSE_MAX_ROWS} tail tree rows, got {rows}")
    entries = sweep_objectives(ts)
    winner = min(entries, key=lambda e: e.objective)
    thresholds, ell1_sup, gamma2 = (winner.threshold,) * len(ts), winner.ell1_sup, winner.gamma2_bound
    if per_point:
        thresholds, ell1_sup, gamma2 = _refine_per_point(ts, winner)

    reference = expected_sup(ProcessKind.BERNOULLI, ts, samples, seed)
    objective = ell1_sup + gamma2
    _, tails = split_rows(ts.matrix, thresholds)
    p_pick = choose_p(math.sqrt(_row_sums(tails * tails).max()), k_constant, reference.value)
    return DecompositionResult(
        split=SplitRule(thresholds=thresholds),
        ell1_sup=ell1_sup,
        gamma2_bound=gamma2,
        objective=objective,
        s_b_reference=reference,
        k_emp=safe_ratio(objective, reference.value),
        extras={
            "sweep": [e.to_dict() for e in entries],
            "choose_p": "inf" if p_pick == math.inf else p_pick,  # an int may exceed any float
            "k_constant": k_constant,
        },
    )


def verify_two_sided(ts: FiniteSet, result: DecompositionResult) -> ComparisonReport:
    """Both directions of the split comparison: objective vs measured supremum."""
    s_b = result.s_b_reference.value
    return ComparisonReport(
        quantity="decomposition-two-sided",
        lhs_label="objective (l1 head + Gaussian tail bound)",
        rhs_label="S_B(T)",
        lhs=result.objective,
        rhs=s_b,
        ratio=result.k_emp,
        rhs_stderr=result.s_b_reference.stderr,
        extras={
            "upper_ratio_k_emp": result.k_emp,
            "lower_ratio": safe_ratio(s_b, result.objective),
            "set": ts.name,
        },
    )
