"""Expected suprema of canonical processes over finite sets.

``S(T) = E sup_{t in T} X_t`` is computed either exactly (Bernoulli case,
by enumerating all 2^d sign patterns) or by seeded Monte Carlo for either
process kind.  Both routes return a :class:`SupEstimate`, the record that
strong moments share; :func:`estimate_ratio` reports two side by side.
The enumeration is capped at dim 20 and at 2^32 sign sums ``|T| * 2^(d-1)``
(:class:`CapacityError`).  It hands :func:`~procsup.moments.sign_mean`
Monte Carlo's half-span ``max/2 - min/2`` as the per-pattern statistic, so
each cache-sized piece of sign sums is reduced as soon as it is built,
along its long axis: when a block holds many sign patterns per point, as
elementwise maxima and minima across contiguous pattern vectors, and
otherwise row by row.  Either way every pattern's half-span, every block's
sum of them and their total are the same, so the value keeps its bits.  On
a symmetric set ``T = -T`` only the points whose first nonzero coordinate
is positive (and the origin) are enumerated, each pattern's half-span read
as ``max |s|``, in the whole set's blocks: the same bits at half the sums.

Monte Carlo is antithetic: each draw ``xi`` also stands for ``-xi``, so a
draw's sample is the half-span ``(max_t <xi, t> - min_t <xi, t>) / 2``.
``samples`` counts process evaluations, two per draw, so ``max(2,
ceil(samples / 2))`` draws are made; Gaussian draws are also rescaled to
the mean length ``E ||g||``.  At equal ``samples`` the stderr is about
the one-sided estimator's on random Bernoulli sets, 0.6 of it on a large
Gaussian sphere, and about ``sqrt(2)`` times it (Bernoulli) on a symmetric
set ``T = -T``; see :func:`mc_sup`.  From ``SCREEN_MIN_POINTS`` (1024)
points on, each draw's extremes are found from a float32 product and only
they are computed in float64 (:class:`_ScreenedHalfSpan`), so every
per-draw value is the extreme of one fixed float64 formula, exactly, and
estimates past the gate differ from the float64 matrix product's by
float64 rounding only.

A set whose sums can leave float64 fails with a :class:`ParameterError`
naming a point, before any pattern is enumerated or any draw is made: a
point whose l1 norm (the largest ``|<eps, t>|``) overflows for the exact
supremum, or whose l2 norm overflows for Monte Carlo.  A total that still
overflows (``2^(d-1)`` half-spans of up to ``max ||t||_1``, or a Monte
Carlo variance) fails the same way once it is reached.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import poch

from . import rng
from .core import EXACT_ENUMERATION_MAX_DIM, FiniteSet, ProcessKind, Seed, distinct_rows
from .errors import CapacityError, ParameterError, ValidationError
from .moments import _BLOCK_BYTES, EXACT_SUP_MAX_SUMS, _norms, check_samples, enumerable, mc_mean, sign_mean
from .reports import ComparisonReport, safe_ratio

#: Fewest points from which :func:`mc_sup` screens each draw's extremes in
#: float32 (:class:`_ScreenedHalfSpan`).  Best-of-five time of ``mc_sup`` at
#: ``samples=100_000`` on random spheres, screened over float64 products,
#: one BLAS thread on a 2-vCPU Xeon:
#:
#:   ======  =========  =========  =========  =========
#:   n       Gaussian   Gaussian   Gaussian   Bernoulli
#:           d = 24     d = 32     d = 50     d = 24/32/50
#:   ======  =========  =========  =========  =========
#:   64      1.28       1.24       1.27       1.91/1.82/1.90
#:   256     1.09       1.13       1.08       1.19/1.16/1.15
#:   512     1.07       1.05       1.01       1.14/1.04/0.99
#:   1024    0.99       0.92       0.84       0.95/0.89/0.87
#:   4000    0.81       0.80       0.77       0.79/0.76/0.75
#:   ======  =========  =========  =========  =========
#:
#: Below about 1 000 points the per-draw gathers and the four reductions
#: of the float32 block cost more than half a float64 product saves.
SCREEN_MIN_POINTS = 1024

_U32 = 2.0**-24
_U64 = 2.0**-53


class EstimateMethod(enum.Enum):
    EXACT = "exact"
    MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class SupEstimate:
    """An expected supremum or strong moment: exact (no stderr, no samples) or Monte Carlo."""

    value: float
    stderr: float
    method: EstimateMethod
    samples: int = 0

    def __post_init__(self) -> None:
        if self.method is EstimateMethod.EXACT and (self.stderr != 0.0 or self.samples != 0):
            raise ValidationError("exact estimates carry no stderr or sample count")
        if self.stderr < 0.0:
            raise ValidationError(f"stderr must be nonnegative, got {self.stderr}")


def brute_force_bernoulli_sup(ts: FiniteSet) -> SupEstimate:
    """Exact ``E max_{t in T} <eps, t>`` by averaging over all sign patterns.

    Capped at dim <= 20 and at ``|T| * 2^(d-1) <= EXACT_SUP_MAX_SUMS`` sign
    sums by :func:`~procsup.moments.enumerable`; past either cap one
    :class:`CapacityError` naming both is raised before any work.  Only the
    patterns with ``eps_0 = +1`` are enumerated: each also stands for its
    negation, so the pair's mean is :func:`_half_span`, averaged by
    :func:`~procsup.moments.sign_mean` from cache-sized pieces of sign sums,
    so memory stays flat.  A point whose l1 norm overflows float64 fails
    before the enumeration, and an overflowing total after it, each with a
    :class:`ParameterError`.
    """
    d = ts.dim
    if not enumerable(d, len(ts)):
        raise CapacityError(
            f"exact Bernoulli supremum needs dim <= {EXACT_ENUMERATION_MAX_DIM} and |T|*2^(d-1) <= "
            f"2^{EXACT_SUP_MAX_SUMS.bit_length() - 1} sign sums, got {len(ts)}*2^{d - 1}"
        )
    scales = _norms(ts.matrix, 1)
    half = _symmetric_half(ts.matrix)
    if half is None:
        mean = sign_mean(ts.matrix.T, _half_span)
    else:
        mean = sign_mean(ts.matrix[half].T, _symmetric_half_span, block_columns=len(ts))
    if not math.isfinite(mean):
        k = int(scales.argmax())
        raise ParameterError(f"the l1 norm of row {k} overflows float64 summed over 2^{d - 1} sign patterns")
    return SupEstimate(mean, 0.0, EstimateMethod.EXACT)


def chi_mean(d: int) -> float:
    """``c_d = E ||g||`` for a standard Gaussian ``g`` in R^d: ``sqrt(2) Gamma((d+1)/2) / Gamma(d/2)``.

    The mean of the chi distribution with d degrees of freedom, from the
    Pochhammer ratio ``Gamma(a + 1/2) / Gamma(a)`` (``scipy.special.poch``):
    a relative error below 4e-13 at every d checked from 1 to 1e8, where
    ``exp`` of a difference of ``lgamma`` values is off by 5e-10 at d = 1e6.
    """
    return math.sqrt(2.0) * float(poch(d / 2.0, 0.5))


def _halved_span(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """``top/2 - bottom/2``, in place in ``top``: finite wherever both are."""
    top *= 0.5
    bottom *= 0.5
    top -= bottom
    return top


def _half_span(ys: np.ndarray) -> np.ndarray:
    """``(max_t y_t - min_t y_t) / 2`` of every row, as ``max/2 - min/2``: finite wherever the values are."""
    return _halved_span(ys.max(axis=1), ys.min(axis=1))


def _symmetric_half(m: np.ndarray) -> np.ndarray | None:
    """The rows of ``m`` whose first nonzero coordinate is positive, and a zero row, if ``m`` equals ``-m`` as a set.

    ``None`` otherwise, and for a half of one row: numpy multiplies a matrix
    by one column through BLAS gemv, not gemm, whose sums may round
    differently from those of the whole set.  The rows of ``m`` are
    distinct, so ``m = -m`` exactly when the negated rows that lead with a
    negative coordinate are those that lead with a positive one.
    """
    lead = m[np.arange(len(m)), (m != 0.0).argmax(axis=1)]
    up, down = m[lead > 0.0], -m[lead < 0.0]
    if len(m) < 3 or len(up) != len(down) or len(distinct_rows(np.vstack([up, down]))[0]) != len(up):
        return None
    return np.flatnonzero(lead >= 0.0)


def _symmetric_half_span(ys: np.ndarray) -> np.ndarray:
    """:func:`_half_span` of the sums of ``{+-t}`` from those of ``t`` alone: ``max |y|`` halved, then doubled.

    The full set's maximum is ``a = max |y|`` and its minimum ``-a``, so its
    half-span ``a/2 - (-a)/2`` is ``a/2 + a/2``, bit for bit, even where
    halving a subnormal ``a`` rounds.
    """
    top = np.abs(ys).max(axis=1)
    top *= 0.5
    top += top
    return top


def _gamma(n: int, u: float) -> float:
    """Higham's ``gamma_n = n u / (1 - n u)``, which bounds the relative error of an n-term dot product."""
    return n * u / (1.0 - n * u)


class _ScreenedHalfSpan:
    """Each draw's half-span over the rows of ``t``, its extremes found in float32 and evaluated in float64.

    A draw's value at row ``t_j`` is the float64 formula ``f_j = (x *
    t_j).sum()``, numpy's elementwise product and pairwise row sum, whose
    bits depend neither on memory alignment nor on how many rows are
    evaluated at once.  The statistic is ``max_j f_j / 2 - min_j f_j / 2``,
    both extremes over every row, bit for bit; only a few ``f_j`` are
    evaluated per draw.

    *Screening.*  ``t`` is scaled once by the power of two ``s = 2^-e``
    that brings ``max |t_jk|`` into ``[1/2, 1)``, so float32 cannot
    overflow, and kept as float32 ``t'``.  Each chunk of draws is cast to
    float32 and multiplied by it: ``p = x32 @ t'^T``, one float32 product
    at half the cost of the float64 one.  Per draw, the argmax of ``p`` and
    the runner-up (``max`` again with the winner masked) are found, and the
    same for the minimum.  When the runner-up lies beyond the slack below,
    the winner alone is evaluated; otherwise every row within the slack is
    (about 5e-4 of the draws on a Gaussian 4000 x 50 sphere), all such
    draws of a chunk at once.

    *The slack.*  With ``u32 = 2^-24``, ``u64 = 2^-53``, Higham's ``gamma(n)
    = n u / (1 - n u)`` (the bound on an n-term dot product's relative
    rounding error, in any summation order, with or without FMA; Higham,
    *Accuracy and Stability of Numerical Algorithms*, Thm 3.5) and ``M =
    max_j ||t_j||``:

    * ``p_j`` is within ``E32 = gamma32(d+2) ||x|| s M + 2^-146 d (1 +
      ||x||)`` of the exact ``s <x, t_j>``: the two input roundings and the
      ``d``-term dot product are relative to ``sum_k |x_k t'_jk| <= ||x||
      s M`` (Cauchy-Schwarz), and float32 underflow adds at most ``2^-149``
      per rounding, with ``|t'_jk| < 1`` and ``||x||_1 <= d ||x||``;
    * ``s f_j`` is within ``E64 = s gamma64(d) ||x|| M + s d 2^-1074`` of
      it, the last term float64 underflow.

    The slack is ``2 (gamma32(d+3) ||x|| s M + s gamma64(d) ||x|| M) +
    2^-145 d (1 + ||x||) + s d 2^-1073``, at least ``2 (E32 + E64)``.  A row
    whose ``p_j`` is more than the slack below the top ``p_i`` then has ``s
    f_j < p_j + E32 + E64 < p_i - E32 - E64 <= s f_i``: it does not hold the
    maximum, so the maximum of ``f`` over the rows within the slack is the
    maximum over all rows.  The minimum is the mirror image.  The spare
    unit in ``gamma32(d+3)`` covers the float64 rounding of the norms and
    of the slack while ``(d+3) u32 <= 1/2`` (``s M`` is taken from the
    scaled rows, where it is at least 1/2, so squares that underflow move
    it by at most ``d 2^-1074``); past that the slack is infinite.  Each bound ``p_i -+ slack`` is rounded to float32 and moved
    one float32 step outward, so every comparison with ``p`` is exact.

    On sets whose values tie exactly, such as 0/1 points under Bernoulli
    draws, most draws evaluate several rows and the route is slower than
    the float64 product (2 048 points of ``{0, 1}^32`` at 20 000 samples:
    0.18 s against 0.06 s).
    """

    def __init__(self, t: np.ndarray) -> None:
        d = t.shape[1]
        self.t = t
        e = math.frexp(float(np.abs(t).max()))[1]
        scaled = np.ldexp(t, -e)
        self.t32 = scaled.astype(np.float32)
        if (d + 3) * _U32 <= 0.5:
            # s M from the scaled rows, whose squares do not underflow where it matters
            top_norm = float(np.sqrt(np.vecdot(scaled, scaled)).max())
            self.relative = 2.0 * top_norm * (_gamma(d + 3, _U32) + _gamma(d, _U64))
        else:
            self.relative = math.inf
        self.absolute = d * (2.0**-145 + math.ldexp(1.0, -e - 1073))

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        return _halved_span(*self.extremes(xs))

    def extremes(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``max_j f_j`` and ``min_j f_j`` of each draw, a row of ``xs``."""
        p = xs.astype(np.float32) @ self.t32.T
        norms = np.sqrt(np.vecdot(xs, xs))
        slack = self.relative * norms + self.absolute * (1.0 + norms)
        top = self._extreme(xs, p, -slack, np.argmax, np.maximum, np.greater_equal, -np.inf)
        bottom = self._extreme(xs, p, slack, np.argmin, np.minimum, np.less_equal, np.inf)
        return top, bottom

    def _extreme(self, xs, p, slack, pick, reduce, within, away) -> np.ndarray:
        """``reduce`` of ``f_j`` over every row, per draw, evaluated at the rows of ``p`` ``within`` the slack.

        The bound is the float32 edge plus the signed ``slack``, rounded
        ``away`` from it, so no row that might hold the extreme is left out.
        """
        draws = np.arange(len(p))
        best = pick(p, axis=1)
        edge = p[draws, best]
        bound = np.nextafter((edge + slack).astype(np.float32), np.float32(away))
        p[draws, best] = away
        near = np.flatnonzero(within(reduce.reduce(p, axis=1), bound))
        p[draws, best] = edge
        values = (xs * self.t[best]).sum(axis=1)
        # draws a group at a time and their (draw, row) pairs a piece at a time, so
        # that even a set whose rows all tie stays within the block budget
        group = max(1, _BLOCK_BYTES // (32 * p.shape[1]))
        piece = max(1, _BLOCK_BYTES // (32 * xs.shape[1]))
        for lo in range(0, near.size, group):
            tied = near[lo : lo + group]
            close = within(p[tied], bound[tied, None])
            at, rows = np.nonzero(close)
            found = np.empty(len(at))
            for start in range(0, len(at), piece):
                part = slice(start, start + piece)
                found[part] = (xs[tied[at[part]]] * self.t[rows[part]]).sum(axis=1)
            firsts = np.concatenate(([0], np.cumsum(close.sum(axis=1))[:-1]))
            values[tied] = reduce.reduceat(found, firsts)
        return values


def mc_sup(kind: ProcessKind, ts: FiniteSet, samples: int, seed: Seed) -> SupEstimate:
    """Monte Carlo estimate of ``E sup_{t in T} X_t`` with its stderr.

    Antithetic: each draw ``xi`` also stands for ``-xi``, which has the same
    law, so one draw gives the two process evaluations ``max_t <xi, t>`` and
    ``max_t <-xi, t> = -min_t <xi, t>`` and its sample is their mean, the
    half-span ``(max_t <xi, t> - min_t <xi, t>) / 2``.  ``samples`` counts
    process evaluations, as the one-sided estimator's draws did, and is the
    ``samples`` the estimate reports; ``max(2, ceil(samples / 2))`` draws
    are made.  A Gaussian draw is also conditioned on its radius: ``||g||``
    is independent of ``g / ||g||`` and the half-span is 1-homogeneous, so
    each draw is rescaled to the length ``c_d = E ||g||`` (:func:`chi_mean`)
    without bias.  A Bernoulli draw already has length ``sqrt(d)``.

    The stderr comes from the spread of the per-draw samples, so it stays
    honest.  It falls most where ``max`` and ``-min`` disagree.  On a
    symmetric set (``T = -T``) the two halves are equal, the pair carries
    one evaluation's information, and the stderr at equal ``samples`` is
    about ``sqrt(2)`` times the one-sided estimator's for the Bernoulli
    process (1.06-1.19 times for the Gaussian one, where the radius
    conditioning recovers some).  Half as many draws are made, but each
    costs more than half a one-sided draw: on three 32 x 6 sup-norm systems
    (12-point symmetric sets, ``samples=100_000``) the antithetic estimate
    took 0.65 times the one-sided estimator's time with 2.0 times its
    variance, about 1.3 times its cost per unit of variance.

    From ``SCREEN_MIN_POINTS`` points on, where it measured faster, each
    draw's maximum and minimum are found from a float32 product and only
    they are evaluated in float64, by :class:`_ScreenedHalfSpan`: each
    per-draw value is then the extreme of the float64 formula ``(xi *
    t).sum()`` over every point, exactly, where below the gate it is the
    extreme of the float64 matrix product ``xi @ T^T``.  The two differ by
    float64 rounding only, so an estimate past the gate moved by that much
    when the route came in: on ten 4000 x 50 spheres under both processes
    at ``samples=100_000``, 19 of the 20 values kept their bits and one
    moved by 1.3e-16 relative.

    Bitwise deterministic for fixed inputs: the draw stream is keyed by the
    seed together with a content hash of ``(kind, T)``.  Draws are made in
    chunks sized so that each chunk's draws and ``chunk x |T|`` block of
    process values stay within a fixed byte budget, whatever ``|T|``.  A
    point whose l2 norm overflows float64 fails before the draws, and a
    mean or stderr that overflows fails after them, each with a
    :class:`ParameterError`.
    """
    check_samples(samples)
    scales = _norms(ts.matrix, 2)
    gen = rng.content_stream(seed.value, "mc-sup", ts.matrix, kind.value)
    radius = chi_mean(ts.dim) if kind is ProcessKind.GAUSSIAN else None
    pairs = max(2, -(-samples // 2))
    screened = len(ts) >= SCREEN_MIN_POINTS
    statistic = _ScreenedHalfSpan(ts.matrix) if screened else _half_span
    with np.errstate(over="ignore", invalid="ignore"):
        mean, stderr = mc_mean(kind, gen, ts.matrix.T, pairs, statistic, radius=radius, of_draws=screened)
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        k = int(scales.argmax())
        raise ParameterError(f"the l2 norm of row {k} overflows float64 in the Monte Carlo variance")
    return SupEstimate(float(mean), float(stderr), EstimateMethod.MONTE_CARLO, samples)


def expected_sup(kind: ProcessKind, ts: FiniteSet, samples: int, seed: Seed, exact: bool = False) -> SupEstimate:
    """``E sup_{t in T} X_t`` by the route every caller shares.

    Bernoulli suprema are enumerated within both of
    :func:`brute_force_bernoulli_sup`'s caps, ``dim <=
    EXACT_ENUMERATION_MAX_DIM`` and ``|T| * 2^(d-1) <= EXACT_SUP_MAX_SUMS``
    sign sums (:func:`~procsup.moments.enumerable`), and estimated by Monte
    Carlo above either; Gaussian suprema are always Monte Carlo.
    ``exact=True`` demands enumeration: it raises
    :class:`ParameterError` for the Gaussian process and
    :class:`CapacityError` above either cap.  ``samples`` is checked
    first (:func:`~procsup.moments.check_samples`), whichever route runs.
    """
    check_samples(samples)
    if exact and kind is ProcessKind.GAUSSIAN:
        raise ParameterError("no exact supremum oracle for the Gaussian process")
    if kind is ProcessKind.BERNOULLI and (exact or enumerable(ts.dim, len(ts))):
        return brute_force_bernoulli_sup(ts)
    return mc_sup(kind, ts, samples, seed)


def estimate_ratio(quantity: str, lhs_label: str, lhs: SupEstimate, rhs_label: str, rhs: SupEstimate,
                   extras: dict) -> ComparisonReport:
    """The report of ``lhs / rhs``: each label tagged `` [method]``, each side with its stderr."""
    return ComparisonReport(
        quantity=quantity,
        lhs_label=f"{lhs_label} [{lhs.method.value}]",
        rhs_label=f"{rhs_label} [{rhs.method.value}]",
        lhs=lhs.value,
        rhs=rhs.value,
        ratio=safe_ratio(lhs.value, rhs.value),
        lhs_stderr=lhs.stderr,
        rhs_stderr=rhs.stderr,
        extras=extras,
    )
