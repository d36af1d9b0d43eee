"""Expected suprema of canonical processes over finite sets.

``S(T) = E sup_{t in T} X_t`` is computed either exactly (Bernoulli case,
by enumerating all 2^d sign patterns) or by seeded Monte Carlo for either
process kind.  Both routes return a :class:`SupEstimate`, the record that
strong moments share; :func:`estimate_ratio` reports two side by side.
The enumeration is capped at dim 20 and at 2^32 sign sums ``|T| * 2^(d-1)``
(:class:`CapacityError`).  It hands :func:`~procsup.moments.signed_row_sums`
Monte Carlo's half-span ``max/2 - min/2`` as the per-pattern statistic, so
each cache-sized piece of sign sums is reduced as soon as it is built,
along its long axis: when a block holds many sign patterns per point, as
elementwise maxima and minima across contiguous pattern vectors, and
otherwise row by row.  Either way every pattern's half-span and every
block's sum of them is the same, so the value keeps its bits.

Monte Carlo is antithetic: each draw ``xi`` also stands for ``-xi``, so a
draw's sample is the half-span ``(max_t <xi, t> - min_t <xi, t>) / 2``.
``samples`` counts process evaluations, two per draw, so ``max(2,
ceil(samples / 2))`` draws are made; Gaussian draws are also rescaled to
the mean length ``E ||g||``.  At equal ``samples`` the stderr is about
the one-sided estimator's on random Bernoulli sets, 0.6 of it on a large
Gaussian sphere, and about ``sqrt(2)`` times it (Bernoulli) on a symmetric
set ``T = -T``; see :func:`mc_sup`.

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
from .core import EXACT_ENUMERATION_MAX_DIM, FiniteSet, ProcessKind, Seed
from .errors import CapacityError, ParameterError, ValidationError
from .moments import EXACT_SUP_MAX_SUMS, _norms, check_samples, enumerable, mc_mean, signed_row_sums
from .reports import ComparisonReport, safe_ratio


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
    negation, so the pair's mean is :func:`_half_span`.  Half-spans are
    summed from cache-sized pieces of sign sums, so memory stays flat.  A
    point whose l1 norm overflows float64 fails before the enumeration, and
    an overflowing total after it, each with a :class:`ParameterError`.
    """
    d = ts.dim
    if not enumerable(d, len(ts)):
        raise CapacityError(
            f"exact Bernoulli supremum needs dim <= {EXACT_ENUMERATION_MAX_DIM} and |T|*2^(d-1) <= "
            f"2^{EXACT_SUP_MAX_SUMS.bit_length() - 1} sign sums, got {len(ts)}*2^{d - 1}"
        )
    scales = _norms(ts.matrix, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(float(v.sum()) for v in signed_row_sums(ts.matrix.T, _half_span))
    if not math.isfinite(total):
        k = int(scales.argmax())
        raise ParameterError(f"the l1 norm of row {k} overflows float64 summed over 2^{d - 1} sign patterns")
    return SupEstimate(total / (1 << (d - 1)), 0.0, EstimateMethod.EXACT)


def chi_mean(d: int) -> float:
    """``c_d = E ||g||`` for a standard Gaussian ``g`` in R^d: ``sqrt(2) Gamma((d+1)/2) / Gamma(d/2)``.

    The mean of the chi distribution with d degrees of freedom, from the
    Pochhammer ratio ``Gamma(a + 1/2) / Gamma(a)`` (``scipy.special.poch``):
    a relative error below 4e-13 at every d checked from 1 to 1e8, where
    ``exp`` of a difference of ``lgamma`` values is off by 5e-10 at d = 1e6.
    """
    return math.sqrt(2.0) * float(poch(d / 2.0, 0.5))


def _half_span(ys: np.ndarray) -> np.ndarray:
    """``(max_t y_t - min_t y_t) / 2`` of every row, as ``max/2 - min/2``: finite wherever the values are."""
    top = ys.max(axis=1)
    top *= 0.5
    bottom = ys.min(axis=1)
    bottom *= 0.5
    top -= bottom
    return top


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
    with np.errstate(over="ignore", invalid="ignore"):
        mean, stderr = mc_mean(kind, gen, ts.matrix.T, pairs, _half_span, radius=radius)
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
