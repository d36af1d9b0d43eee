"""Expected suprema of canonical processes over finite sets.

``S(T) = E sup_{t in T} X_t`` is computed either exactly (Bernoulli case,
by enumerating all 2^d sign patterns) or by seeded Monte Carlo for either
process kind.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import rng
from .core import EXACT_ENUMERATION_MAX_DIM, FiniteSet, ProcessKind, Seed
from .errors import CapacityError, ParameterError, ValidationError
from .moments import mc_mean, signed_row_sums


class EstimateMethod(enum.Enum):
    EXACT = "exact"
    MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class SupEstimate:
    value: float
    stderr: float
    method: EstimateMethod
    samples: int = 0
    seed: Seed | None = None

    def __post_init__(self) -> None:
        if self.method is EstimateMethod.EXACT and (self.stderr != 0.0 or self.samples != 0):
            raise ValidationError("exact estimates carry no stderr or sample count")
        if self.stderr < 0.0:
            raise ValidationError(f"stderr must be nonnegative, got {self.stderr}")


def brute_force_bernoulli_sup(ts: FiniteSet) -> SupEstimate:
    """Exact ``E max_{t in T} <eps, t>`` by averaging over all sign patterns.

    Capped at dim <= 20.  Only the patterns with ``eps_0 = +1`` are
    enumerated: each stands for itself and its negation, whose maximum is
    minus its minimum.  The enumeration runs in fixed-size blocks, so
    memory stays flat regardless of dimension.
    """
    d = ts.dim
    if d > EXACT_ENUMERATION_MAX_DIM:
        raise CapacityError(f"exact Bernoulli supremum needs dim <= {EXACT_ENUMERATION_MAX_DIM}, got {d}")
    total = sum(float((s.max(axis=1) - s.min(axis=1)).sum()) for s in signed_row_sums(ts.matrix.T))
    return SupEstimate(value=total / (1 << d), stderr=0.0, method=EstimateMethod.EXACT)


def mc_sup(kind: ProcessKind, ts: FiniteSet, samples: int, seed: Seed) -> SupEstimate:
    """Monte Carlo estimate of ``E sup_{t in T} X_t`` with its stderr.

    Bitwise deterministic for fixed inputs: the draw stream is keyed by the
    seed together with a content hash of ``(kind, T)``.  Samples are drawn
    in chunks sized so that each ``chunk x |T|`` block of process values
    stays within a fixed byte budget, whatever ``|T|``.
    """
    if samples < 2:
        raise ParameterError(f"mc_sup needs samples >= 2, got {samples}")
    gen = rng.content_stream(seed.value, "mc-sup", ts.matrix, kind.value)
    mean, stderr = mc_mean(kind, gen, ts.matrix.T, samples, lambda ys: ys.max(axis=1))
    return SupEstimate(
        value=float(mean),
        stderr=float(stderr),
        method=EstimateMethod.MONTE_CARLO,
        samples=samples,
        seed=seed,
    )


def expected_sup(kind: ProcessKind, ts: FiniteSet, samples: int, seed: Seed, exact: bool = False) -> SupEstimate:
    """``E sup_{t in T} X_t`` by the route every caller shares.

    Bernoulli suprema are enumerated up to ``dim <= EXACT_ENUMERATION_MAX_DIM``
    and estimated by Monte Carlo above it; Gaussian suprema are always Monte
    Carlo.  ``exact=True`` demands enumeration: it raises
    :class:`ParameterError` for the Gaussian process and
    :class:`CapacityError` above the dimension cap.
    """
    if exact and kind is ProcessKind.GAUSSIAN:
        raise ParameterError("no exact supremum oracle for the Gaussian process")
    if kind is ProcessKind.BERNOULLI and (exact or ts.dim <= EXACT_ENUMERATION_MAX_DIM):
        return brute_force_bernoulli_sup(ts)
    return mc_sup(kind, ts, samples, seed)
