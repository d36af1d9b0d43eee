"""Weak versus strong moment dominance for Bernoulli series in normed spaces.

Given two finite systems of vectors ``x_1..x_n`` and ``y_1..y_n`` in R^m
(under the sup or euclidean norm), compare the random series
``sum_i eps_i x_i`` and ``sum_i eps_i y_i`` three ways:

* *weak moments*: for functionals ``w`` in the dual unit ball, the ratio of
  ``||sum_i eps_i <w, x_i>||_p`` to the same with ``y``, maximised over a
  sampled family of functionals and a grid of moment orders;
* the *trimmed contraction condition* between the coefficient vectors
  ``(<w, x_i>)_i`` and ``(<w, y_i>)_i``, fitted per functional;
* *strong moments*: the ratio of ``E || sum_i eps_i x_i ||`` to the same
  with ``y``, each a supremum over the dual unit ball and so a
  :class:`~procsup.suprema.SupEstimate`: under the sup norm the Bernoulli
  supremum over the terms' coordinate columns and their negations, by
  :func:`~procsup.suprema.expected_sup`; under the euclidean norm exact
  within :func:`~procsup.moments.enumerable`, Monte Carlo beyond it.

Functional samples for the sup norm live in the l1 dual ball (the signed
basis vectors, which witness every sup, plus random convex combinations);
for the euclidean norm they are uniform points of the unit sphere.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import rng
from .core import (
    EXACT_ENUMERATION_MAX_DIM,
    SET_FORMAT,
    SYSTEM_FORMAT,
    FiniteSet,
    ProcessKind,
    Seed,
    check_count,
    content_digest,
    distinct_rows,
    point_matrix,
    read_points_file,
    write_points_file,
)
from .errors import ParameterError, ParseError, ValidationError
from .contraction import ContractionReport, _PairTable, _fit
from .moments import (DEFAULT_SAMPLES, _norms, bernoulli_exact_norms, check_samples, enumerable, mc_mean,
                      proxy_norms, sign_mean)
from .reports import ComparisonReport, safe_ratio
from .suprema import EstimateMethod, SupEstimate, estimate_ratio, expected_sup

_DUAL_SLACK = 1e-12

#: The euclidean norm of each row, the strong moment's per-pattern statistic.
_euclidean_norms = functools.partial(np.linalg.norm, axis=-1)


class NormKind(enum.Enum):
    SUP = "sup"
    EUCLIDEAN = "euclidean"


class VectorSystem:
    """The terms ``x_1..x_n`` of a random series, plus the ambient norm.

    ``vectors`` (an array or coordinate sequences) become ``matrix``,
    validated as a set's but with repeats allowed.
    """

    def __init__(self, name: str, vectors, norm: NormKind) -> None:
        self.name = name
        self.norm = norm
        self.matrix = point_matrix(vectors, f"system {name!r}", "vector")

    @property
    def terms(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def content_hash(self) -> str:
        return content_digest(norm=self.norm.value, vectors=self.matrix)


def save_vector_system(system: VectorSystem, path: str | Path) -> None:
    write_points_file(path, SYSTEM_FORMAT, system.name, system.matrix, norm=system.norm.value)


def load_vector_system(path: str | Path, norm: NormKind | None = None) -> VectorSystem:
    """Read a vector-system file or, given ``norm``, also a finite-set file, which takes ``norm``.

    A vector-system file's tag is its norm; a given ``norm`` must equal it,
    or a :class:`ParameterError` names the file, the tag and ``norm``.
    """
    formats = (SYSTEM_FORMAT,) if norm is None else (SYSTEM_FORMAT, SET_FORMAT)
    doc, name, matrix = read_points_file(path, formats)
    if doc["format"] == SYSTEM_FORMAT:
        try:
            tag = NormKind(doc.get("norm"))
        except ValueError:
            raise ParseError(f"{path}: unknown norm {doc.get('norm')!r}") from None
        if norm not in (None, tag):
            raise ParameterError(f"{path}: vector system tagged {tag.value}, but the {norm.value} norm was requested")
        norm = tag
    return VectorSystem(name=name, vectors=matrix, norm=norm)


class FunctionalSample:
    """Functionals from the dual unit ball used to probe weak moments.

    ``functionals`` (an array or coordinate sequences) become ``matrix``,
    one validated, read-only ``(m, d)`` float64 array with a functional
    per row, each of dual norm at most 1.
    """

    def __init__(self, functionals, norm: NormKind) -> None:
        self.matrix = point_matrix(functionals, "functional sample", "functional")
        self.norm = norm
        duals = np.abs(self.matrix).sum(axis=1) if norm is NormKind.SUP else np.linalg.norm(self.matrix, axis=1)
        over = duals > 1.0 + _DUAL_SLACK
        if over.any():
            i = int(over.argmax())
            raise ValidationError(f"functional {i} has dual norm {float(duals[i])} > 1")

    def __len__(self) -> int:
        return self.matrix.shape[0]


def generate_functionals(norm: NormKind, dim: int, extra: int, seed: Seed) -> FunctionalSample:
    """The 2*dim signed basis functionals plus ``extra`` random dual-ball points.

    For the sup norm the signed basis functionals are the extreme points
    that witness every supremum; the random extras are convex combinations
    of them (uniform simplex weights with independent signs).  For the
    euclidean norm the extras are uniform on the unit sphere.
    """
    check_count(dim, "dim", 1)
    check_count(extra, "extra", 0)
    eye = np.eye(dim)  # one matrix: a row view of a fresh one per row would keep dim of them alive
    rows = [row for j in range(dim) for row in (eye[j], -eye[j])]
    for i in range(extra):
        gen = rng.stream(seed.value, f"functionals:{norm.value}", index=i)
        if norm is NormKind.SUP:
            weights = -np.log(rng.uniform_open(gen, dim))
            weights /= weights.sum()
            rows.append(weights * rng.rademacher(gen, dim))
        else:
            g = rng.standard_normal(gen, dim)
            rows.append(g / np.linalg.norm(g))
    return FunctionalSample(functionals=rows, norm=norm)


def _check_sysmatch(x_sys: VectorSystem, y_sys: VectorSystem, funcs: FunctionalSample) -> None:
    if x_sys.terms != y_sys.terms:
        raise ParameterError(f"systems have {x_sys.terms} vs {y_sys.terms} terms")
    if x_sys.dim != y_sys.dim:
        raise ParameterError(f"systems have ambient dims {x_sys.dim} vs {y_sys.dim}")
    if x_sys.norm is not y_sys.norm:
        raise ParameterError("systems must share one ambient norm")
    if funcs.norm is not x_sys.norm:
        raise ParameterError("functional sample was drawn for a different norm")
    if funcs.matrix.shape[1] != x_sys.dim:
        raise ParameterError("functionals do not match the ambient dimension")


def _coefficient_rows(x_sys: VectorSystem, y_sys: VectorSystem, funcs: FunctionalSample) -> np.ndarray:
    """The coefficient vectors of every functional: rows ``2k`` and ``2k + 1`` are ``<w_k, X>`` and ``<w_k, Y>``.

    A coefficient that overflows float64 is a :class:`ParameterError`
    naming the functional and the system.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.stack([m @ w for w in funcs.matrix for m in (x_sys.matrix, y_sys.matrix)])
    overflows = ~np.isfinite(coeffs).all(axis=1)
    if overflows.any():
        k, side = divmod(int(overflows.argmax()), 2)
        name = (x_sys, y_sys)[side].name
        raise ParameterError(f"coefficient <w_{k}, {'XY'[side]}> of system {name!r} overflows float64")
    return coeffs


@dataclass(frozen=True)
class WeakMomentResult:
    """The largest weak-moment ratio over all sampled functionals and orders."""

    value: float
    worst_functional: int
    worst_p: int
    lhs: float
    rhs: float


def weak_moment_constant(
    x_sys: VectorSystem,
    y_sys: VectorSystem,
    funcs: FunctionalSample,
    p_max: int = 8,
) -> WeakMomentResult:
    """max over functionals w and p <= p_max of ||<w,X>||_p / ||<w,Y>||_p.

    Pairs where both norms vanish are skipped (they impose no constraint);
    a positive numerator over a zero denominator reports ``inf``.  The
    coefficient vectors ``<w, X>`` and ``<w, Y>`` of every functional are
    stacked and deduplicated up to sign (``c`` and ``-c`` have the same
    norms, bit for bit, so ``+e_j`` and ``-e_j`` share one), then evaluated
    at all orders in one call: exactly up to the term-count cap
    (:func:`bernoulli_exact_norms`, so ``p_max <= 1024`` there), by the
    proxy beyond it.  A coefficient that overflows float64 is a
    :class:`ParameterError` naming the functional and the system, raised
    before any norm is taken.
    """
    _check_sysmatch(x_sys, y_sys, funcs)
    check_count(p_max, "p_max", 1)
    orders = range(1, p_max + 1)
    coeffs = _coefficient_rows(x_sys, y_sys, funcs)
    # the dedup key makes each row's first nonzero positive
    lead = coeffs[np.arange(len(coeffs)), (coeffs != 0.0).argmax(axis=1)]
    first, slot = distinct_rows(np.where(lead[:, None] < 0.0, -coeffs, coeffs))
    if x_sys.terms <= EXACT_ENUMERATION_MAX_DIM:
        table = bernoulli_exact_norms(coeffs[first], orders)
    else:
        table = np.stack([proxy_norms(coeffs[first], p)[2] for p in orders], axis=1)
    norms = table[slot].tolist()
    best = WeakMomentResult(0.0, -1, 0, 0.0, 0.0)
    for k in range(len(funcs)):
        for p, num, den in zip(orders, norms[2 * k], norms[2 * k + 1]):
            if num == 0.0 and den == 0.0:
                continue
            ratio = safe_ratio(num, den)
            if ratio > best.value:
                best = WeakMomentResult(ratio, k, p, num, den)
    return best


def check_weak_contraction(
    x_sys: VectorSystem,
    y_sys: VectorSystem,
    funcs: FunctionalSample,
    p_max: int | None = None,
) -> ContractionReport:
    """Fit the trimmed contraction constant between coefficient vectors.

    For each functional ``w`` the coefficient rows ``<w,Y>`` (source) and
    ``<w,X>`` (image) are fitted as one pair's difference rows; the report
    carries the largest fitted constant and the functional that required
    it.  A zero image row has nothing to dominate (constant 1); a zero
    source row under a nonzero image fails at ``p = 0`` for every constant.
    An infeasible functional makes the whole report infeasible.  A
    coefficient that overflows float64 is a :class:`ParameterError` naming
    the functional and the system, raised before any fit.
    """
    _check_sysmatch(x_sys, y_sys, funcs)
    if p_max is None:
        p_max = x_sys.terms
    check_count(p_max, "p_max", 0)
    coeffs = _coefficient_rows(x_sys, y_sys, funcs)
    per_functional: list[float | None] = []
    worst, worst_index = None, -1
    for k, (a, b) in enumerate(zip(coeffs[0::2], coeffs[1::2])):
        if not a.any():
            per_functional.append(1.0)  # nothing to dominate
            continue
        report = _fit(_PairTable(b[None], a[None], np.array([[0, 1]])), p_max, "weak-coefficients")
        per_functional.append(report.c_star)
        if worst is None or report.c_star is None or report.c_star > worst.c_star:
            worst, worst_index = report, k
        if report.c_star is None:
            break
    if worst is None:
        # Every image coefficient vector was zero: C = 1 dominates trivially.
        worst, worst_index = ContractionReport(1.0, p_max, (0, 1, 0), 0.0, "weak-coefficients"), 0
    context = {
        "worst_functional": worst_index,
        "functional": funcs.matrix[worst_index].tolist(),
        "per_functional_c": ["infeasible" if c is None else c for c in per_functional],
    }
    return replace(worst, context=context)


def _exact_strong_moment(system: VectorSystem) -> SupEstimate:
    """Euclidean ``E ||sum_i eps_i x_i||`` over the sign patterns with ``eps_0 = +1`` (the norm is even).

    Each cache-sized piece of sign sums is reduced to norms as soon as it
    is built, row-major (numpy sums a row of squares pairwise only when it
    is contiguous), and averaged by :func:`~procsup.moments.sign_mean`.  A
    total that overflows float64 fails after the enumeration.
    """
    mean = sign_mean(system.matrix, _euclidean_norms, row_major=True)
    _check_sign_sum_norms(system, mean)
    return SupEstimate(mean, 0.0, EstimateMethod.EXACT)


def _check_sign_sum_norms(system: VectorSystem, value: float, where: str = "") -> None:
    if not math.isfinite(value):
        raise ParameterError(f"the euclidean norms of the sign sums of system {system.name!r} overflow float64{where}")


def _mc_strong_moment(system: VectorSystem, samples: int, seed: Seed) -> SupEstimate:
    """Monte Carlo euclidean ``E ||sum_i eps_i x_i||`` with its stderr.

    A mean that overflows float64 fails after the draws with the exact
    route's message, and a stderr that overflows names the Monte Carlo variance.
    """
    check_samples(samples)
    gen = rng.content_stream(seed.value, "strong-moment", system.matrix, system.norm.value)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, stderr = mc_mean(ProcessKind.BERNOULLI, gen, system.matrix, samples, _euclidean_norms)
    _check_sign_sum_norms(system, mean)
    _check_sign_sum_norms(system, stderr, " in the Monte Carlo variance")
    return SupEstimate(float(mean), float(stderr), EstimateMethod.MONTE_CARLO, samples)


def _strong_moment(system: VectorSystem, samples: int, seed: Seed) -> SupEstimate:
    """``E ||sum_i eps_i x_i||``; under the sup norm, the Bernoulli supremum over ``T = {+-v_j}``.

    Coordinate j of every sign sum is at most the l1 norm of the vectors'
    j-th coordinates, so under either norm a coordinate whose l1 norm
    overflows float64 fails first.  ``E max_j |<eps, v_j>| = E max_{t in T}
    <eps, t>`` over the coordinate columns ``v_j``, so one
    :func:`~procsup.suprema.expected_sup` call takes it; ``+ 0.0`` folds
    ``-0.0`` and each point of ``T`` is kept once.  The euclidean norm is
    enumerated where :func:`~procsup.moments.enumerable` allows, drawn beyond.
    """
    _norms(system.matrix.T, 1, "coordinate")
    if system.norm is NormKind.EUCLIDEAN:
        exact = enumerable(system.terms, system.dim)
        return _exact_strong_moment(system) if exact else _mc_strong_moment(system, samples, seed)
    columns = np.concatenate([system.matrix.T, -system.matrix.T]) + 0.0
    signed = FiniteSet(name=f"+-columns of {system.name}", points=columns[distinct_rows(columns)[0]])
    return expected_sup(ProcessKind.BERNOULLI, signed, samples, seed)


def strong_moment_ratio(x_sys: VectorSystem, y_sys: VectorSystem, samples: int = DEFAULT_SAMPLES,
                        seed: Seed = Seed(0)) -> ComparisonReport:
    """``E||sum eps x_i|| / E||sum eps y_i||``, each side by :func:`_strong_moment`.

    Once the norms match, ``samples`` is checked (:func:`~procsup.moments.check_samples`) before either moment.
    """
    if x_sys.norm is not y_sys.norm:
        raise ParameterError("systems must share one ambient norm")
    check_samples(samples)
    ex, ey = (_strong_moment(system, samples, seed) for system in (x_sys, y_sys))
    return estimate_ratio("strong-moment-ratio", "E||sum eps x||", ex, "E||sum eps y||", ey,
                          {"norm": x_sys.norm.value, "terms": x_sys.terms})
