"""Trimmed-distance contraction condition between a set and its image.

For points ``s, t`` write ``trim2(t - s, p)`` for the squared l2 norm of
``t - s`` after deleting its ``p`` largest absolute coordinates.  A map
``phi`` applied coordinatewise satisfies the *contraction condition* with
constant ``C >= 1`` when, for every pair of source points and every integer
``p >= 0``,

    trim2(phi(t) - phi(s), floor(C*p))  <=  C^2 * trim2(t - s, p).

The condition is monotone in ``C`` (a bigger C both deletes more image
coordinates and inflates the right-hand side), and the image term is a step
function of ``C`` with breaks at ``k/p``, so the least feasible constant has
a closed form (:func:`fit_min_C`).  Coordinatewise 1-Lipschitz maps
satisfy it with C = 1, and in that classical case the expected Bernoulli
supremum of the image is at most that of the source, with constant exactly
one — :func:`compare_suprema` reports the empirical ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FIT_CAP, FiniteSet, ProcessKind, Seed, check_integers, distinct_rows
from .errors import ParameterError, ValidationError
from .reports import ComparisonReport, record, safe_ratio
from .suprema import expected_sup

#: The largest squared pair distance whose ``C^2`` multiple stays finite for every C up to FIT_CAP.
_PROFILE_MAX = float(np.finfo(np.float64).max) / FIT_CAP**2


@dataclass(frozen=True)
class CoordinateMap:
    """A named coordinatewise map with its parameters."""

    name: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.name not in _MAP_ARITY:
            valid = ", ".join(sorted(_MAP_ARITY))
            raise ParameterError(f"unknown map {self.name!r}; expected one of: {valid}")
        lo, hi = _MAP_ARITY[self.name]
        if not lo <= len(self.params) <= hi:
            raise ParameterError(
                f"map {self.name!r} takes {lo}..{hi} params, got {len(self.params)}"
            )
        for i, x in enumerate(self.params):
            if not np.isfinite(x):
                raise ParameterError(f"param {i} must be finite, got {x!r}")
        if self.name == "clamp" and len(self.params) == 1:
            raise ParameterError("map 'clamp' takes 0 or 2 params (lo, hi), got 1")
        if self.name == "clamp" and self.params and self.params[0] > self.params[1]:
            raise ParameterError(f"clamp needs lo <= hi, got {self.params}")
        if self.name == "soft_threshold" and self.params and self.params[0] < 0:
            raise ParameterError(f"soft_threshold needs a nonnegative level, got {self.params[0]}")

    @property
    def label(self) -> str:
        if not self.params:
            return self.name
        return f"{self.name}({', '.join(repr(p) for p in self.params)})"

    def apply(self, xs: np.ndarray) -> np.ndarray:
        if self.name == "scale":
            return self.params[0] * xs
        if self.name == "clamp":
            lo, hi = self.params or (-1.0, 1.0)
            return np.clip(xs, lo, hi)
        if self.name == "abs":
            return np.abs(xs)
        level = self.params[0] if self.params else 0.5
        return np.sign(xs) * np.maximum(np.abs(xs) - level, 0.0)


_MAP_ARITY = {"scale": (1, 1), "clamp": (0, 2), "abs": (0, 0), "soft_threshold": (0, 1)}


@dataclass(frozen=True)
class MappedPair:
    """A source set, its image, and which image point each source point maps to.

    The image is duplicate-free, so maps that collapse points are recorded
    through ``correspondence`` rather than by repeating image rows.  Each
    entry must be an integer (numpy's too; a bool, float or string is
    rejected, not converted) indexing the image.
    """

    source: FiniteSet
    image: FiniteSet
    correspondence: tuple[int, ...]
    map_label: str = "custom"

    def __post_init__(self) -> None:
        if len(self.correspondence) != len(self.source):
            raise ValidationError(
                f"correspondence length {len(self.correspondence)} != source size {len(self.source)}"
            )
        for i, c in enumerate(self.correspondence):
            check_integers((c,), f"correspondence[{i}]", ValidationError)
            if not 0 <= c < len(self.image):
                raise ValidationError(f"correspondence[{i}] = {c} is not an image index")
        if self.source.dim != self.image.dim:
            raise ValidationError(
                f"coordinatewise maps preserve dimension: {self.source.dim} vs {self.image.dim}"
            )


def apply_map(ts: FiniteSet, cmap: CoordinateMap) -> MappedPair:
    """Apply a coordinatewise map to every point, deduplicating the image."""
    images = cmap.apply(ts.matrix)
    first, slot = distinct_rows(images)
    image = FiniteSet(name=f"{cmap.label}({ts.name})", points=images[first])
    return MappedPair(ts, image, correspondence=tuple(slot.tolist()), map_label=cmap.label)


@dataclass(frozen=True)
class CheckResult:
    satisfied: bool
    margin: float
    worst_pair: tuple[int, int, int]  # (source index, source index, p)


@dataclass(frozen=True)
class ContractionReport:
    """Outcome of fitting the smallest contraction constant.

    ``c_star`` is None when no constant up to the cap works; ``margin`` is
    the largest value of lhs - C^2 * rhs seen at the reported constant (so
    it is <= 0 exactly when the condition holds there).
    """

    c_star: float | None
    p_max: int
    worst_pair: tuple[int, int, int]
    margin: float
    map_label: str = "custom"
    context: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return record(self, c_star="infeasible" if self.c_star is None else self.c_star)


def _trim_profiles(diffs: np.ndarray) -> np.ndarray:
    """Squared trimmed norms of each difference row at every budget 0..dim.

    Entry ``[k, p]`` is the squared l2 norm of row ``k`` after deleting its
    ``p`` largest squared coordinates (column 0 is the full squared norm,
    column dim is 0).
    """
    sq = np.sort(diffs * diffs, axis=1)  # ascending: deleting the p largest keeps a prefix
    csum = np.concatenate([np.zeros((len(sq), 1)), np.cumsum(sq, axis=1)], axis=1)
    return csum[:, ::-1]


def _difference_rows(pair: MappedPair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Difference rows ``t_j - t_i`` of every source pair ``i < j`` and of its image pair, and the pairs."""
    src = pair.source.matrix
    img = pair.image.matrix[list(pair.correspondence)]
    i, j = np.triu_indices(len(src), k=1)
    with np.errstate(over="ignore", invalid="ignore"):
        return src[j] - src[i], img[j] - img[i], np.stack([i, j], axis=1)


class _PairTable:
    """Trim profiles of source and image difference rows; row ``k`` of each belongs to source pair ``pairs[k]``."""

    def __init__(self, src_diffs: np.ndarray, img_diffs: np.ndarray, pairs: np.ndarray):
        self.pairs = pairs
        with np.errstate(over="ignore", invalid="ignore"):
            self.src_prof = _trim_profiles(src_diffs)
            self.img_prof = _trim_profiles(img_diffs)
        for name, prof in (("source", self.src_prof), ("image", self.img_prof)):
            bad = ~(prof[:, 0] <= _PROFILE_MAX)  # column 0 is the full squared distance; NaN is bad too
            if bad.any():
                k = int(bad.argmax())
                raise ParameterError(
                    f"squared distance of {name} pair {tuple(self.pairs[k].tolist())} overflows: "
                    f"{prof[k, 0]:.3g} exceeds {_PROFILE_MAX:.3g} (float64 max / FIT_CAP**2)"
                )

    def evaluate(self, c: float, p_max: int) -> CheckResult:
        if not len(self.pairs):  # single-point source: nothing to check
            return CheckResult(satisfied=True, margin=0.0, worst_pair=(0, 0, 0))
        dim = self.src_prof.shape[1] - 1
        # Orders above dim repeat the gap 0 of order dim, so they never
        # change the first maximum.
        p = np.arange(min(p_max, dim) + 1)
        # From C = dim on, every p >= 1 deletes all image coordinates; clipping
        # C there keeps C*p castable to an index.
        budget = np.minimum(np.floor(min(c, dim) * p).astype(np.intp), dim)
        rhs = self.src_prof[:, p]  # a copy
        with np.errstate(over="ignore"):  # C^2 * S may be inf for a huge C: it is its value
            np.multiply(c * c, rhs, out=rhs, where=rhs > 0.0)  # C^2 * 0 is 0, even when C^2 is inf
        gap = self.img_prof[:, budget] - rhs
        k, at = divmod(int(np.argmax(gap)), p.size)  # first maximum, pair-major
        margin = float(gap[k, at])
        i, j = self.pairs[k].tolist()
        return CheckResult(satisfied=margin <= 0.0, margin=margin, worst_pair=(i, j, at))

    def least_constant(self, p_max: int) -> float:
        """The least ``C >= 1`` meeting every order up to ``p_max``, up to rounding.

        At order ``p >= 1`` the image term steps down at ``C = k/p``, so a pair
        needs ``min_{k=p..dim} max(k/p, sqrt(I_k / S_p))`` with ``I_dim = 0``;
        order 0 needs ``sqrt(I_0 / S_0)``.  ``0/0`` reads as 0, and a ratio
        above ``FIT_CAP**2`` (``x/0`` included) as inf.
        """
        dim = self.src_prof.shape[1] - 1
        c = 1.0
        for p in range(min(p_max, dim) + 1):
            ks = np.arange(p, dim + 1) if p else np.zeros(1, np.intp)
            img, src = self.img_prof[:, ks], self.src_prof[:, p, None]
            ratio = np.where(img > 0.0, np.inf, 0.0)
            np.divide(img, src, out=ratio, where=(img > 0.0) & (img * FIT_CAP**-2 <= src))
            need = np.maximum(ks / max(p, 1), np.sqrt(ratio)).min(axis=1)
            c = float(np.max(need, initial=c))
        return c


def _check_order(p_max: int) -> None:
    check_integers((p_max,), "p_max")
    if p_max < 0:
        raise ParameterError(f"p_max must be >= 0, got {p_max}")


def check_condition(pair: MappedPair, c: float, p_max: int) -> CheckResult:
    """Does the contraction condition hold at constant ``c`` up to order ``p_max``?

    The verdict is strict, ``margin <= 0``; a caller that allows for
    rounding compares the returned ``margin`` with its own allowance.
    """
    if not math.isfinite(c):
        raise ParameterError(f"C must be finite, got {c}")
    if c < 1.0:
        raise ParameterError(f"the condition is defined for C >= 1, got {c}")
    _check_order(p_max)
    return _PairTable(*_difference_rows(pair)).evaluate(c, p_max)


def _least_accepted(table: _PairTable, c: float, p_max: int) -> float | None:
    """The least float in ``[1, FIT_CAP]`` that ``table`` accepts, or None if none is.

    Nonnegative floats order like their bit patterns, so the search steps
    1, 2, 4, ... ulps away from the start ``c`` until it brackets the
    answer, then halves the bracket.  From the closed form that is two or three
    evaluations; subnormal profiles, whose products round coarsely, take more.
    """
    def ok(i: int) -> bool:  # below 1 counts as rejected, above FIT_CAP as accepted
        return i >= hi or (i > lo and table.evaluate(np.int64(i).view(np.float64), p_max).satisfied)

    one, cap, start = np.array([1.0, FIT_CAP, c]).view(np.int64).tolist()
    lo, hi = one - 1, cap + 1
    good, step = min(start, hi), 1
    bad = good - 1
    while not ok(good):
        bad, good, step = good, good + step, 2 * step
    while ok(bad):
        bad, good, step = bad - step, bad, 2 * step
    while good - bad > 1:
        mid = (bad + good) // 2
        bad, good = (bad, mid) if ok(mid) else (mid, good)
    return None if good >= hi else float(np.int64(good).view(np.float64))


def _fit(table: _PairTable, p_max: int, map_label: str) -> ContractionReport:
    """The least constant ``table`` accepts up to order ``p_max``, reported at itself or, if none is, at ``FIT_CAP``."""
    c = _least_accepted(table, table.least_constant(p_max), p_max)
    at = table.evaluate(FIT_CAP if c is None else c, p_max)
    return ContractionReport(c, p_max, at.worst_pair, at.margin, map_label)


def fit_min_C(pair: MappedPair, p_max: int | None = None) -> ContractionReport:
    """Least ``C`` satisfying the condition, in closed form.

    :meth:`_PairTable.least_constant` is exact up to rounding; the search
    that starts there reports the least float :meth:`_PairTable.evaluate`
    accepts, so it passes :func:`check_condition` and the float below it
    (when above 1) does not.  If no float up to ``FIT_CAP`` is accepted, the
    pair is reported infeasible, with the margin at ``FIT_CAP``.
    """
    if p_max is None:
        p_max = pair.source.dim
    _check_order(p_max)
    return _fit(_PairTable(*_difference_rows(pair)), p_max, pair.map_label)


def compare_suprema(
    pair: MappedPair,
    samples: int = 100_000,
    seed: Seed = Seed(0),
) -> ComparisonReport:
    """Empirical ratio ``S_B(image) / S_B(source)``, exact where enumerable."""
    s_img = expected_sup(ProcessKind.BERNOULLI, pair.image, samples, seed)
    s_src = expected_sup(ProcessKind.BERNOULLI, pair.source, samples, seed)
    return ComparisonReport(
        quantity="contracted-sup-ratio",
        lhs_label=f"S_B(image) [{s_img.method.value}]",
        rhs_label=f"S_B(source) [{s_src.method.value}]",
        lhs=s_img.value,
        rhs=s_src.value,
        ratio=safe_ratio(s_img.value, s_src.value),
        lhs_stderr=s_img.stderr,
        rhs_stderr=s_src.stderr,
        extras={"map": pair.map_label, "source": pair.source.name},
    )
