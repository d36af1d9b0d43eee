"""Moment norms of canonical process variables.

For a coefficient vector ``t`` the Bernoulli variable ``B_t = sum_i eps_i t_i``
(independent uniform signs) and the Gaussian variable ``G_t = sum_i g_i t_i``
have p-th moment norms ``||B_t||_p`` and ``||G_t||_p``.  This module has one
route per way of computing them, and each takes a whole ``(k, d)`` matrix
of rows:

* :func:`proxy_norms`, a closed-form *proxy* for the Bernoulli norm: the
  ``p`` largest magnitudes of each row (an l1 head, one ``np.partition``)
  plus ``sqrt(p)`` times the l2 norm of the rest; within a factor 4,
* :func:`bernoulli_exact_norms` (dimension-capped): the cosh series at even
  integer orders ``2 <= p <= COSH_MAX_ORDER``, sign enumeration at others,
* :func:`gaussian_norms`, the Gamma-function formula (one ``vecdot``),
* :func:`mc_norms`, seeded Monte Carlo with delta-method standard errors.

Every route rejects a non-finite row with one :class:`ValidationError`, and
an l1 or l2 norm that overflows float64 with a :class:`ParameterError`
naming the row.  The one-vector functions (:func:`ell1_part`,
:func:`tail_l2`, :func:`bernoulli_norm_proxy`, :func:`bernoulli_norms_exact`,
:func:`gaussian_norm_exact`, :func:`mc_norm`) are one-row calls of these.

The cosh series rests on ``E B_t^p = p! [lambda^p] prod_i cosh(lambda t_i)``
for even p: a sum of nonnegative terms, so nothing cancels, that costs
``O(d p^2)`` per vector instead of ``2^(d-1)`` sign patterns.

:class:`MomentModel` lets downstream code (chaining bounds, decompositions)
pick a route through one ``norms(rows, p)`` call, which gives each row the
bits of its one-row call, except under Monte Carlo: a Monte Carlo batch,
such as one level of a chain bound, shares one draw stream keyed by the
whole batch (common random numbers), so its estimates are correlated.

Every enumerated oracle and Monte Carlo estimate in the package reduces
``sum_i xi_i m_i`` over the rows of a coefficient matrix ``m``; the two
shared engines for that live here: :func:`signed_row_sums` enumerates the
sign patterns and :func:`mc_mean` draws ``xi`` and accumulates a mean and
its standard error.  Both work in blocks of at most ``_BLOCK_BYTES``.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import rng
from .core import EXACT_ENUMERATION_MAX_DIM, Point, ProcessKind, Seed
from .errors import CapacityError, ParameterError, ValidationError

#: Byte budget of one block of sign sums or Monte Carlo products.
_BLOCK_BYTES = 8 << 20

#: Largest even order the cosh series serves.  Its recurrence needs the
#: binomials ``C(p, 2l)``, at most ``C(1024, 512) ~ 4.5e306`` here; the
#: middle binomial outgrows float64 from ``C(1030, 515)`` on.
COSH_MAX_ORDER = 1024


def rearrange(t: Point) -> Point:
    """Absolute coordinates sorted nonincreasingly (ties keep original order)."""
    a = np.abs(t.array)
    order = np.argsort(-a, kind="stable")
    return Point(a[order])


def _finite_rows(ts) -> np.ndarray:
    """``ts`` as a C-ordered ``(k, d)`` float matrix; every entry must be finite."""
    rows = np.ascontiguousarray(ts, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise ValidationError(f"increment rows must form a (k, d) matrix with d >= 1, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise ValidationError("increment rows must be finite")
    return rows


def _norms(a: np.ndarray, order: int) -> np.ndarray:
    """The l1 (``order`` 1) or l2 (``order`` 2) norm of every row of the finite matrix ``a``.

    A norm that overflows float64 is a :class:`ParameterError` naming the
    first such row: reported, or divided by, it would give inf, NaN or 0.
    """
    with np.errstate(over="ignore"):
        norms = np.abs(a).sum(axis=1) if order == 1 else np.sqrt(np.vecdot(a, a))
    if not np.isfinite(norms).all():
        k = int(np.isinf(norms).argmax())
        raise ParameterError(f"the l{order} norm of row {k} overflows float64")
    return norms


def _check_trim_count(p: int) -> int:
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool):
        raise ParameterError(f"p must be an integer, got {p!r}")
    if p < 0:
        raise ParameterError(f"p must be >= 0, got {p}")
    return int(p)


def _trimmed(rows, p) -> tuple[np.ndarray, int]:
    """``|rows|``, each row's ``p`` largest magnitudes moved to its columns ``cut:``, and ``cut``."""
    p = _check_trim_count(p)
    a = np.abs(_finite_rows(rows))
    cut = max(a.shape[1] - p, 0)
    if 0 < cut < a.shape[1]:
        a = np.partition(a, cut, axis=1)
    return a, cut


def ell1_part(t: Point, p: int) -> float:
    """Sum of the ``p`` largest absolute coordinates (all of them if p >= dim)."""
    a, cut = _trimmed(t.array[None, :], p)
    return float(_norms(a[:, cut:], 1)[0])


def tail_l2(t: Point, p: int) -> float:
    """l2 norm of what remains after deleting the ``p`` largest absolute coordinates."""
    a, cut = _trimmed(t.array[None, :], p)
    return float(_norms(a[:, :cut], 2)[0])


@dataclass(frozen=True)
class MomentDecomposition:
    """The proxy value together with its two ingredients."""

    p: int
    ell1: float
    tail: float
    value: float


def check_proxy_order(p) -> int:
    """``p`` as an int, if the proxy serves it: an integer >= 1."""
    p = _check_trim_count(p)
    if p < 1:
        raise ParameterError(f"proxy needs p >= 1, got {p}")
    return p


def proxy_norms(rows, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Bernoulli proxy of every row of the ``(k, d)`` matrix ``rows``: l1 heads, l2 tails and values.

    A row's value is its head (the sum of its ``p`` largest magnitudes) plus
    ``sqrt(p)`` times its tail (the l2 norm of the rest).  Sandwich
    guarantee: ``||B_t||_p <= value <= 4 ||B_t||_p`` for integer p >= 1.
    """
    p = check_proxy_order(p)
    a, cut = _trimmed(rows, p)
    head, tail = _norms(a[:, cut:], 1), _norms(a[:, :cut], 2)
    return head, tail, head + math.sqrt(p) * tail


def bernoulli_norm_proxy(t: Point, p: int) -> MomentDecomposition:
    """Closed-form stand-in for ``||B_t||_p``: the one-row case of :func:`proxy_norms`."""
    head, tail, value = (float(x[0]) for x in proxy_norms(t.array[None, :], p))
    return MomentDecomposition(p=int(p), ell1=head, tail=tail, value=value)


def _check_moment_order(p) -> float:
    q = float(p)
    if not math.isfinite(q) or q < 1.0:
        raise ParameterError(f"moment order must be a real >= 1, got {p!r}")
    return q


def gaussian_moment_constant(p) -> float:
    """``(E |g|^p)^(1/p)`` for a standard normal g, via the Gamma function.

    Equals sqrt(2) * (Gamma((p+1)/2) / sqrt(pi))^(1/p); e.g. sqrt(2/pi) at
    p = 1, exactly 1 at p = 2, and 3^(1/4) at p = 4.
    """
    q = _check_moment_order(p)
    return math.sqrt(2.0) * math.exp((math.lgamma((q + 1.0) / 2.0) - math.lgamma(0.5)) / q)


def gaussian_norms(rows, p) -> np.ndarray:
    """``||G_t||_p`` for every row ``t`` of ``rows``: its l2 norm times :func:`gaussian_moment_constant`."""
    return gaussian_moment_constant(p) * _norms(_finite_rows(rows), 2)


def gaussian_norm_exact(t: Point, p) -> float:
    """``||G_t||_p``: the one-row case of :func:`gaussian_norms`."""
    return float(gaussian_norms(t.array[None, :], p)[0])


def signed_row_sums(m: np.ndarray) -> Iterator[np.ndarray]:
    """Yield ``sum_i eps_i m_i`` for every sign pattern with ``eps_0 = +1``.

    ``m`` is a ``(k, n)`` coefficient matrix; the ``2^(k-1)`` sums come out
    as ``(rows, n)`` blocks of at most ``_BLOCK_BYTES``.  Each block adds
    two half-tables by broadcast: the sums over the low half of the rows
    (``eps_0`` pinned, built by doubling) and the sums over the high half
    for a run of their sign patterns.  Pinning the first sign is lossless
    for statistics invariant under a global flip; for a maximum use
    ``max(eps) + max(-eps) = max(eps) - min(eps)``.
    """
    k, n = m.shape
    rows = max(1, _BLOCK_BYTES // (8 * n))
    low_rows = min(k // 2 + 1, rows.bit_length())
    low = m[:1]
    for row in m[1:low_rows]:
        low = np.concatenate([low + row, low - row])
    high_rows = k - low_rows
    shifts = np.arange(high_rows, dtype=np.uint64)
    step = max(1, rows // len(low))
    for start in range(0, 1 << high_rows, step):
        codes = np.arange(start, min(start + step, 1 << high_rows), dtype=np.uint64)
        signs = 1.0 - 2.0 * ((codes[:, None] >> shifts) & 1).astype(np.float64)
        high = signs @ m[low_rows:]
        yield (high[:, None, :] + low[None, :, :]).reshape(-1, n)


def _is_cosh_order(q: float) -> bool:
    """Whether the cosh series serves the checked order ``q``: an even integer up to ``COSH_MAX_ORDER``."""
    return q <= COSH_MAX_ORDER and q % 2.0 == 0.0


def bernoulli_exact_route(p) -> str:
    """The route of an exact Bernoulli norm of order ``p``: ``"cosh-series"`` or ``"enumeration"``."""
    return "cosh-series" if _is_cosh_order(_check_moment_order(p)) else "enumeration"


@functools.lru_cache(maxsize=16)
def _even_binomials(half: int) -> np.ndarray:
    """Read-only ``(half + 1, half + 1)`` table of ``C(2j, 2l)`` at ``[j, l]``, zero where ``l > j``."""
    table = np.zeros((half + 1, half + 1))
    table[0, 0] = 1.0
    row = [1]
    for n in range(1, 2 * half + 1):  # Pascal's triangle in exact integers, rounded once
        row = [1, *(a + b for a, b in zip(row, row[1:])), 1]
        if n % 2 == 0:
            table[n // 2, : n // 2 + 1] = [float(c) for c in row[::2]]
    table.flags.writeable = False
    return table


def _cosh_norms(rows: np.ndarray, scales: np.ndarray, qs) -> np.ndarray:
    """``||B_t||_q`` for every row ``t`` of ``rows`` (l1 norms ``scales``) at every even order in ``qs``.

    With ``x_i = (t_i / ||t||_1)^2`` and ``M_j = E (B_t / ||t||_1)^(2j)``,
    each coordinate in turn updates ``M_j <- sum_{l <= j} C(2j, 2l) x_i^l
    M_{j-l}`` from ``M = (1, 0, ..., 0)``: the even moments of a sum with one
    more independent term.  Every term is nonnegative and every ``M_j`` is at
    most 1, so nothing cancels or overflows.  One einsum per coordinate
    updates all rows; each row's arithmetic does not depend on the others,
    so a row of a batch gets the bits of a one-row call.  The result has
    shape ``(k, len(qs))``; a zero row gives 0.
    """
    half = int(max(qs)) // 2
    binomials = _even_binomials(half)
    us = np.abs(rows) / np.where(scales > 0.0, scales, 1.0)[:, None]
    powers = 2 * np.arange(half + 1)
    # M reversed in columns 0..half, zeros after: window [r, j, l] reads M_{j-l}, or 0 when l > j.
    padded = np.zeros((len(rows), 2 * half + 1))
    padded[:, half] = 1.0
    window = sliding_window_view(padded, half + 1, axis=1)[:, ::-1]
    for u in us.T:
        padded[:, half::-1] = np.einsum("jl,rl,rjl->rj", binomials, u[:, None] ** powers, window)
    norms = np.empty((len(rows), len(qs)))
    for c, q in enumerate(qs):
        # Python floats, so one row rounds exactly as a scalar computation would.
        ms = padded[:, half - int(q) // 2].tolist()
        norms[:, c] = [scale * m ** (1.0 / q) for scale, m in zip(scales.tolist(), ms)]
    return norms


def bernoulli_exact_norms(rows, ps) -> np.ndarray:
    """``||B_t||_p`` for every row ``t`` of the ``(k, d)`` matrix ``rows`` at every order in ``ps``.

    The result has shape ``(k, len(ps))``.  Only available for d <=
    ``EXACT_ENUMERATION_MAX_DIM`` (an empty batch needs no oracle); any real
    p >= 1.  Even integer orders up to ``COSH_MAX_ORDER`` come from one
    cosh-series pass over all rows (``O(d p^2)`` per row, exact up to
    rounding).  Every other order comes from one enumeration of each
    nonzero row's ``2^(d-1)`` sign patterns, run only when such an order is
    asked for.  A value depends on neither the other rows nor the other
    orders of the call.  An l1 norm that overflows float64 is a
    :class:`ParameterError`.
    """
    rows = _finite_rows(rows)
    qs = [_check_moment_order(p) for p in ps]
    k, d = rows.shape
    if k and d > EXACT_ENUMERATION_MAX_DIM:
        raise CapacityError(f"exact Bernoulli norm needs dim <= {EXACT_ENUMERATION_MAX_DIM}, got {d}")
    scales = _norms(rows, 1)
    norms = np.zeros((k, len(qs)))
    even = [c for c, q in enumerate(qs) if _is_cosh_order(q)]
    if even:
        norms[:, even] = _cosh_norms(rows, scales, [qs[c] for c in even])
    rest = [c for c, q in enumerate(qs) if not _is_cosh_order(q)]
    for i in np.flatnonzero(scales) if rest else ():
        # The patterns do not depend on the order, so each block of sign sums
        # is scaled once and raised to each order in turn: the bits of a pass
        # per order.
        scale = float(scales[i])  # the largest |sum|, so no power overflows
        parts: list[list[float]] = [[] for _ in rest]
        for s in signed_row_sums(rows[i, :, None]):
            a = np.abs(s) / scale
            for part, c in zip(parts, rest):
                part.append(float((a ** qs[c]).sum()))
        for part, c in zip(parts, rest):
            norms[i, c] = scale * (sum(part) / (1 << (d - 1))) ** (1.0 / qs[c])
    return norms


def bernoulli_norms_exact(t: Point, ps) -> list[float]:
    """``||B_t||_p`` for every order in ``ps``: the one-row case of :func:`bernoulli_exact_norms`."""
    return bernoulli_exact_norms(t.array[None, :], ps)[0].tolist()


def bernoulli_norm_exact(t: Point, p) -> float:
    """``||B_t||_p``, exactly: :func:`bernoulli_norms_exact` for one order."""
    return bernoulli_norms_exact(t, (p,))[0]


def _draw(kind: ProcessKind, gen: np.random.Generator, size) -> np.ndarray:
    if kind is ProcessKind.BERNOULLI:
        return rng.rademacher(gen, size)
    return rng.standard_normal(gen, size)


def mc_mean(
    kind: ProcessKind,
    gen: np.random.Generator,
    m: np.ndarray,
    samples: int,
    statistic: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of ``statistic(xi @ m)`` over ``samples`` draws of ``xi``.

    ``xi`` has one coordinate per row of ``m`` and is drawn from ``gen`` in
    chunks whose rows are a multiple of 4, so the draw stream does not
    depend on the chunking (numpy packs four int8 signs per 32-bit word).
    The statistic maps a chunk of ``k`` draws to a fresh array of ``k``
    values, which this function then overwrites, or to a ``(k, c)`` block
    for ``c`` statistics of the same draws; the result has shape ``()`` or
    ``(c,)``.  Each statistic is centred on its first chunk's mean and its
    chunks are merged with the pairwise update of Chan, Golub & LeVeque,
    which keeps the variance accurate even when the mean is far larger than
    the spread.  Each column is reduced as a contiguous row, so it gets the
    same bits as a one-statistic call; the columns are transposed a group
    at a time, so the transposed copy stays within an eighth of the block
    budget.
    """
    rows = max(4, _BLOCK_BYTES // (8 * max(m.shape)) // 4 * 4)
    shift = mean = m2 = None
    count = 0
    while count < samples:
        k = min(rows, samples - count)
        block = statistic(_draw(kind, gen, (k, m.shape[0])) @ m)
        columns = block.reshape(k, -1)
        if shift is None:
            shift, mean, m2 = (np.zeros((columns.shape[1], 1)) for _ in range(3))
        total = count + k
        group = max(1, _BLOCK_BYTES // (64 * k))
        for lo in range(0, columns.shape[1], group):
            cols = slice(lo, lo + group)
            ys = np.ascontiguousarray(columns[:, cols].T)
            if count == 0:
                shift[cols] = ys.mean(axis=-1, keepdims=True)
            ys -= shift[cols]
            chunk_mean = ys.mean(axis=-1, keepdims=True)
            delta = chunk_mean - mean[cols]
            mean[cols] = mean[cols] + delta * k / total
            ys -= chunk_mean
            ys **= 2
            m2[cols] = m2[cols] + (ys.sum(axis=-1, keepdims=True) + delta * delta * count * k / total)
        count = total
    shape = block.shape[1:]
    return (shift + mean).reshape(shape), np.sqrt(m2 / (samples - 1) / samples).reshape(shape)


def mc_norms(
    kind: ProcessKind,
    rows: np.ndarray,
    p,
    samples: int,
    seed: Seed,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimates of ``||X_t||_p`` for every row ``t`` of ``rows``, with delta-method stderrs.

    Every row is reduced against one shared draw stream, keyed by seed plus
    a content hash of the whole ``(k, d)`` matrix: common random numbers.
    Each estimate keeps the law it would have with a stream of its own, but
    the estimates of one call are correlated.  Each row is scaled by its own
    l2 norm; a zero row gives 0 with stderr 0.
    """
    q = _check_moment_order(p)
    if samples < 2:
        raise ParameterError(f"Monte Carlo norms need samples >= 2, got {samples}")
    rows = _finite_rows(rows)
    scales = _norms(rows, 2)
    estimates, stderrs = np.zeros(len(rows)), np.zeros(len(rows))
    live = np.flatnonzero(scales > 0.0)
    if live.size == 0:
        return estimates, stderrs
    gen = rng.content_stream(seed.value, "mc-norm", rows, f"|{kind.value}|{q!r}")
    m = (rows[live] / scales[live, None]).T

    def statistic(ys: np.ndarray) -> np.ndarray:
        np.abs(ys, out=ys)
        ys **= q
        return ys

    means, se_means = mc_mean(kind, gen, m, samples, statistic)
    # Python floats, so one row rounds exactly as a scalar computation would.
    for i, scale, mean, se_mean in zip(live.tolist(), scales[live].tolist(), means.tolist(), se_means.tolist()):
        if mean > 0.0:
            estimates[i] = scale * mean ** (1.0 / q)
            stderrs[i] = scale * ((1.0 / q) * mean ** (1.0 / q - 1.0) * se_mean)
    return estimates, stderrs


def mc_norm(
    kind: ProcessKind,
    t: Point,
    p,
    samples: int,
    seed: Seed,
) -> tuple[float, float]:
    """Monte Carlo estimate of ``||X_t||_p`` with a delta-method stderr.

    The one-row case of :func:`mc_norms`.  Deterministic for fixed
    ``(kind, t, p, samples, seed)``: the draw stream is keyed by seed plus a
    content hash, so unrelated computations cannot perturb it.  Monte Carlo
    chain bounds do not call it: they estimate each level's increments
    together, on one stream per level, so an increment's value there has
    this estimate's law but not its bits.
    """
    estimates, stderrs = mc_norms(kind, t.array[None, :], p, samples, seed)
    return float(estimates[0]), float(stderrs[0])


class ModelKind(enum.Enum):
    BERNOULLI_PROXY = "bernoulli-proxy"
    BERNOULLI_EXACT = "bernoulli-exact"
    GAUSSIAN_EXACT = "gaussian-exact"
    MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class MomentModel:
    """A way of evaluating increment norms ``||X_t||_p``.

    Chaining bounds and decompositions are parameterised by one of these so
    that exact oracles, the Bernoulli proxy and Monte Carlo estimates stay
    interchangeable routes through identical code paths.
    """

    kind: ModelKind
    process: ProcessKind | None = None
    samples: int = 0
    seed: Seed | None = None

    def __post_init__(self) -> None:
        if self.kind is ModelKind.MONTE_CARLO:
            if self.process is None or self.seed is None:
                raise ParameterError("Monte Carlo model needs a process kind and a seed")
            if self.samples < 2:
                raise ParameterError(f"Monte Carlo model needs samples >= 2, got {self.samples}")
        elif self.process is not None or self.samples or self.seed is not None:
            raise ParameterError(f"{self.kind.value} model takes no sampling configuration")

    @classmethod
    def bernoulli_proxy(cls) -> "MomentModel":
        return cls(ModelKind.BERNOULLI_PROXY)

    @classmethod
    def bernoulli_exact(cls) -> "MomentModel":
        return cls(ModelKind.BERNOULLI_EXACT)

    @classmethod
    def gaussian_exact(cls) -> "MomentModel":
        return cls(ModelKind.GAUSSIAN_EXACT)

    @classmethod
    def monte_carlo(cls, process: ProcessKind, samples: int, seed: Seed) -> "MomentModel":
        return cls(ModelKind.MONTE_CARLO, process=process, samples=samples, seed=seed)

    @property
    def label(self) -> str:
        if self.kind is ModelKind.MONTE_CARLO:
            assert self.process is not None and self.seed is not None
            return f"monte-carlo[{self.process.value},n={self.samples},seed={self.seed.value}]"
        return self.kind.value

    def norm(self, t: Point, p) -> float:
        """``||X_t||_p`` under this model: the one-row case of :meth:`norms`."""
        return float(self.norms(t.array[None, :], p)[0])

    def norms(self, ts: np.ndarray, p) -> np.ndarray:
        """``||X_t||_p`` for every row ``t`` of the ``(k, d)`` array ``ts``: one call of this model's route.

        Each row gets the bits of its one-row call (the proxy's at order
        ``int(p)``), except under Monte Carlo: there the rows share one
        :func:`mc_norms` stream, so their estimates are correlated.
        """
        if self.kind is ModelKind.BERNOULLI_PROXY:
            return proxy_norms(ts, int(p))[2]
        if self.kind is ModelKind.BERNOULLI_EXACT:
            return bernoulli_exact_norms(ts, (p,))[:, 0]
        if self.kind is ModelKind.GAUSSIAN_EXACT:
            return gaussian_norms(ts, p)
        assert self.process is not None and self.seed is not None
        return mc_norms(self.process, ts, p, self.samples, self.seed)[0]
