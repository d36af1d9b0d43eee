"""Moment norms of canonical process variables.

For a coefficient vector ``t`` the Bernoulli variable ``B_t = sum_i eps_i t_i``
(independent uniform signs) and the Gaussian variable ``G_t = sum_i g_i t_i``
have p-th moment norms ``||B_t||_p`` and ``||G_t||_p``.  This module has one
route per way of computing them, and each takes a whole ``(k, d)`` matrix
of rows:

* :func:`proxy_norms`, a closed-form *proxy* for the Bernoulli norm: the
  ``p`` largest magnitudes of each row (an l1 head, one ``np.partition``)
  plus ``sqrt(p)`` times the l2 norm of the rest; within a factor 4,
* :func:`bernoulli_exact_norms`, at integer orders ``1 <= p <= EXACT_MAX_ORDER``:
  the cosh series at even orders at any dimension, meet in the middle at
  odd ones up to ``EXACT_ENUMERATION_MAX_DIM``,
* :func:`gaussian_norms`, the Gamma-function formula (one ``vecdot``),
* :func:`mc_norms`, seeded Monte Carlo with delta-method standard errors.

:func:`moment_sandwich` sets the proxy beside the exact norm and checks
the sandwich ``exact <= proxy <= 4 exact`` up to ``REL_SLACK``: the one
verifier behind ``procsup moments`` and acceptance criterion 1.

Every route rejects a non-finite row with one :class:`ValidationError`, and
an l1 or l2 norm that overflows float64 with a :class:`ParameterError`
naming the row.  One vector is a one-row matrix: ``proxy_norms(t[None, :], p)``.

The cosh series rests on ``E B_t^p = p! [lambda^p] prod_i cosh(lambda t_i)``
for even p: a sum of nonnegative terms, so nothing cancels, that costs
``O(d p^2)`` per vector instead of ``2^(d-1)`` sign patterns.  Meet in the
middle (Horowitz--Sahni) rests on ``sum_b |a + b|^p = sum_j C(p, j) a^(p-j)
(sum_(b >= -a) b^j - sum_(b < -a) b^j)`` for odd p: the ``2^(d-1)``
patterns are pairs of a half-sum ``a`` over the first half of the
coordinates and ``b`` over the second, so one sort of the ``2^floor(d/2)``
``b``, their power prefix sums and one ``searchsorted`` of the ``a`` serve
all pairs, in ``O(2^(d/2) d p)`` work per vector.

Downstream code (chaining bounds, decompositions) picks a route through one
``norms(rows, p)`` call of a model: a :class:`MomentModel` member for the
proxy and the exact routes, or a :class:`MonteCarloModel`, the one model
with parameters (process, samples, seed).  A row's value does not depend on
the other rows of the call, except under Monte Carlo: a Monte Carlo batch,
such as one level of a chain bound, shares one draw stream keyed by the
whole batch (common random numbers), so its estimates are correlated.

Every enumerated oracle and Monte Carlo estimate in the package reduces
``sum_i xi_i m_i`` over the rows of a coefficient matrix ``m``; the two
shared engines for that live here: :func:`signed_row_sums` enumerates the
sign patterns and reduces them by the caller's per-pattern statistic, and
:func:`mc_mean` draws ``xi`` and accumulates a mean and its standard error.
Both work in blocks of at most ``_BLOCK_BYTES``.  For the enumerator a
block is the unit of summation: it yields one array of statistic values
per block, so the caller's sum of each block keeps its bits.  A piece of
at most ``_PIECE_BYTES`` is the unit of memory: a block's sign sums are
built, reduced and freed a piece at a time, so they stay in cache and are
never held whole.  A piece is laid out along its block's long axis:
point-major when the block holds many sign patterns per column, so a
maximum over the columns is a pass of elementwise maxima over contiguous
pattern vectors, and row-major otherwise or on request.  Neither the
pieces nor the layout move a value.
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
from .core import EXACT_ENUMERATION_MAX_DIM, ProcessKind, Seed, check_count, check_integers
from .errors import CapacityError, ParameterError, ValidationError
from .reports import safe_ratio

#: Byte budget of one block of sign sums or Monte Carlo products.
_BLOCK_BYTES = 8 << 20

#: Byte budget of one piece of a block of sign sums, built, reduced and
#: freed before the next: small enough to stay in a core's L2 cache, large
#: enough that numpy's per-call overhead stays small (64 KiB pieces were
#: slower than whole blocks; 256 and 512 KiB were about equally fast).
_PIECE_BYTES = 256 << 10

#: Most sign sums, ``n * 2^(k-1)``, that one enumeration of a ``(k, n)``
#: matrix may produce (8 192 columns at k=20: ``procsup sup --exact`` on
#: such a set takes some 5 s on one core of a 2-vCPU Xeon).
EXACT_SUP_MAX_SUMS = 1 << 32

#: Sign patterns per column from which blocks of sign sums are laid out
#: point-major.  numpy reduces many short rows slowly and a few long
#: contiguous runs fast; below this many patterns per column (above about
#: 360 columns at the default budget) the two layouts cost the same, and
#: below 4 the transposed block costs more than the faster reduction saves.
_POINT_MAJOR_PATTERNS = 8

#: Largest order of an exact Bernoulli norm.  Both routes need the binomials
#: ``C(p, j)``, at most ``C(1024, 512) ~ 4.5e306`` here; the middle binomial
#: outgrows float64 from ``C(1030, 515)`` on.
EXACT_MAX_ORDER = 1024

#: Largest exact order above ``EXACT_ENUMERATION_MAX_DIM`` coordinates, where only even orders run: the
#: cosh series' moment ``M_(p/2) >= d^(-p/2)`` is a normal float64 at p = 64 up to d = 4e9 (an all-ones
#: row of d = 4096 underflows to 0 at p = 1024), and a chain order ``2^n`` passes 32 only past 2^32 points.
WIDE_EVEN_MAX_ORDER = 64

#: Relative allowance for float rounding in the package's analytic inequalities.
REL_SLACK = 1e-9

#: The ``samples`` of every library route and CLI verb that takes one, unless it says otherwise.
DEFAULT_SAMPLES = 100_000


def _finite_rows(ts) -> np.ndarray:
    """``ts`` as a C-ordered ``(k, d)`` float matrix; every entry must be finite."""
    rows = np.ascontiguousarray(ts, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise ValidationError(f"increment rows must form a (k, d) matrix with d >= 1, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise ValidationError("increment rows must be finite")
    return rows


def _norms(a: np.ndarray, order: int, row: str = "row") -> np.ndarray:
    """The l1 (``order`` 1) or l2 (``order`` 2) norm of every row of the finite matrix ``a``.

    A norm that overflows float64 is a :class:`ParameterError` naming the
    first such row (called ``row`` in the message): reported, or divided
    by, it would give inf, NaN or 0.
    """
    with np.errstate(over="ignore"):
        norms = np.abs(a).sum(axis=1) if order == 1 else np.sqrt(np.vecdot(a, a))
    if not np.isfinite(norms).all():
        k = int(np.isinf(norms).argmax())
        raise ParameterError(f"the l{order} norm of {row} {k} overflows float64")
    return norms


def check_proxy_order(p) -> int:
    """``p`` as an int, if the proxy serves it: an integer >= 1."""
    check_count(p, "p", 0)
    if p < 1:
        raise ParameterError(f"proxy needs p >= 1, got {p}")
    return int(p)


def proxy_norms(rows, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Bernoulli proxy of every row of the ``(k, d)`` matrix ``rows``: l1 heads, l2 tails and values.

    A row's value is its head (the sum of its ``p`` largest magnitudes) plus
    ``sqrt(p)`` times its tail (the l2 norm of the rest).  Sandwich
    guarantee: ``||B_t||_p <= value <= 4 ||B_t||_p`` for integer p >= 1.
    """
    p = check_proxy_order(p)
    a = np.abs(_finite_rows(rows))
    cut = max(a.shape[1] - p, 0)
    if cut:  # move each row's p largest magnitudes to its columns cut:
        a = np.partition(a, cut, axis=1)
    head, tail = _norms(a[:, cut:], 1), _norms(a[:, :cut], 2)
    return head, tail, head + math.sqrt(p) * tail


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


def _doubled(first: np.ndarray, steps) -> np.ndarray:
    """``first`` plus every signed sum of ``steps``: the table doubles once per step, ``+`` half first."""
    sums = first
    for step in steps:
        sums = np.concatenate([sums + step, sums - step])
    return sums


def enumerable(k: int, n: int) -> bool:
    """Whether :func:`signed_row_sums` may enumerate a ``(k, n)`` matrix: ``k <= 20`` and ``n * 2^(k-1) <= 2^32``."""
    return k <= EXACT_ENUMERATION_MAX_DIM and n << (k - 1) <= EXACT_SUP_MAX_SUMS


def signed_row_sums(
    m: np.ndarray, statistic: Callable[[np.ndarray], np.ndarray], row_major: bool = False
) -> Iterator[np.ndarray]:
    """Yield ``statistic`` of ``sum_i eps_i m_i`` for every sign pattern with ``eps_0 = +1``, a block at a time.

    ``m`` is a ``(k, n)`` coefficient matrix.  Its ``2^(k-1)`` sign sums are
    partitioned into blocks of at most ``_BLOCK_BYTES`` of sums, the unit
    of summation: each yielded array holds one block's statistic values,
    shape ``(patterns,)`` or ``(patterns, c)``, so a caller that sums each
    block keeps the block's bits whatever the memory layout below.  A block
    is the broadcast sum of two half-tables: the sums over the low half of
    the rows (``eps_0`` pinned, built by doubling) and the sums over the
    high half for a run of their sign patterns, in that order (high code
    major, low code minor).  Pinning the first sign is lossless for
    statistics invariant under a global flip; for a maximum use ``max(eps)
    + max(-eps) = max(eps) - min(eps)``.

    A block's sums are never held whole.  They are built in pieces of at
    most ``_PIECE_BYTES``, the unit of memory, small enough to stay in
    cache: whole high rows when one high row fits, otherwise a run of low
    codes of one high row.  Each piece is reduced by ``statistic`` into its
    slice of the block's values and dropped before the next is built.  The
    statistic must be row-wise: each output row depends only on its own
    pattern's sums.

    Pieces are laid out along the block's long axis.  When the first
    (largest) block holds at least ``_POINT_MAJOR_PATTERNS`` sign patterns
    per column, every piece is the transpose of a C-ordered ``(n, rows)``
    array (point-major), so a reduction over axis 1 runs as elementwise
    maxima or sums across contiguous pattern vectors; otherwise every piece
    is C-ordered (row-major), so each pattern's row is one contiguous run.
    The layout follows from the block shape alone and moves no value: each
    sum is the same addition either way, and the block and piece
    partitions do not depend on it.  A statistic whose bits depend on the
    order it visits a row (numpy sums 8 or more columns of a contiguous row
    pairwise, and across rows in sequence) passes ``row_major=True`` to keep
    every piece C-ordered.
    """
    k, n = m.shape
    rows = max(1, _BLOCK_BYTES // (8 * n))
    low_rows = min(k // 2 + 1, rows.bit_length())
    low = _doubled(m[:1], m[1:low_rows])
    width = len(low)
    high_rows = k - low_rows
    shifts = np.arange(high_rows, dtype=np.uint64)
    step = max(1, rows // width)
    point_major = not row_major and width * min(step, 1 << high_rows) >= _POINT_MAJOR_PATTERNS * n
    if point_major:
        low = np.ascontiguousarray(low.T)
    # a piece is ``tall`` whole high rows, or ``wide`` low codes of one high row
    piece = max(1, _PIECE_BYTES // (8 * n))
    tall, wide = max(1, piece // width), min(piece, width)
    for start in range(0, 1 << high_rows, step):
        codes = np.arange(start, min(start + step, 1 << high_rows), dtype=np.uint64)
        signs = 1.0 - 2.0 * ((codes[:, None] >> shifts) & 1).astype(np.float64)
        high = signs @ m[low_rows:]
        if point_major:
            high = np.ascontiguousarray(high.T)
        values = None
        for j in range(0, len(codes), tall):
            for lo in range(0, width, wide):
                if point_major:
                    sums = (high[:, j : j + tall, None] + low[:, None, lo : lo + wide]).reshape(n, -1).T
                else:
                    sums = (high[j : j + tall, None, :] + low[None, lo : lo + wide, :]).reshape(-1, n)
                part = statistic(sums)
                if values is None:
                    values = np.empty((len(codes) * width, *part.shape[1:]), dtype=part.dtype)
                at = j * width + lo
                values[at : at + len(part)] = part
                del sums, part
        yield values


def _check_exact_order(p) -> int:
    """``p`` as an int, if an exact Bernoulli norm serves it: an integer ``1 <= p <= EXACT_MAX_ORDER``."""
    q = float(p)
    if not (1.0 <= q <= EXACT_MAX_ORDER and q.is_integer()):
        raise ParameterError(f"exact Bernoulli norms need an integer moment order 1 <= p <= {EXACT_MAX_ORDER}, got {p}")
    return int(q)


def bernoulli_exact_route(p) -> str:
    """The route of an exact Bernoulli norm of order ``p``: cosh-series if even, meet-in-the-middle if odd."""
    return "meet-in-the-middle" if _check_exact_order(p) % 2 else "cosh-series"


@functools.lru_cache(maxsize=16)
def _even_binomials(half: int) -> np.ndarray:
    """Read-only ``(half + 1, half + 1)`` table of ``C(2j, 2l)`` at ``[j, l]``, zero where ``l > j``."""
    table = np.zeros((half + 1, half + 1))
    for j in range(half + 1):
        table[j, : j + 1] = _binomials(2 * j)[::2]
    table.flags.writeable = False
    return table


def _cosh_norms(rows: np.ndarray, scales: np.ndarray, qs) -> np.ndarray:
    """``||B_t||_q`` for every row ``t`` of ``rows`` (l1 norms ``scales``) at every even integer order in ``qs``.

    With ``x_i = (t_i / ||t||_1)^2`` and ``M_j = E (B_t / ||t||_1)^(2j)``,
    each coordinate in turn updates ``M_j <- sum_{l <= j} C(2j, 2l) x_i^l
    M_{j-l}`` from ``M = (1, 0, ..., 0)``: the even moments of a sum with one
    more independent term.  Every term is nonnegative and every ``M_j`` is at
    most 1, so nothing cancels or overflows.  One einsum per coordinate
    updates all rows; each row's arithmetic does not depend on the others,
    so a row of a batch gets the bits of a one-row call.  The result has
    shape ``(k, len(qs))``; a zero row gives 0.
    """
    half = max(qs) // 2
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
        ms = padded[:, half - q // 2].tolist()
        norms[:, c] = [scale * m ** (1.0 / q) for scale, m in zip(scales.tolist(), ms)]
    return norms


def _powers(x: np.ndarray, top: int) -> np.ndarray:
    """``x^j`` at ``[i, j]`` for every entry ``x_i`` and ``j = 0..top``, by running products."""
    table = np.repeat(x[:, None], top + 1, axis=1)
    table[:, 0] = 1.0
    return np.cumprod(table, axis=1)


def _binomials(p: int) -> np.ndarray:
    """``C(p, j)`` for ``j = 0..p``: exact integers by the multiplicative recurrence, each rounded once."""
    row = [1]
    for j in range(p):
        row.append(row[-1] * (p - j) // (j + 1))
    return np.array([float(c) for c in row])


def _meet_norms(rows: np.ndarray, scales: np.ndarray, qs) -> np.ndarray:
    """``||B_t||_q`` for every row ``t`` of ``rows`` (l1 norms ``scales``) at every odd integer order in ``qs``.

    Each nonzero row is flipped so that its first nonzero coordinate is
    positive, divided by its l1 norm and split in halves: the
    ``2^(ceil(d/2)-1)`` sums ``a`` of the first half (``eps_0`` pinned) and
    the ``2^floor(d/2)`` sums ``b`` of the second, sorted once.  Column ``j``
    of the prefix table holds the running sums of ``b^j``, added by a
    log-depth scan, so each carries ``O(d)`` roundings rather than
    ``O(2^(d/2))``.  One ``searchsorted`` then reads ``D_j(a) = sum_(b >= -a)
    b^j - sum_(b < -a) b^j`` for every ``a``, and ``sum_b |a + b|^q =
    sum_j C(q, j) a^(q-j) D_j(a)``.  The ``b`` come in pairs ``+-b``, so
    ``sum_b |a + b|^q >= sum_b (|a| + |b|)^q / 2``, which bounds the sum of
    the terms' magnitudes: the expansion loses at most a factor 2 to
    cancellation.  Each row is computed on its own and each order from its
    own columns, so a value depends on neither the other rows nor the other
    orders, ``c`` and ``-c`` give the same bits, and a zero row gives 0.
    """
    k, d = rows.shape
    top = max(qs)
    binomials = [_binomials(p) for p in qs]
    norms = np.zeros((k, len(qs)))
    for i in np.flatnonzero(scales):
        t, scale = rows[i], float(scales[i])
        u = t / (scale if t[np.flatnonzero(t)[0]] > 0.0 else -scale)
        a = _doubled(u[:1], u[1 : (d + 1) // 2])
        b = np.sort(_doubled(np.zeros(1), u[(d + 1) // 2 :]))
        prefix = np.vstack([np.zeros(top + 1), _powers(b, top)])  # row r: the sums over the r smallest b
        step = 1
        while step < len(b):  # each row adds the one ``step`` above it, doubling the reach
            prefix[step + 1 :] = prefix[step + 1 :] + prefix[1:-step]
            step *= 2
        diffs = prefix[-1] - 2.0 * prefix[np.searchsorted(b, -a)]
        powers = _powers(a, top)
        for c, (p, binomial) in enumerate(zip(qs, binomials)):
            terms = powers[:, p::-1] * diffs[:, : p + 1] * binomial
            norms[i, c] = scale * (float(terms.sum(axis=1).sum()) / (1 << (d - 1))) ** (1.0 / p)
    return norms


#: Each exact route's evaluator, by the name :func:`bernoulli_exact_route` gives it.
_EXACT_ROUTES = {"cosh-series": _cosh_norms, "meet-in-the-middle": _meet_norms}


def bernoulli_exact_norms(rows, ps) -> np.ndarray:
    """``||B_t||_p`` for every row ``t`` of the ``(k, d)`` matrix ``rows`` at every order in ``ps``.

    The result has shape ``(k, len(ps))``.  Orders must be integers ``1 <=
    p <= EXACT_MAX_ORDER``, or a :class:`ParameterError` is raised before
    any work.  Each order goes to its :func:`bernoulli_exact_route`, exact
    up to rounding: even orders to one cosh-series pass over all rows
    (``O(d p^2)`` per row) at any d, odd orders to meet in the middle, one
    sort and prefix table of ``2^floor(d/2)`` half-sums per nonzero row.
    Above d = ``EXACT_ENUMERATION_MAX_DIM`` an odd order, or one above
    ``WIDE_EVEN_MAX_ORDER``, is a :class:`CapacityError` before any work (an
    empty batch needs no oracle).  A route runs only when one of its orders
    is asked for.  A value depends on neither the other rows nor the other
    orders of the call.  An overflowing l1 norm is a :class:`ParameterError`.
    """
    qs = [_check_exact_order(p) for p in ps]
    routes = [bernoulli_exact_route(q) for q in qs]
    rows = _finite_rows(rows)
    k, d = rows.shape
    if k and d > EXACT_ENUMERATION_MAX_DIM:
        if "meet-in-the-middle" in routes:
            raise CapacityError(f"exact Bernoulli norm needs dim <= {EXACT_ENUMERATION_MAX_DIM}, got {d}")
        if max(qs, default=0) > WIDE_EVEN_MAX_ORDER:
            raise CapacityError(f"exact Bernoulli norm above dim {EXACT_ENUMERATION_MAX_DIM} needs p <= "
                                f"{WIDE_EVEN_MAX_ORDER}, got p = {max(qs)} at dim {d}")
    scales = _norms(rows, 1)
    norms = np.zeros((k, len(qs)))
    for route, route_norms in _EXACT_ROUTES.items():
        cols = [c for c, r in enumerate(routes) if r == route]
        if cols:
            norms[:, cols] = route_norms(rows, scales, [qs[c] for c in cols])
    return norms


@dataclass(frozen=True)
class MomentRow:
    """One point's moment decomposition at one order; the exact fields only where d <= ``EXACT_ENUMERATION_MAX_DIM``."""

    point: int
    p: int
    ell1_part: float
    tail_l2: float
    proxy: float
    gaussian_exact: float
    bernoulli_exact: float | None = None
    bernoulli_route: str | None = None
    sandwich_ratio: float | None = None


def moment_sandwich(rows, ps) -> tuple[list[MomentRow], bool, int]:
    """Each row's proxy and Gaussian norms at each order in ``ps``, with the sandwich checked where exact norms run.

    Returns the records (point-major, then by order), whether the exact
    norms ran (d <= ``EXACT_ENUMERATION_MAX_DIM``) and the number of
    sandwich violations.  A record keeps the sandwich when its exact norm
    is positive and ``1 - REL_SLACK <= proxy / exact <= 4 (1 + REL_SLACK)``,
    or when both are 0.  Every order is checked for the proxy first; then
    the exact norms run, so an overflowing l1 norm fails before the proxy
    does, then the proxy and the Gaussian norms.
    """
    for p in ps:
        check_proxy_order(p)
    rows = _finite_rows(rows)
    checked = rows.shape[1] <= EXACT_ENUMERATION_MAX_DIM
    exacts = bernoulli_exact_norms(rows, ps).tolist() if checked else [[None] * len(ps)] * len(rows)
    proxies = [[part.tolist() for part in proxy_norms(rows, p)] for p in ps]
    gaussians = [gaussian_norms(rows, p).tolist() for p in ps]
    records, violations = [], 0
    for i, point_exacts in enumerate(exacts):
        for c, (p, exact) in enumerate(zip(ps, point_exacts)):
            fields = (i, p, *(part[i] for part in proxies[c]), gaussians[c][i])
            if exact is None:
                records.append(MomentRow(*fields))
                continue
            ratio = safe_ratio(fields[4], exact)
            records.append(MomentRow(*fields, exact, bernoulli_exact_route(p), ratio))
            if exact == 0.0:
                violations += ratio != 0.0
            else:
                violations += not (1.0 - REL_SLACK <= ratio <= 4.0 * (1.0 + REL_SLACK))
    return records, checked, violations


def _draw(kind: ProcessKind, gen: np.random.Generator, size) -> np.ndarray:
    if kind is ProcessKind.BERNOULLI:
        return rng.rademacher(gen, size)
    return rng.standard_normal(gen, size)


def check_samples(samples: int) -> None:
    """The one ``samples`` rule: an integer of at least 2, as each Monte Carlo stderr divides by ``samples - 1``.

    Every route and CLI verb that takes ``samples`` applies it before any work, exact routes included.
    """
    check_integers((samples,), "samples")
    if samples < 2:
        raise ParameterError(f"Monte Carlo needs samples >= 2, got {samples}")


def mc_mean(
    kind: ProcessKind,
    gen: np.random.Generator,
    m: np.ndarray,
    samples: int,
    statistic: Callable[[np.ndarray], np.ndarray],
    radius: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of ``statistic(xi @ m)`` over ``samples`` draws of ``xi``.

    ``xi`` has one coordinate per row of ``m`` and is drawn from ``gen`` in
    chunks whose rows are a multiple of 4, so the draw stream does not
    depend on the chunking (numpy packs four int8 signs per 32-bit word).
    A chunk's ``(k, d)`` draws and ``(k, n)`` products ``xi @ m`` together
    stay within ``_BLOCK_BYTES`` (for a vector ``m``, the draws alone); the
    draws are freed before the statistic runs, and each chunk is freed
    before the next is drawn.  Given a ``radius``, each draw is rescaled to
    that l2 length before the product.
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
    rows = max(4, _BLOCK_BYTES // (8 * sum(m.shape)) // 4 * 4)
    shift = mean = m2 = None
    count = 0
    while count < samples:
        k = min(rows, samples - count)
        xs = _draw(kind, gen, (k, m.shape[0]))
        if radius is not None:
            xs *= (radius / np.sqrt(np.vecdot(xs, xs)))[:, None]
        products = xs @ m
        del xs
        block = statistic(products)
        del products
        shape, columns = block.shape[1:], block.reshape(k, -1)
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
        del block, columns, ys
        count = total
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
    l2 norm; a zero row gives 0 with stderr 0.  A mean or stderr that
    overflows float64 (``|y|^p`` at high orders) is a :class:`ParameterError`
    naming the first such row.
    """
    q = _check_moment_order(p)
    check_samples(samples)
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

    with np.errstate(over="ignore", invalid="ignore"):
        means, se_means = mc_mean(kind, gen, m, samples, statistic)
    bad = ~(np.isfinite(means) & np.isfinite(se_means))
    if bad.any():
        raise ParameterError(f"the Monte Carlo p-th moment of row {live[bad.argmax()]} overflows float64 at p = {p}")
    # Python floats, so one row rounds exactly as a scalar computation would.
    for i, scale, mean, se_mean in zip(live.tolist(), scales[live].tolist(), means.tolist(), se_means.tolist()):
        if mean > 0.0:
            estimates[i] = scale * mean ** (1.0 / q)
            stderrs[i] = scale * ((1.0 / q) * mean ** (1.0 / q - 1.0) * se_mean)
    return estimates, stderrs


class MomentModel(enum.Enum):
    """An exact or proxy route for increment norms ``||X_t||_p``; :class:`MonteCarloModel` is the sampled one.

    Chaining bounds and decompositions take one model and call its
    ``norms(rows, p)``, so every route runs through identical code paths.
    """

    BERNOULLI_PROXY = "bernoulli-proxy"
    BERNOULLI_EXACT = "bernoulli-exact"
    GAUSSIAN_EXACT = "gaussian-exact"

    @property
    def label(self) -> str:
        return self.value

    def norms(self, ts: np.ndarray, p) -> np.ndarray:
        """``||X_t||_p`` for every row ``t`` of the ``(k, d)`` array ``ts``: one call of this model's route.

        The proxy and the exact route take integer orders only.  A row's value does not depend on the other rows.
        """
        if self is MomentModel.BERNOULLI_PROXY:
            return proxy_norms(ts, p)[2]
        if self is MomentModel.BERNOULLI_EXACT:
            return bernoulli_exact_norms(ts, (p,))[:, 0]
        return gaussian_norms(ts, p)


@dataclass(frozen=True)
class MonteCarloModel:
    """Monte Carlo increment norms: the rows of one ``norms`` call share one :func:`mc_norms` stream."""

    process: ProcessKind
    samples: int
    seed: Seed

    def __post_init__(self) -> None:
        check_samples(self.samples)

    @property
    def label(self) -> str:
        return f"monte-carlo[{self.process.value},n={self.samples},seed={self.seed.value}]"

    def norms(self, ts: np.ndarray, p) -> np.ndarray:
        return mc_norms(self.process, ts, p, self.samples, self.seed)[0]
