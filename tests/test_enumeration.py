"""The sign enumerator's pieces and layout move no bits, and overflowing sets fail fast.

``signed_row_sums`` builds each block of sign sums in pieces of at most
``_PIECE_BYTES`` and hands each piece to the caller's statistic, laid out
point-major when the first block holds at least ``_POINT_MAJOR_PATTERNS``
sign patterns per column, and row-major otherwise or on request (the
euclidean strong moment asks).  Every block must hold the same values as
the row-major reference enumerator (``tests/enumeration_reference.py``),
and the exact supremum and euclidean strong moment must keep the
reference's bits: on both sides of the layout switch and exactly at it,
over many blocks and one-pattern blocks, over one-pattern pieces, pieces
that split the low half-table and pieces of several high rows, with signed
zeros and tied coordinates.  The sup-norm strong moment is the exact
supremum over the signed coordinate columns, so it keeps that supremum's
bits and stays within a few ulps of the reference.  Both enumerations stay
within a few MiB of traced memory whatever the block budget.
"""

import json
import math
import tracemalloc
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from procsup import cli, moments, oleszkiewicz, rng, suprema
from procsup.core import EXACT_ENUMERATION_MAX_DIM, FiniteSet, ProcessKind, Seed, generate_set, save_set
from procsup.errors import CapacityError, ParameterError
from procsup.moments import _POINT_MAJOR_PATTERNS, EXACT_SUP_MAX_SUMS, bernoulli_exact_norms, signed_row_sums
from procsup.oleszkiewicz import (
    NormKind,
    VectorSystem,
    _exact_strong_moment,
    strong_moment_ratio,
)
from procsup.suprema import brute_force_bernoulli_sup, mc_sup

from enumeration_reference import (
    reference_bernoulli_sup,
    reference_norm_of,
    reference_signed_row_sums,
    reference_strong_moment,
)


def _matrix(seed: int, shape: tuple[int, int], style: str) -> np.ndarray:
    """A random matrix: generic, on a coarse grid (many ties), or with signed zeros mixed in."""
    gen = rng.stream(seed, "enumeration-layout")
    m = rng.standard_normal(gen, shape)
    if style == "ties":
        m = np.round(m)
    elif style == "zeros":
        zeros = np.where(np.arange(m.size).reshape(shape) % 2 == 0, 0.0, -0.0)
        m = np.where(np.abs(m) < 0.7, zeros, m)
    return m


def _distinct(points: np.ndarray) -> FiniteSet:
    """The set of the distinct rows of ``points``, in first-seen order."""
    _, first = np.unique(points, axis=0, return_index=True)
    return FiniteSet(name="layout", points=points[np.sort(first)])


def _point_count(d: int, where: str, drawn: int) -> int:
    """Points on the chosen side of the layout switch for a one-block enumeration at dimension ``d``."""
    at = max(1, (1 << (d - 1)) // _POINT_MAJOR_PATTERNS)
    return {"at": at, "above": at + 1, "below": max(1, at - 1), "drawn": drawn}[where]


def _block_bytes(n: int, rows: str) -> int | None:
    """A block budget: the default, one pattern per block, or a few blocks of about the switch size."""
    return {
        "default": None,
        "one": 8 * n,
        "switch": 8 * n * _POINT_MAJOR_PATTERNS * n,
        "half-switch": 8 * n * max(1, _POINT_MAJOR_PATTERNS * n // 2),
    }[rows]


def _low_width(k: int, n: int) -> int:
    """Sign patterns in the low half-table of a ``(k, n)`` enumeration at the current block budget."""
    rows = max(1, moments._BLOCK_BYTES // (8 * n))
    return 1 << (min(k // 2 + 1, rows.bit_length()) - 1)


def _piece_bytes(k: int, n: int, pieces: str) -> int | None:
    """A piece budget: the default, one pattern per piece, a run of 3 low codes, or 3 whole high rows."""
    return {
        "default": None,
        "one": 8 * n,
        "split": 8 * n * 3,
        "several": 8 * n * _low_width(k, n) * 3,
    }[pieces]


def _patched(block_bytes: int | None, shape: tuple[int, int] | None = None, pieces: str = "default") -> ExitStack:
    """Patch the block budget, then the piece budget of a ``shape`` enumeration under it."""
    stack = ExitStack()
    stack.enter_context(mock.patch.object(moments, "_BLOCK_BYTES", block_bytes or moments._BLOCK_BYTES))
    piece_bytes = _piece_bytes(*shape, pieces) if shape else None
    stack.enter_context(mock.patch.object(moments, "_PIECE_BYTES", piece_bytes or moments._PIECE_BYTES))
    return stack


piece_sizes = st.sampled_from(["default", "one", "split", "several"])

layouts = st.tuples(
    st.integers(min_value=1, max_value=14),
    st.sampled_from(["at", "above", "below", "drawn"]),
    st.integers(min_value=1, max_value=300),
    st.sampled_from(["default", "one", "switch", "half-switch"]),
    piece_sizes,
    st.sampled_from(["generic", "ties", "zeros"]),
    st.integers(min_value=0, max_value=2**32),
)


def _recording(pieces: list, statistic=lambda s: s):
    """``statistic``, noting the layout ``(C-ordered, transpose C-ordered)`` and bytes of every piece it reduces."""

    def recorded(s: np.ndarray) -> np.ndarray:
        pieces.append((s.flags.c_contiguous, s.T.flags.c_contiguous, s.nbytes))
        return statistic(s)

    return recorded


def _bits(x: float) -> str:
    return float(x).hex()


@given(layouts)
def test_blocks_hold_the_reference_values_in_their_layout(case):
    d, where, drawn, rows, pieces, style, seed = case
    n = min(_point_count(d, where, drawn), 300)
    m = _matrix(seed, (d, n), style)
    seen, seen_row_major = [], []
    with _patched(_block_bytes(n, rows), (d, n), pieces):
        got, want = list(signed_row_sums(m, _recording(seen))), list(reference_signed_row_sums(m))
        row_major = list(signed_row_sums(m, _recording(seen_row_major), row_major=True))
        budget = max(moments._PIECE_BYTES, 8 * n)
    for block, ref, row_block in zip(got, want, row_major, strict=True):
        assert block.shape == ref.shape
        assert block.tobytes() == ref.tobytes()  # signed zeros included
        assert row_block.tobytes() == ref.tobytes()
    # The statistic sees each piece in its block's layout: the transpose of a
    # C-ordered array when the first (largest) block holds many patterns per column.
    point_major = len(want[0]) >= _POINT_MAJOR_PATTERNS * n
    assert all((transposed if point_major else ordered) and size <= budget for ordered, transposed, size in seen)
    assert all(ordered and size <= budget for ordered, _, size in seen_row_major)
    assert sum(size for *_, size in seen) == sum(ref.nbytes for ref in want)


@given(layouts)
def test_exact_supremum_keeps_the_reference_bits(case):
    d, where, drawn, rows, pieces, style, seed = case
    n = min(_point_count(d, where, drawn), 300)
    ts = _distinct(_matrix(seed, (n, d), style))
    with _patched(_block_bytes(len(ts), rows), (d, len(ts)), pieces):
        assert _bits(brute_force_bernoulli_sup(ts).value) == _bits(reference_bernoulli_sup(ts.matrix))


@given(
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=1, max_value=12),
    st.sampled_from(["default", "one", "switch", "half-switch"]),
    piece_sizes,
    st.sampled_from(["generic", "ties", "zeros"]),
    st.integers(min_value=0, max_value=2**32),
)
def test_exact_euclidean_strong_moment_keeps_the_reference_bits(terms, dim, rows, pieces, style, seed):
    vectors = _matrix(seed, (terms, dim), style)
    system = VectorSystem("layout", vectors, NormKind.EUCLIDEAN)
    with _patched(_block_bytes(dim, rows), (terms, dim), pieces):
        want = reference_strong_moment(system.matrix, "euclidean")
        assert _bits(_exact_strong_moment(system).value) == _bits(want)


_EXTRA_COLUMNS = {
    "zero": lambda v: np.full(len(v), -0.0),
    "repeat": lambda v: v[:, 0],
    "negate": lambda v: -v[:, -1],
}


@given(
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(["generic", "ties", "zeros"]),
    st.lists(st.sampled_from(list(_EXTRA_COLUMNS)), max_size=4),
    st.integers(min_value=0, max_value=2**32),
)
def test_exact_sup_norm_strong_moment_is_the_supremum_over_the_signed_columns(terms, dim, style, extra, seed):
    # E max_j |<eps, v_j>| is E max_t <eps, t> over T = {+-v_j}; zero, repeated and
    # negated columns give repeated points, which T holds once
    vectors = _matrix(seed, (terms, dim), style)
    for name in extra:
        vectors = np.column_stack([vectors, _EXTRA_COLUMNS[name](vectors)])
    system = VectorSystem("columns", vectors, NormKind.SUP)
    report = strong_moment_ratio(system, system)
    assert report.lhs_label == "E||sum eps x|| [exact]"
    want = reference_strong_moment(system.matrix, "sup")
    assert abs(report.lhs - want) <= 4e-16 * want
    signed = _distinct(np.concatenate([vectors.T, -vectors.T]) + 0.0)
    assert _bits(report.lhs) == _bits(brute_force_bernoulli_sup(signed).value)


@pytest.mark.parametrize("row_major", [False, True])
@pytest.mark.parametrize(
    "pieces, lengths",
    [
        ("one", [1] * 512),  # one pattern per piece
        ("split", ([3] * 10 + [2]) * 16),  # each high row's 32 low codes in runs of 3
        ("several", [96] * 5 + [32]),  # 16 high rows of 32 patterns, three at a time
    ],
)
def test_pieces_cover_every_block_in_pattern_order(pieces, lengths, row_major):
    m = _matrix(3, (10, 3), "generic")  # one block: 16 high codes by a low table of 32 patterns
    seen = []
    with _patched(None, m.shape, pieces):
        assert _low_width(*m.shape) == 32
        got = list(signed_row_sums(m, _recording(seen), row_major=row_major))
    (want,) = reference_signed_row_sums(m)
    assert len(got) == 1 and got[0].tobytes() == want.tobytes()
    assert [size // (8 * 3) for *_, size in seen] == lengths


def test_row_major_blocks_at_the_sign_sum_cap_split_each_high_row():
    # 8 192 columns: two row-major blocks of 8 high codes by 16 low codes, and
    # 16 sums of 64 KiB each overfill a piece, so each high row is split
    m = _matrix(4, (9, 8192), "generic")
    seen = []
    blocks = list(signed_row_sums(m, _recording(seen, lambda s: s.max(axis=1) - s.min(axis=1))))
    assert [len(block) for block in blocks] == [128, 128]
    per_piece = moments._PIECE_BYTES // (8 * 8192)
    assert 1 < per_piece < 16 and len(seen) == 2 * 8 * -(-16 // per_piece)
    assert all(ordered and size <= moments._PIECE_BYTES for ordered, _, size in seen)
    spans = [s.max(axis=1) - s.min(axis=1) for s in reference_signed_row_sums(m)]
    assert [block.tobytes() for block in blocks] == [span.tobytes() for span in spans]


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _neumaier_sum(values, start=0):
    """The builtin ``sum`` of Python 3.12 on, for floats: Neumaier-compensated."""
    total, compensation = float(start), 0.0
    for x in values:
        x = float(x)
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation


def test_exact_sign_averages_keep_their_bits_under_a_compensated_sum(monkeypatch):
    # Python 3.12's sum compensates float sums; the block totals of every exact
    # sign average are added in a plain left-to-right loop on every Python version
    for module in (suprema, oleszkiewicz):
        monkeypatch.setattr(module, "sum", _neumaier_sum, raising=False)
    sphere = generate_set("random_sphere", 20, 64, Seed(6))  # the sup-exact-sphere-64-d20 golden's set
    assert brute_force_bernoulli_sup(sphere).value == 2.234966422156104  # a compensated total gives ...043
    terms = generate_set("random_sphere", 9, 20, Seed(11)).matrix  # the oleszkiewicz-euclidean-d9 golden's x
    assert _exact_strong_moment(VectorSystem("x", terms, NormKind.EUCLIDEAN)).value == 4.3549957628468885


def test_enumerations_stay_within_a_few_mib():
    # A whole 8 MiB block of sums was 16.65 MiB (supremum) and 17.34 MiB (strong moment) traced.
    ts = generate_set("random_sphere", 20, 64, Seed(1))
    system = VectorSystem("x", _matrix(5, (20, 6), "generic"), NormKind.EUCLIDEAN)
    assert _traced_peak(lambda: brute_force_bernoulli_sup(ts)) < 4 << 20
    assert _traced_peak(lambda: _exact_strong_moment(system)) < 4 << 20


@pytest.mark.parametrize("dim", [7, 8, 9, 16])
def test_euclidean_norms_of_every_block_keep_the_reference_bits(monkeypatch, dim):
    # numpy sums 8 or more squares pairwise along a contiguous row and in
    # sequence across rows, so a point-major block must not reach the
    # euclidean norm.  A total over many patterns rounds most such one-ulp
    # differences away, so compare every pattern's norm.
    blocks, pieces = [], []

    def recording(m, statistic, **layout):
        for block in signed_row_sums(m, _recording(pieces, statistic), **layout):
            blocks.append(block)
            yield block

    monkeypatch.setattr(moments, "signed_row_sums", recording)
    system = VectorSystem("wide", _matrix(dim, (14, dim), "generic"), NormKind.EUCLIDEAN)
    _exact_strong_moment(system)
    # 14 terms give many patterns per column, yet every piece is C-ordered
    assert {(ordered, transposed) for ordered, transposed, _ in pieces} == {(True, False)}
    for block, ref in zip(blocks, reference_signed_row_sums(system.matrix), strict=True):
        assert block.tobytes() == reference_norm_of("euclidean", ref).tobytes()


@pytest.mark.parametrize("q", [1.5, 2.5, 1025, 2048])  # orders the exact norm's sign enumeration served
def test_exact_norms_refuse_the_orders_enumeration_served(monkeypatch, q):
    monkeypatch.setattr(moments, "signed_row_sums", None)  # never reached
    t = _matrix(0, (1, 20), "generic")
    message = f"^exact Bernoulli norms need an integer moment order 1 <= p <= 1024, got {q}$"
    with pytest.raises(ParameterError, match=message):
        bernoulli_exact_norms(t, (1, 2, q))
    assert bernoulli_exact_norms(t, (33, 1023, 1024)).shape == (1, 3)  # meet in the middle and the cosh series


# --- sets whose sums leave float64 ---

_HUGE = FiniteSet(name="huge", points=np.array([[1.0, 0.0], [1e308, 1e308]]))


@pytest.mark.filterwarnings("error")
def test_an_overflowing_point_fails_before_the_enumeration(monkeypatch):
    monkeypatch.setattr("procsup.suprema.sign_mean", None)  # never reached
    with pytest.raises(ParameterError, match="^the l1 norm of row 1 overflows float64$"):
        brute_force_bernoulli_sup(_HUGE)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_total_of_spans_fails_after_the_enumeration():
    # Each half-span fits (1.7e308 and 3e307), but their total does not.
    with pytest.raises(ParameterError, match=r"^the l1 norm of row 0 overflows float64 summed over 2\^1 sign"):
        brute_force_bernoulli_sup(FiniteSet(name="wide", points=np.array([[1e308, 7e307], [-1e308, -7e307]])))
    # Half-spans that fit keep their value, however close to the limit.
    assert brute_force_bernoulli_sup(FiniteSet(name="edge", points=np.array([[1e308], [0.0]]))).value == 5e307


@pytest.mark.filterwarnings("error")
def test_a_supremum_whose_span_overflows_is_its_half_span():
    # max - min = 2e308 leaves float64, but max/2 - min/2 = E sup = 1e308 does not.
    assert brute_force_bernoulli_sup(FiniteSet(name="w", points=np.array([[1e308], [-1e308]]))).value == 1e308
    edge = VectorSystem("edge", [[1e308]], NormKind.SUP)
    assert strong_moment_ratio(edge, edge).lhs == 1e308


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", list(ProcessKind))
def test_an_overflowing_point_fails_before_the_draws(kind):
    with pytest.raises(ParameterError, match="^the l2 norm of row 1 overflows float64$"):
        mc_sup(kind, _HUGE, 100, Seed(1))


@pytest.mark.filterwarnings("error")
def test_an_overflowing_monte_carlo_variance_fails_after_the_draws():
    ts = FiniteSet(name="wide", points=np.array([[1.2e154, 0.0], [-1e154, 0.0]]))
    with pytest.raises(ParameterError, match="^the l2 norm of row 0 overflows float64 in the Monte Carlo variance$"):
        mc_sup(ProcessKind.GAUSSIAN, ts, 100, Seed(1))


@pytest.mark.filterwarnings("error")
def test_a_one_dimensional_monte_carlo_supremum_is_its_closed_form():
    # Every draw of g, rescaled to length E|g|, has half-span E|g| * (1.2e154 + 1e154) / 2.
    ts = FiniteSet(name="wide", points=np.array([[1.2e154], [-1e154]]))
    est = mc_sup(ProcessKind.GAUSSIAN, ts, 100, Seed(1))
    assert est.value == pytest.approx(math.sqrt(2.0 / math.pi) * 1.1e154, rel=1e-15)
    assert est.stderr <= 1e-15 * est.value


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("norm", list(NormKind))
def test_an_overflowing_strong_moment_fails(norm):
    huge = VectorSystem("huge", [[1e308], [1e308]], norm)
    with pytest.raises(ParameterError, match="^the l1 norm of coordinate 0 overflows float64$"):
        strong_moment_ratio(huge, huge)
    squares = VectorSystem("squares", [[1e154, 1e154], [1e154, 1e154]], norm)
    if norm is NormKind.SUP:
        assert strong_moment_ratio(squares, squares).lhs == 1e154
        # the supremum over the columns +-(1e308, 7e307) sums half-spans 1.7e308 and 3e307, which overflow
        wide = VectorSystem("wide", [[1e308, -1e308], [7e307, -7e307]], norm)
        message = r"^the l1 norm of row 0 overflows float64 summed over 2\^1 sign patterns$"
        with pytest.raises(ParameterError, match=message):
            strong_moment_ratio(wide, wide)
    else:
        with pytest.raises(ParameterError, match="^the euclidean norms of the sign sums of system 'squares'"):
            strong_moment_ratio(squares, squares)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("terms", [EXACT_ENUMERATION_MAX_DIM, EXACT_ENUMERATION_MAX_DIM + 1])
@pytest.mark.parametrize("norm", list(NormKind))
def test_both_strong_moment_routes_reject_an_overflowing_system_alike(norm, terms):
    # 20 terms are enumerated and 21 drawn; both routes fail with one message and no warning
    ones = VectorSystem("ones", np.ones((terms, 2)), norm)
    with pytest.raises(ParameterError, match="^the l1 norm of coordinate 0 overflows float64$"):
        strong_moment_ratio(VectorSystem("huge", np.full((terms, 2), 1e308), norm), ones, samples=100)
    if norm is NormKind.EUCLIDEAN:  # columns whose l1 norms fit float64, sign sums whose norms do not
        wide = VectorSystem("wide", np.full((terms, 2), 1e200), norm)
        with pytest.raises(ParameterError, match="^the euclidean norms of the sign sums of system 'wide' overflow float64$"):
            strong_moment_ratio(wide, ones, samples=100)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_monte_carlo_strong_moment_variance_fails_after_the_draws():
    # euclidean norms of at most 21 * 5e152 fit float64 squared, 1000 squared deviations from their mean do not
    wide = VectorSystem("wide", np.full((EXACT_ENUMERATION_MAX_DIM + 1, 1), 5e152), NormKind.EUCLIDEAN)
    with pytest.raises(ParameterError, match="^the euclidean norms of the sign sums of system 'wide' overflow "
                                             "float64 in the Monte Carlo variance$"):
        strong_moment_ratio(wide, wide, samples=1000)
    fits = VectorSystem("fits", wide.matrix * 1e-50, NormKind.EUCLIDEAN)
    est = strong_moment_ratio(fits, fits, samples=1000)
    assert math.isfinite(est.lhs) and math.isfinite(est.lhs_stderr)


@pytest.mark.filterwarnings("error")
def test_a_monte_carlo_sup_norm_strong_moment_fails_the_l2_check_before_the_draws():
    # sup norms of at most 21e200 fit float64, but each signed column's l2 norm
    # overflows, so the supremum's check refuses it before the draws
    wide = VectorSystem("wide", np.full((EXACT_ENUMERATION_MAX_DIM + 1, 2), 1e200), NormKind.SUP)
    with pytest.raises(ParameterError, match="^the l2 norm of row 0 overflows float64$"):
        strong_moment_ratio(wide, wide, samples=100)
    fits = VectorSystem("fits", wide.matrix * 1e-50, NormKind.SUP)
    est = strong_moment_ratio(fits, fits, samples=100)
    assert est.lhs_label == "E||sum eps x|| [monte-carlo]"
    assert math.isfinite(est.lhs) and math.isfinite(est.lhs_stderr)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1000, max_value=1023),
    st.integers(min_value=0, max_value=2**32),
)
def test_every_set_that_sums_finitely_keeps_its_bits(d, n, exponent, seed):
    ts = _distinct(np.ldexp(_matrix(seed, (n, d), "generic"), exponent - 2))
    with np.errstate(all="ignore"):
        want = reference_bernoulli_sup(ts.matrix)
    if math.isfinite(want):
        assert _bits(brute_force_bernoulli_sup(ts).value) == _bits(want)
    else:
        with pytest.raises(ParameterError, match="overflows float64"):
            brute_force_bernoulli_sup(ts)


@pytest.mark.parametrize("argv", [["--exact"], ["--kind", "gaussian", "--samples", "100"]])
def test_sup_on_an_overflowing_point_exits_2_without_a_report(tmp_path, capsys, argv):
    set_path, out = tmp_path / "huge.set", tmp_path / "sup.json"
    save_set(_HUGE, set_path)
    assert cli.run(["sup", "--set", str(set_path), *argv, "--out", str(out)]) == 2
    assert "row 1 overflows float64" in capsys.readouterr().err
    assert not out.exists()


# --- the point limit ---


def test_exact_suprema_stop_at_2_32_sign_sums_before_enumerating(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("procsup.suprema.sign_mean", None)  # reached only within the limit
    rows = np.random.default_rng(5).standard_normal((8193, 20))
    assert EXACT_SUP_MAX_SUMS == 8192 << 19
    with pytest.raises(TypeError):  # 8 192 points at d=20: exactly the limit, so it enumerates
        brute_force_bernoulli_sup(FiniteSet(name="at", points=rows[:-1]))
    message = (r"^exact Bernoulli supremum needs dim <= 20 and \|T\|\*2\^\(d-1\) <= 2\^32 sign sums, "
               r"got 8193\*2\^19$")
    with pytest.raises(CapacityError, match=message):
        brute_force_bernoulli_sup(FiniteSet(name="over", points=rows))
    set_path, out = tmp_path / "over.set", tmp_path / "sup.json"
    save_set(FiniteSet(name="over", points=rows), set_path)
    assert cli.run(["sup", "--set", str(set_path), "--exact", "--out", str(out)]) == 2
    assert "got 8193*2^19" in capsys.readouterr().err
    assert not out.exists()
    # without --exact, the automatic route falls back to Monte Carlo above the sums cap
    assert cli.run(["sup", "--set", str(set_path), "--samples", "2000", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["method"] == "monte-carlo"


@pytest.mark.parametrize("norm, at, module", [
    (NormKind.SUP, 4096, "suprema"),  # 2 * 4 096 signed columns at d = 20: exactly the limit
    (NormKind.EUCLIDEAN, 8192, "oleszkiewicz"),  # 20 terms at dim 8 192: exactly the limit
])
def test_strong_moments_stop_at_2_32_sign_sums_before_enumerating(monkeypatch, norm, at, module):
    monkeypatch.setattr(f"procsup.{module}.sign_mean", None)  # reached only within the limit
    vectors = np.random.default_rng(6).standard_normal((20, at + 1))
    with pytest.raises(TypeError):  # at the limit, so it enumerates
        strong_moment_ratio(*[VectorSystem("at", vectors[:, :-1], norm)] * 2, samples=2000)
    over = VectorSystem("over", vectors, norm)
    report = strong_moment_ratio(over, over, samples=2000)
    assert (report.lhs_label, report.rhs_label) == ("E||sum eps x|| [monte-carlo]", "E||sum eps y|| [monte-carlo]")
    assert report.lhs_stderr > 0.0
