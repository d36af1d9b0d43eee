"""The sign enumerator's block layout moves no bits, and overflowing sets fail fast.

``signed_row_sums`` lays its blocks out point-major when the first block
holds at least ``_POINT_MAJOR_PATTERNS`` sign patterns per column, and
row-major otherwise or on request (the euclidean strong moment asks).
Every block must hold the same values as the row-major reference enumerator
(``tests/enumeration_reference.py``), and the exact supremum, strong moment
and enumerated norm must keep the reference's bits: on both sides of the
layout switch and exactly at it, over many blocks and one-pattern blocks,
with signed zeros and tied coordinates, and under both ambient norms.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from procsup import cli, moments, oleszkiewicz, rng
from procsup.core import EXACT_ENUMERATION_MAX_DIM, FiniteSet, ProcessKind, Seed, save_set
from procsup.errors import CapacityError, ParameterError
from procsup.moments import _POINT_MAJOR_PATTERNS, bernoulli_exact_norms, signed_row_sums
from procsup.oleszkiewicz import (
    NormKind,
    VectorSystem,
    _exact_strong_moment,
    _mc_strong_moment,
    strong_moment_ratio,
)
from procsup.suprema import EXACT_SUP_MAX_SUMS, brute_force_bernoulli_sup, mc_sup

from enumeration_reference import (
    reference_bernoulli_sup,
    reference_enumerated_norm,
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


def _patched(block_bytes: int | None):
    return mock.patch.object(moments, "_BLOCK_BYTES", block_bytes or moments._BLOCK_BYTES)


layouts = st.tuples(
    st.integers(min_value=1, max_value=14),
    st.sampled_from(["at", "above", "below", "drawn"]),
    st.integers(min_value=1, max_value=300),
    st.sampled_from(["default", "one", "switch", "half-switch"]),
    st.sampled_from(["generic", "ties", "zeros"]),
    st.integers(min_value=0, max_value=2**32),
)


def _bits(x: float) -> str:
    return float(x).hex()


@given(layouts)
def test_blocks_hold_the_reference_values_in_their_layout(case):
    d, where, drawn, rows, style, seed = case
    n = min(_point_count(d, where, drawn), 300)
    m = _matrix(seed, (d, n), style)
    with _patched(_block_bytes(n, rows)):
        got, want = list(signed_row_sums(m)), list(reference_signed_row_sums(m))
        row_major = list(signed_row_sums(m, row_major=True))
    point_major = len(got[0]) >= _POINT_MAJOR_PATTERNS * n  # the first block is the largest
    for block, ref, row_block in zip(got, want, row_major, strict=True):
        assert block.shape == ref.shape
        assert np.ascontiguousarray(block).tobytes() == ref.tobytes()  # signed zeros included
        assert block.T.flags.c_contiguous if point_major else block.flags.c_contiguous
        assert row_block.flags.c_contiguous and row_block.tobytes() == ref.tobytes()


@given(layouts)
def test_exact_supremum_keeps_the_reference_bits(case):
    d, where, drawn, rows, style, seed = case
    n = min(_point_count(d, where, drawn), 300)
    ts = _distinct(_matrix(seed, (n, d), style))
    with _patched(_block_bytes(len(ts), rows)):
        assert _bits(brute_force_bernoulli_sup(ts).value) == _bits(reference_bernoulli_sup(ts.matrix))


@given(
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=1, max_value=12),
    st.sampled_from(["sup", "euclidean"]),
    st.sampled_from(["default", "one", "switch", "half-switch"]),
    st.sampled_from(["generic", "ties", "zeros"]),
    st.integers(min_value=0, max_value=2**32),
)
def test_exact_strong_moment_keeps_the_reference_bits(terms, dim, norm, rows, style, seed):
    vectors = _matrix(seed, (terms, dim), style)
    system = VectorSystem("layout", vectors, NormKind(norm))
    with _patched(_block_bytes(dim, rows)):
        assert _bits(_exact_strong_moment(system)) == _bits(reference_strong_moment(system.matrix, norm))


@pytest.mark.parametrize("norm", ["sup", "euclidean"])
@pytest.mark.parametrize("dim", [7, 8, 9, 16])
def test_ambient_norms_of_every_block_keep_the_reference_bits(monkeypatch, norm, dim):
    # numpy sums 8 or more squares pairwise along a contiguous row and in
    # sequence across rows, so a point-major block must not reach the
    # euclidean norm.  A total over many patterns rounds most such one-ulp
    # differences away, so compare every pattern's norm.
    blocks = []

    def recording(m, **layout):
        for block in signed_row_sums(m, **layout):
            blocks.append(block)
            yield block

    monkeypatch.setattr(oleszkiewicz, "signed_row_sums", recording)
    system = VectorSystem("wide", _matrix(dim, (14, dim), "generic"), NormKind(norm))
    _exact_strong_moment(system)
    assert blocks[0].T.flags.c_contiguous == (norm == "sup")  # the sup norm reduces point-major blocks
    for block, ref in zip(blocks, reference_signed_row_sums(system.matrix), strict=True):
        assert system.norm_of(block).tobytes() == reference_norm_of(norm, ref).tobytes()


@given(
    st.integers(min_value=1, max_value=14),
    st.sampled_from([1.5, 2.5, 33]),  # the orders enumeration still serves
    st.sampled_from(["default", "one", "switch"]),
    st.sampled_from(["generic", "ties", "zeros"]),
    st.integers(min_value=0, max_value=2**32),
)
def test_enumerated_norms_keep_the_reference_bits(d, q, rows, style, seed):
    t = _matrix(seed, (1, d), style)[0]
    if not np.abs(t).sum():
        t[0] = 1.0
    with _patched(_block_bytes(1, rows)):
        assert _bits(bernoulli_exact_norms(t[None, :], (q,))[0, 0]) == _bits(reference_enumerated_norm(t, q))


# --- sets whose sums leave float64 ---

_HUGE = FiniteSet(name="huge", points=np.array([[1.0, 0.0], [1e308, 1e308]]))


@pytest.mark.filterwarnings("error")
def test_an_overflowing_point_fails_before_the_enumeration(monkeypatch):
    monkeypatch.setattr("procsup.suprema.signed_row_sums", None)  # never reached
    with pytest.raises(ParameterError, match="^the l1 norm of row 1 overflows float64$"):
        brute_force_bernoulli_sup(_HUGE)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_total_of_spans_fails_after_the_enumeration():
    with pytest.raises(ParameterError, match=r"^the l1 norm of row 0 overflows float64 summed over 2\^0 sign"):
        brute_force_bernoulli_sup(FiniteSet(name="wide", points=np.array([[1e308], [-1e308]])))
    # Spans that fit keep their value, however close to the limit.
    assert brute_force_bernoulli_sup(FiniteSet(name="edge", points=np.array([[1e308], [0.0]]))).value == 5e307


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
    with pytest.raises(ParameterError, match="^the l1 norm of coordinate 0 overflows float64$"):
        _exact_strong_moment(VectorSystem("huge", [[1e308], [1e308]], norm))
    squares = VectorSystem("squares", [[1e154, 1e154], [1e154, 1e154]], norm)
    if norm is NormKind.SUP:
        assert _exact_strong_moment(squares) == 1e154
    else:
        with pytest.raises(ParameterError, match="^the euclidean norms of the sign sums of system 'squares'"):
            _exact_strong_moment(squares)


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
    # sup norms of at most 21e200 fit float64, their squared spread does not
    wide = VectorSystem("wide", np.full((EXACT_ENUMERATION_MAX_DIM + 1, 2), 1e200), NormKind.SUP)
    with pytest.raises(ParameterError, match="^the sup norms of the sign sums of system 'wide' overflow float64 "
                                             "in the Monte Carlo variance$"):
        _mc_strong_moment(wide, 100, Seed(1))
    mean, stderr = _mc_strong_moment(VectorSystem("fits", wide.matrix * 1e-50, NormKind.SUP), 100, Seed(1))
    assert math.isfinite(mean) and math.isfinite(stderr)


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
    monkeypatch.setattr("procsup.suprema.signed_row_sums", None)  # reached only within the limit
    rows = np.random.default_rng(5).standard_normal((8193, 20))
    assert EXACT_SUP_MAX_SUMS == 8192 << 19
    with pytest.raises(TypeError):  # 8 192 points at d=20: exactly the limit, so it enumerates
        brute_force_bernoulli_sup(FiniteSet(name="at", points=rows[:-1]))
    message = r"^exact Bernoulli supremum needs \|T\|\*2\^\(d-1\) <= 2\^32 sign sums, got 8193\*2\^19$"
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
