import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from procsup import moments, oleszkiewicz, rng
from procsup.core import EXACT_ENUMERATION_MAX_DIM, FiniteSet, ProcessKind, Seed
from procsup.errors import ParameterError, ParseError, ValidationError
from procsup.moments import bernoulli_exact_norms, proxy_norms
from procsup.oleszkiewicz import (
    FunctionalSample,
    NormKind,
    VectorSystem,
    WeakMomentResult,
    check_weak_contraction,
    _check_sysmatch,
    _exact_strong_moment,
    _mc_strong_moment,
    generate_functionals,
    load_vector_system,
    save_vector_system,
    strong_moment_ratio,
    weak_moment_constant,
)
from procsup.reports import safe_ratio
from procsup.suprema import EstimateMethod, SupEstimate, brute_force_bernoulli_sup, expected_sup, mc_sup

from weak_contraction_reference import reference_check_weak_contraction


def _basis_system(dim, scale=1.0, norm=NormKind.SUP):
    return VectorSystem(name=f"basis-{dim}-{scale}", vectors=scale * np.eye(dim), norm=norm)


def _random_system(seed, terms, dim, norm=NormKind.SUP):
    gen = rng.stream(seed, "ole-test")
    rows = rng.standard_normal(gen, (terms, dim))
    return VectorSystem(name=f"rand-{seed}", vectors=rows, norm=norm)


def test_system_validation():
    with pytest.raises(ValidationError):
        VectorSystem(name="empty", vectors=(), norm=NormKind.SUP)
    with pytest.raises(ValidationError):
        VectorSystem(name="mixed", vectors=([1.0], [1.0, 2.0]), norm=NormKind.SUP)


def test_functionals_live_in_the_dual_ball():
    for norm in NormKind:
        sample = generate_functionals(norm, 5, 12, Seed(3))
        assert len(sample) == 2 * 5 + 12
        assert sample.matrix.shape == (2 * 5 + 12, 5) and not sample.matrix.flags.writeable
        for arr in sample.matrix:
            dual = np.abs(arr).sum() if norm is NormKind.SUP else np.linalg.norm(arr)
            assert dual <= 1.0 + 1e-9


@pytest.mark.parametrize("dim, extra, message", [
    (2.5, 1, "dim must be an integer, got 2.5"),
    (3, 1.0, "extra must be an integer, got 1.0"),
])
def test_functionals_take_integer_sizes(dim, extra, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        generate_functionals(NormKind.SUP, dim, extra, Seed(0))


def test_functionals_deterministic():
    a = generate_functionals(NormKind.SUP, 4, 6, Seed(1))
    b = generate_functionals(NormKind.SUP, 4, 6, Seed(1))
    assert a.matrix.tobytes() == b.matrix.tobytes()


def test_functionals_hold_one_basis_matrix():
    # a row view of a fresh identity matrix per functional would keep dim of them alive: 64 MB at dim 200
    tracemalloc.start()
    try:
        sample = generate_functionals(NormKind.SUP, 200, 0, Seed(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.matrix[:2].tolist() == [[1.0] + [0.0] * 199, [-1.0] + [-0.0] * 199]
    assert peak < 4 << 20


def test_functional_sample_is_one_validated_matrix():
    with pytest.raises(ValidationError, match=r"^functional 1 has dual norm 1.5 > 1$"):
        FunctionalSample(functionals=[[1.0, 0.0], [0.5, -1.0]], norm=NormKind.SUP)
    with pytest.raises(ValidationError, match="^functional sample has no functionals$"):
        FunctionalSample(functionals=[], norm=NormKind.SUP)
    with pytest.raises(ValidationError, match="functional 0: coordinate 1 is not finite"):
        FunctionalSample(functionals=[[0.0, math.nan]], norm=NormKind.EUCLIDEAN)
    rows = np.array([[0.6, 0.8]])
    sample = FunctionalSample(functionals=rows, norm=NormKind.EUCLIDEAN)
    rows[0, 0] = 9.0  # the sample holds its own copy
    assert sample.matrix.tolist() == [[0.6, 0.8]] and not sample.matrix.flags.writeable
    assert len(sample) == 1


def test_weak_constant_on_halved_system():
    y = _random_system(5, 6, 4)
    x = VectorSystem(
        name="half",
        vectors=0.5 * y.matrix,
        norm=NormKind.SUP,
    )
    funcs = generate_functionals(NormKind.SUP, 4, 8, Seed(2))
    weak = weak_moment_constant(x, y, funcs)
    assert weak.value == pytest.approx(0.5, rel=1e-12)
    strong = strong_moment_ratio(x, y)
    assert strong.ratio == pytest.approx(0.5, rel=1e-12)
    report = check_weak_contraction(x, y, funcs)
    assert report.c_star == pytest.approx(1.0, abs=1e-4)


def test_weak_constant_reports_infinity_when_y_degenerate():
    x = _basis_system(3)
    # term counts must match x; repeated terms are legal in a series
    y = VectorSystem(name="zeros", vectors=np.zeros((3, 3)), norm=NormKind.SUP)
    funcs = generate_functionals(NormKind.SUP, 3, 0, Seed(0))
    weak = weak_moment_constant(x, y, funcs)
    assert math.isinf(weak.value)
    report = check_weak_contraction(x, y, funcs)
    assert report.c_star is None  # nothing contracts 0 onto a nonzero vector


def test_strong_moment_exact_sup_norm_of_basis_is_one():
    sys_ = _basis_system(4)
    report = strong_moment_ratio(sys_, sys_)
    assert report.lhs == pytest.approx(1.0, abs=1e-14)
    assert report.ratio == pytest.approx(1.0, rel=1e-14)
    assert "exact" in report.lhs_label
    signed = FiniteSet(name="+-e", points=np.concatenate([np.eye(4), -np.eye(4)]))
    assert brute_force_bernoulli_sup(signed) == SupEstimate(report.lhs, 0.0, EstimateMethod.EXACT)


def test_strong_moment_exact_euclidean_of_basis_is_sqrt_dim():
    sys_ = _basis_system(5, norm=NormKind.EUCLIDEAN)
    report = strong_moment_ratio(sys_, sys_)
    assert report.lhs == pytest.approx(math.sqrt(5.0), rel=1e-14)
    assert _exact_strong_moment(sys_) == SupEstimate(report.lhs, 0.0, EstimateMethod.EXACT)


def _signed_columns(sys_):
    cols = sys_.matrix.T
    return FiniteSet(name="cols", points=np.concatenate([cols, -cols]))


def test_strong_moment_cross_checks_against_sign_supremum():
    # E || sum_i eps_i x_i ||_sup is E sup over the +/- coordinate columns of the term matrix
    sys_ = _random_system(8, terms=6, dim=3)
    report = strong_moment_ratio(sys_, sys_)
    assert report.lhs == brute_force_bernoulli_sup(_signed_columns(sys_)).value


@pytest.mark.parametrize("norm", list(NormKind))
def test_strong_moment_mc_route_for_many_terms(norm):
    sys_ = _random_system(9, terms=25, dim=3, norm=norm)
    report = strong_moment_ratio(sys_, sys_, samples=5000, seed=Seed(1))
    assert (report.lhs_label, report.rhs_label) == ("E||sum eps x|| [monte-carlo]", "E||sum eps y|| [monte-carlo]")
    assert report.ratio == pytest.approx(1.0, rel=1e-12)  # same content hash, same draws
    if norm is NormKind.SUP:
        est = mc_sup(ProcessKind.BERNOULLI, _signed_columns(sys_), 5000, Seed(1))
    else:
        est = _mc_strong_moment(sys_, 5000, Seed(1))
    assert est == SupEstimate(report.lhs, report.lhs_stderr, EstimateMethod.MONTE_CARLO, 5000)
    assert report.rhs_stderr == report.lhs_stderr > 0.0


@pytest.mark.parametrize("terms", [6, EXACT_ENUMERATION_MAX_DIM + 1])
def test_a_sup_norm_side_is_one_expected_sup_call(monkeypatch, terms):
    calls = []

    def recording(kind, ts, samples, seed, exact=False):
        calls.append((kind, ts.matrix, samples, seed, exact))
        return expected_sup(kind, ts, samples, seed, exact)

    monkeypatch.setattr(oleszkiewicz, "expected_sup", recording)
    monkeypatch.setattr(oleszkiewicz, "_exact_strong_moment", None)  # neither private route is reached
    monkeypatch.setattr(oleszkiewicz, "_mc_strong_moment", None)
    x = _random_system(10, terms, 3)
    c = x.matrix[:, 0]
    # a zero column (signed), a repeat and a negation: the points c, 0 and -c, each once
    y = VectorSystem("y", np.column_stack([c, np.full(terms, -0.0), c, -c]), NormKind.SUP)
    report = strong_moment_ratio(x, y, samples=2000, seed=Seed(5))
    assert [call[0::2] for call in calls] == [(ProcessKind.BERNOULLI, 2000, False)] * 2
    assert [call[3] for call in calls] == [Seed(5)] * 2
    xs, ys = calls[0][1], calls[1][1]
    assert xs.tobytes() == np.concatenate([x.matrix.T, -x.matrix.T]).tobytes()
    assert ys.tobytes() == np.stack([c, np.zeros(terms), -c]).tobytes()  # +0.0, not -0.0
    method = "exact" if terms <= EXACT_ENUMERATION_MAX_DIM else "monte-carlo"
    assert report.lhs_label == f"E||sum eps x|| [{method}]"


def test_norm_mismatch_rejected():
    a = _basis_system(3, norm=NormKind.SUP)
    b = _basis_system(3, norm=NormKind.EUCLIDEAN)
    with pytest.raises(ParameterError):
        strong_moment_ratio(a, b)


def test_system_save_load_roundtrip(tmp_path):
    sys_ = _random_system(4, terms=3, dim=4, norm=NormKind.EUCLIDEAN)
    path = tmp_path / "sys.json"
    save_vector_system(sys_, path)
    back = load_vector_system(path)
    assert back.matrix.tobytes() == sys_.matrix.tobytes()
    assert back.norm is sys_.norm
    doc = {"format": "vector-system", "version": 1, "name": sys_.name, "norm": "euclidean",
           "dim": 4, "vectors": sys_.matrix.tolist()}
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"


def test_system_load_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError, match="no such file"):
        load_vector_system(missing)
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"format": "finite-set"}')
    with pytest.raises(ParseError, match="not a vector-system file"):
        load_vector_system(wrong)


@pytest.mark.parametrize(
    "dim, rows, match",
    [
        (True, [["1e3"], [True]], "dim"),
        (0, [], "dim"),
        (1, [["1e3"]], "vector 0"),
        (1, [[1.0], [True]], "vector 1"),
        (2, [[1.0, 2.0], [None, 3.0]], "vector 1"),
    ],
)
def test_system_load_rejects_values_it_would_have_to_coerce(tmp_path, dim, rows, match):
    path = tmp_path / "strict.json"
    doc = {"format": "vector-system", "version": 1, "norm": "sup", "dim": dim, "vectors": rows}
    path.write_text(json.dumps(doc))
    with pytest.raises((ParseError, ValidationError), match=match):
        load_vector_system(path)


# --- weak moments: every order from one route call per distinct vector ---


def _reference_coefficient_norm(coeffs, p):
    # The one-order helper that weak_moment_constant used to call per order.
    row = coeffs[None, :]
    if coeffs.size <= EXACT_ENUMERATION_MAX_DIM:
        return bernoulli_exact_norms(row, (p,))[0, 0]
    return proxy_norms(row, p)[2][0]


def _reference_weak_moment_constant(x_sys, y_sys, funcs, p_max=8):
    # The per-order loop weak_moment_constant replaced, kept verbatim.
    _check_sysmatch(x_sys, y_sys, funcs)
    best = WeakMomentResult(0.0, -1, 0, 0.0, 0.0)
    for k, w in enumerate(funcs.matrix):
        a = x_sys.matrix @ w
        b = y_sys.matrix @ w
        for p in range(1, p_max + 1):
            num = _reference_coefficient_norm(a, p)
            den = _reference_coefficient_norm(b, p)
            if num == 0.0 and den == 0.0:
                continue
            ratio = safe_ratio(num, den)
            if ratio > best.value:
                best = WeakMomentResult(ratio, k, p, num, den)
    return best


def _with_repeats(funcs, picks):
    """``funcs`` plus, for each ``(index, sign)`` pick, that functional again times the sign."""
    rows = list(funcs.matrix)
    rows += [sign * rows[i % len(rows)] for i, sign in picks]
    return FunctionalSample(functionals=rows, norm=funcs.norm)


grid = st.integers(min_value=-2, max_value=2).map(float)
wide = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@given(
    st.sampled_from([1, 2, 3, 5, 8, 10, 21, 23]),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(list(NormKind)),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=3),
    st.lists(st.tuples(st.integers(0, 50), st.sampled_from([1.0, -1.0])), max_size=6),
    st.data(),
)
def test_weak_moment_constant_matches_the_per_order_loop(terms, dim, norm, p_max, extra, picks, data):
    entries = data.draw(st.sampled_from([grid, wide]))
    x = data.draw(st.lists(entries, min_size=terms * dim, max_size=terms * dim))
    y = data.draw(st.lists(entries, min_size=terms * dim, max_size=terms * dim))
    x_sys = VectorSystem(name="x", vectors=np.reshape(x, (terms, dim)), norm=norm)
    y_sys = VectorSystem(name="y", vectors=np.reshape(y, (terms, dim)), norm=norm)
    funcs = _with_repeats(generate_functionals(norm, dim, extra, Seed(terms)), picks)
    assert weak_moment_constant(x_sys, y_sys, funcs, p_max) == _reference_weak_moment_constant(
        x_sys, y_sys, funcs, p_max
    )


def test_weak_moment_constant_matches_the_per_order_loop_at_twenty_terms():
    x_sys, y_sys = _random_system(11, 20, 2), _random_system(12, 20, 2)
    funcs = generate_functionals(NormKind.SUP, 2, 0, Seed(0))
    got = weak_moment_constant(x_sys, y_sys, funcs, p_max=3)
    assert got == _reference_weak_moment_constant(x_sys, y_sys, funcs, p_max=3)


def test_weak_moment_constant_takes_exact_orders_up_to_1024_at_twenty_terms():
    x_sys, y_sys = _random_system(11, 20, 2), _random_system(12, 20, 2)
    funcs = generate_functionals(NormKind.SUP, 2, 0, Seed(0))
    with pytest.raises(ParameterError, match="^exact Bernoulli norms need an integer moment order 1 <= p <= 1024, got "
                                             "1025$"):
        weak_moment_constant(x_sys, y_sys, funcs, p_max=1025)


@pytest.mark.parametrize("p_max", [2.5, True])
def test_both_weak_analyses_reject_a_non_integer_p_max(p_max):
    x_sys, y_sys = _random_system(11, 4, 2), _random_system(12, 4, 2)
    funcs = generate_functionals(NormKind.SUP, 2, 0, Seed(0))
    for analysis in (weak_moment_constant, check_weak_contraction):
        with pytest.raises(ParameterError, match=f"^p_max must be an integer, got {p_max!r}$"):
            analysis(x_sys, y_sys, funcs, p_max=p_max)


def test_weak_moment_constant_evaluates_each_vector_once_up_to_sign(monkeypatch):
    # dim 6 gives the 12 signed basis functionals, which pair up, plus 4
    # extras: 10 distinct coefficient vectors per system, one row each.
    rows, passes = [], []

    def counting(ts, scales, qs):
        rows.append(len(ts))
        return np.zeros((len(ts), len(qs)))  # count the rows only; every odd-order norm then reads 0

    monkeypatch.setitem(moments._EXACT_ROUTES, "meet-in-the-middle", counting)
    monkeypatch.setattr(moments, "signed_row_sums", lambda m, *args, **kwargs: passes.append(m.shape) or iter(()))
    x_sys, y_sys = _random_system(1, 20, 6), _random_system(2, 20, 6)
    funcs = generate_functionals(NormKind.SUP, 6, 4, Seed(3))
    weak_moment_constant(x_sys, y_sys, funcs, p_max=8)
    assert rows == [20] and passes == []  # one call; the odd orders 1, 3, 5, 7 enumerate nothing
    rows.clear()
    _reference_weak_moment_constant(x_sys, y_sys, funcs, p_max=8)
    assert rows == [1] * (16 * 4 * 2) and passes == []  # one call per functional, system and odd order


# --- weak contraction branches: zero image vectors, an infeasible functional, all-zero images ---


def _weak_pair(x_rows):
    y = VectorSystem(name="y", vectors=[[1.0, 2.0], [1.0, 1.0]], norm=NormKind.SUP)
    return VectorSystem(name="x", vectors=x_rows, norm=NormKind.SUP), y, generate_functionals(NormKind.SUP, 2, 0, Seed(0))


def test_weak_contraction_gives_a_zero_image_vector_one_and_never_the_worst():
    # +-e_0 see x's zero column: nothing to dominate, so 1.0; the worst is the first fitted functional
    report = check_weak_contraction(*_weak_pair([[0.0, 1.0], [0.0, 0.5]]))
    assert report.context == {"worst_functional": 2, "functional": [0.0, 1.0], "per_functional_c": [1.0] * 4}
    assert (report.c_star, report.p_max, report.worst_pair, report.margin) == (1.0, 2, (0, 1, 2), 0.0)


def test_weak_contraction_stops_at_the_first_infeasible_functional():
    report = check_weak_contraction(*_weak_pair([[5000.0, 10000.0], [5000.0, 5000.0]]))
    assert report.context == {"worst_functional": 0, "functional": [1.0, 0.0], "per_functional_c": ["infeasible"]}
    assert (report.c_star, report.worst_pair, report.margin) == (None, (0, 1, 0), 47902848.0)


def test_weak_contraction_of_all_zero_images_is_one_at_the_first_functional():
    report = check_weak_contraction(*_weak_pair([[0.0, 0.0], [0.0, 0.0]]))
    assert report.context == {"worst_functional": 0, "functional": [1.0, 0.0], "per_functional_c": [1.0] * 4}
    assert (report.c_star, report.p_max, report.worst_pair, report.margin) == (1.0, 2, (0, 1, 0), 0.0)


_coefficients = st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.0, 0.5, -3.0])


@st.composite
def _weak_cases(draw):
    """Small systems with zero columns, repeated rows, zero source or image rows, all-zero images and, with
    the image scaled by 4096, images that no constant up to ``FIT_CAP`` lets the source dominate."""
    norm = draw(st.sampled_from(list(NormKind)))
    terms, dim = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rows = st.lists(st.lists(_coefficients, min_size=dim, max_size=dim), min_size=terms, max_size=terms)
    x, y = np.array(draw(rows)), np.array(draw(rows))
    x *= draw(st.sampled_from([1.0, 4096.0]))
    for m in (x, y):
        if draw(st.booleans()):
            m[:, draw(st.integers(0, dim - 1))] = 0.0  # the signed basis functionals of this column read 0
        if draw(st.booleans()):
            m[-1] = m[0]
    blank = draw(st.sampled_from([None, x, y]))
    if blank is not None:
        blank[:] = 0.0  # every image row zero, or every source row zero
    funcs = generate_functionals(norm, dim, draw(st.integers(0, 3)), Seed(draw(st.integers(0, 99))))
    p_max = draw(st.one_of(st.none(), st.integers(0, terms + 2)))
    return VectorSystem("x", x, norm), VectorSystem("y", y, norm), funcs, p_max


@given(_weak_cases())
@example((*_weak_pair([[5000.0, 10000.0], [5000.0, 5000.0]]), None))  # infeasible under a nonzero source
@example((*_weak_pair([[0.0, 1.0], [0.0, 0.5]]), 1))
def test_weak_contraction_matches_the_set_building_reference(case):
    x_sys, y_sys, funcs, p_max = case
    got = check_weak_contraction(x_sys, y_sys, funcs, p_max).to_dict()
    want = reference_check_weak_contraction(x_sys, y_sys, funcs, p_max).to_dict()
    worst = funcs.matrix[want["context"]["worst_functional"]]
    if want["c_star"] == "infeasible" and not (y_sys.matrix @ worst).any():
        # a zero source row: the fitter's squared norm in place of np.dot
        assert got.pop("margin") == pytest.approx(want.pop("margin"), rel=1e-12)
    assert got == want


def test_weak_contraction_of_an_overflowing_coefficient_is_a_parameter_error():
    # 0.6 * 1.7e308 + 0.8 * 1.7e308 overflows to inf
    x = VectorSystem(name="x", vectors=[[1.7e308, 1.7e308], [0.0, 1.0]], norm=NormKind.EUCLIDEAN)
    y = VectorSystem(name="y", vectors=[[1.0, 1.0], [1.0, 0.0]], norm=NormKind.EUCLIDEAN)
    funcs = FunctionalSample(functionals=[[0.6, 0.8]], norm=NormKind.EUCLIDEAN)
    with np.errstate(over="ignore"):  # the matrix products of the reference warn
        assert math.isinf((x.matrix @ funcs.matrix[0])[0])
        with pytest.raises(ValidationError, match="is not finite"):
            reference_check_weak_contraction(x, y, funcs)
    with pytest.raises(ParameterError, match=r"^coefficient <w_0, X> of system 'x' overflows float64$"):
        check_weak_contraction(x, y, funcs)


def test_weak_contraction_checks_every_coefficient_before_the_first_fit():
    # <w_0, .> reads the last column, where x = 5000 y: infeasible; <w_1, X> overflows to inf
    x = VectorSystem(name="x", vectors=[[1.7e308, 1.7e308, 5000.0], [0.0, 1.0, 5000.0]], norm=NormKind.EUCLIDEAN)
    y = VectorSystem(name="y", vectors=[[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]], norm=NormKind.EUCLIDEAN)
    first = FunctionalSample(functionals=[[0.0, 0.0, 1.0]], norm=NormKind.EUCLIDEAN)
    assert check_weak_contraction(x, y, first).c_star is None
    funcs = FunctionalSample(functionals=[[0.0, 0.0, 1.0], [0.6, 0.8, 0.0]], norm=NormKind.EUCLIDEAN)
    with pytest.raises(ParameterError, match=r"^coefficient <w_1, X> of system 'x' overflows float64$"):
        check_weak_contraction(x, y, funcs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("side", ["x", "y"])
def test_weak_moments_of_an_overflowing_coefficient_name_the_functional_and_the_system(side):
    # <w_1, .> = 0.6 * 1.7e308 + 0.8 * 1.7e308 overflows to inf; <w_0, .> fits
    huge = VectorSystem(name="huge", vectors=[[1.7e308, 1.7e308], [0.0, 1.0]], norm=NormKind.EUCLIDEAN)
    ones = VectorSystem(name="ones", vectors=[[1.0, 1.0], [1.0, 0.0]], norm=NormKind.EUCLIDEAN)
    funcs = FunctionalSample(functionals=[[1.0, 0.0], [0.6, 0.8]], norm=NormKind.EUCLIDEAN)
    systems, letter = ((huge, ones), "X") if side == "x" else ((ones, huge), "Y")
    with pytest.raises(ParameterError, match=rf"^coefficient <w_1, {letter}> of system 'huge' overflows float64$"):
        weak_moment_constant(*systems, funcs)


@pytest.mark.parametrize("y_rows, y_norm, funcs, message", [
    ([[1.0, 0.0]], NormKind.SUP, (NormKind.SUP, 2), "systems have 2 vs 1 terms"),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], NormKind.SUP, (NormKind.SUP, 2), "systems have ambient dims 2 vs 3"),
    ([[1.0, 0.0], [0.0, 1.0]], NormKind.EUCLIDEAN, (NormKind.SUP, 2), "systems must share one ambient norm"),
    ([[1.0, 0.0], [0.0, 1.0]], NormKind.SUP, (NormKind.EUCLIDEAN, 2), "functional sample was drawn for a different norm"),
    ([[1.0, 0.0], [0.0, 1.0]], NormKind.SUP, (NormKind.SUP, 3), "functionals do not match the ambient dimension"),
])
def test_mismatched_systems_and_functionals_are_named(y_rows, y_norm, funcs, message):
    x = _basis_system(2)
    y = VectorSystem(name="y", vectors=y_rows, norm=y_norm)
    sample = generate_functionals(*funcs, 0, Seed(0))
    with pytest.raises(ParameterError, match=f"^{message}$"):
        _check_sysmatch(x, y, sample)
