import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from procsup import moments, rng
from procsup.core import EXACT_ENUMERATION_MAX_DIM, FiniteSet, Point, Seed
from procsup.errors import ParameterError, ParseError, ValidationError
from procsup.moments import bernoulli_norm_exact, bernoulli_norm_proxy
from procsup.oleszkiewicz import (
    FunctionalSample,
    NormKind,
    VectorSystem,
    WeakMomentResult,
    check_weak_contraction,
    _check_sysmatch,
    generate_functionals,
    load_vector_system,
    save_vector_system,
    strong_moment_ratio,
    weak_moment_constant,
)
from procsup.reports import safe_ratio
from procsup.suprema import brute_force_bernoulli_sup


def _basis_system(dim, scale=1.0, norm=NormKind.SUP):
    vectors = tuple(
        Point(tuple(scale if j == i else 0.0 for j in range(dim))) for i in range(dim)
    )
    return VectorSystem(name=f"basis-{dim}-{scale}", vectors=vectors, norm=norm)


def _random_system(seed, terms, dim, norm=NormKind.SUP):
    gen = rng.stream(seed, "ole-test")
    rows = rng.standard_normal(gen, (terms, dim))
    vectors = tuple(Point(tuple(map(float, r))) for r in rows)
    return VectorSystem(name=f"rand-{seed}", vectors=vectors, norm=norm)


def test_system_validation():
    with pytest.raises(ValidationError):
        VectorSystem(name="empty", vectors=(), norm=NormKind.SUP)
    with pytest.raises(ValidationError):
        VectorSystem(name="mixed", vectors=(Point((1.0,)), Point((1.0, 2.0))), norm=NormKind.SUP)


def test_functionals_live_in_the_dual_ball():
    for norm in NormKind:
        sample = generate_functionals(norm, 5, 12, Seed(3))
        assert len(sample) == 2 * 5 + 12
        for w in sample.functionals:
            arr = w.array
            dual = np.abs(arr).sum() if norm is NormKind.SUP else np.linalg.norm(arr)
            assert dual <= 1.0 + 1e-9


def test_functionals_deterministic():
    a = generate_functionals(NormKind.SUP, 4, 6, Seed(1))
    b = generate_functionals(NormKind.SUP, 4, 6, Seed(1))
    assert a.functionals == b.functionals


def test_weak_constant_on_halved_system():
    y = _random_system(5, 6, 4)
    x = VectorSystem(
        name="half",
        vectors=tuple(Point(tuple(0.5 * c for c in v.coords)) for v in y.vectors),
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
    y = VectorSystem(
        name="zeros", vectors=(Point((0.0, 0.0, 0.0)),) * 3, norm=NormKind.SUP
    )
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


def test_strong_moment_exact_euclidean_of_basis_is_sqrt_dim():
    sys_ = _basis_system(5, norm=NormKind.EUCLIDEAN)
    report = strong_moment_ratio(sys_, sys_)
    assert report.lhs == pytest.approx(math.sqrt(5.0), rel=1e-14)


def test_strong_moment_cross_checks_against_sign_supremum():
    # E || sum_i eps_i x_i ||_sup equals E sup over the +/- coordinate columns
    # of the term matrix: two independent enumerations of the same quantity.
    sys_ = _random_system(8, terms=6, dim=3)
    report = strong_moment_ratio(sys_, sys_)
    cols = sys_.matrix.T
    pts = [Point(tuple(map(float, c))) for c in cols]
    pts += [Point(tuple(-v for v in p.coords)) for p in pts]
    sup = brute_force_bernoulli_sup(FiniteSet(name="cols", points=tuple(pts)))
    assert report.lhs == pytest.approx(sup.value, rel=1e-12)


def test_strong_moment_mc_route_for_many_terms():
    sys_ = _random_system(9, terms=25, dim=3)
    report = strong_moment_ratio(sys_, sys_, samples=5000, seed=Seed(1))
    assert "monte-carlo" in report.lhs_label
    assert report.ratio == pytest.approx(1.0, rel=1e-12)  # same content hash, same draws


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
    assert back.vectors == sys_.vectors
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


# --- weak moments: every order from one enumeration per distinct vector ---


def _reference_coefficient_norm(coeffs, p):
    # The one-order helper that weak_moment_constant used to call per order.
    point = Point(coeffs)
    if coeffs.size <= EXACT_ENUMERATION_MAX_DIM:
        return bernoulli_norm_exact(point, p)
    return bernoulli_norm_proxy(point, p).value


def _reference_weak_moment_constant(x_sys, y_sys, funcs, p_max=8):
    # The per-order loop weak_moment_constant replaced, kept verbatim.
    _check_sysmatch(x_sys, y_sys, funcs)
    best = WeakMomentResult(0.0, -1, 0, 0.0, 0.0)
    for k, w in enumerate(funcs.functionals):
        a = x_sys.matrix @ w.array
        b = y_sys.matrix @ w.array
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
    rows = [w.array for w in funcs.functionals]
    rows += [sign * rows[i % len(rows)] for i, sign in picks]
    return FunctionalSample(functionals=tuple(map(Point, rows)), norm=funcs.norm, seed=funcs.seed)


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


def test_weak_moment_constant_enumerates_each_vector_once_up_to_sign(monkeypatch):
    # dim 6 gives the 12 signed basis functionals, which pair up, plus 4
    # extras: 10 distinct coefficient vectors per system, one pass each.
    passes = []

    def counting(m):
        passes.append(m.shape)
        return iter(())  # count the passes only; every norm then reads 0

    monkeypatch.setattr(moments, "signed_row_sums", counting)
    x_sys, y_sys = _random_system(1, 20, 6), _random_system(2, 20, 6)
    funcs = generate_functionals(NormKind.SUP, 6, 4, Seed(3))
    weak_moment_constant(x_sys, y_sys, funcs, p_max=8)
    assert len(passes) == 20
    passes.clear()
    _reference_weak_moment_constant(x_sys, y_sys, funcs, p_max=8)
    assert len(passes) == 16 * 4 * 2  # only the odd orders 1, 3, 5, 7 enumerate
