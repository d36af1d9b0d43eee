import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from procsup import rng
from procsup.contraction import (
    FIT_CAP,
    CheckResult,
    CoordinateMap,
    MappedPair,
    _PairTable,
    _difference_rows,
    _trim_profiles,
    apply_map,
    check_condition,
    compare_suprema,
    fit_min_C,
)
from procsup.core import FiniteSet, Seed, distinct_rows
from procsup.errors import ParameterError, ValidationError
from procsup.oleszkiewicz import NormKind, VectorSystem, check_weak_contraction, generate_functionals


def _random_set(seed, count=6, dim=5, label="contraction-test"):
    gen = rng.stream(seed, label)
    rows = rng.standard_normal(gen, (count, dim))
    return FiniteSet(name=f"{label}-{seed}", points=rows)


def test_trimmed_sq_distance_manual():
    # trim2(t - s, p) for s = (3, 1), t = 0 at p = 0, 1, 2: dropping the largest square leaves 1
    assert _trim_profiles(np.array([[0.0, 0.0]]) - np.array([[3.0, 1.0]])).tolist() == [[10.0, 1.0, 0.0]]


def test_coordinate_map_validation():
    with pytest.raises(ParameterError, match="unknown map"):
        CoordinateMap("square")
    with pytest.raises(ParameterError):
        CoordinateMap("scale")  # missing factor
    with pytest.raises(ParameterError, match="lo <= hi"):
        CoordinateMap("clamp", (2.0, -1.0))
    with pytest.raises(ParameterError, match=r"^map 'clamp' takes 0 or 2 params \(lo, hi\), got 1$"):
        CoordinateMap("clamp", (0.5,))
    with pytest.raises(ParameterError, match="nonnegative"):
        CoordinateMap("soft_threshold", (-0.5,))
    assert CoordinateMap("scale", (2.0,)).label == "scale(2.0)"


def test_clamp_clips_to_its_bounds_or_to_the_unit_interval():
    xs = np.array([-3.0, -0.75, 0.25, 2.0])
    assert CoordinateMap("clamp").apply(xs).tolist() == [-1.0, -0.75, 0.25, 1.0]
    assert CoordinateMap("clamp", (-0.5, 0.5)).apply(xs).tolist() == [-0.5, -0.5, 0.25, 0.5]
    assert CoordinateMap("clamp").label == "clamp"
    assert CoordinateMap("clamp", (-0.5, 0.5)).label == "clamp(-0.5, 0.5)"


def test_apply_map_dedups_image_and_keeps_correspondence():
    ts = FiniteSet(name="pm", points=[[1.0, -2.0], [-1.0, 2.0]])
    pair = apply_map(ts, CoordinateMap("abs"))
    assert len(pair.image) == 1  # |t| == |-t|
    assert pair.correspondence == (0, 0)
    assert pair.image.matrix.tolist() == [[1.0, 2.0]]


@pytest.mark.parametrize("name,params", [("abs", ()), ("clamp", (-1.0, 1.0)),
                                         ("soft_threshold", (0.5,))])
def test_lipschitz_maps_satisfy_condition_at_one(name, params):
    for seed in range(5):
        pair = apply_map(_random_set(seed), CoordinateMap(name, params))
        result = check_condition(pair, 1.0, p_max=5, tol=1e-12)
        assert result.satisfied, (name, seed, result.margin)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 5.0])
def test_fit_calibration_on_scaling(c):
    pair = apply_map(_random_set(11, count=5, dim=4), CoordinateMap("scale", (c,)))
    report = fit_min_C(pair, p_max=4)
    assert report.c_star == pytest.approx(max(abs(c), 1.0), rel=1e-15)


def test_fit_reports_infeasible_above_cap():
    pair = apply_map(_random_set(3, count=4, dim=3), CoordinateMap("scale", (5000.0,)))
    report = fit_min_C(pair, p_max=3)
    assert report.c_star is None
    assert report.to_dict()["c_star"] == "infeasible"


@given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=1.0, max_value=8.0))
def test_fitted_constant_is_feasible_and_tight(seed, probe):
    pair = apply_map(_random_set(seed, count=4, dim=4, label="fit-prop"),
                     CoordinateMap("scale", (probe,)))
    report = fit_min_C(pair, p_max=4)
    assert report.c_star is not None
    assert check_condition(pair, report.c_star, p_max=4).satisfied
    # feasibility is monotone: anything clearly above stays feasible
    assert check_condition(pair, report.c_star * 1.5 + 0.1, p_max=4).satisfied


def test_check_condition_rejects_bad_arguments():
    pair = apply_map(_random_set(0), CoordinateMap("abs"))
    with pytest.raises(ParameterError):
        check_condition(pair, 0.5, p_max=3)
    with pytest.raises(ParameterError):
        check_condition(pair, 1.0, p_max=-1)


@pytest.mark.parametrize("c", [math.nan, math.inf])
def test_check_condition_rejects_a_non_finite_constant(c):
    pair = apply_map(_random_set(0), CoordinateMap("abs"))
    with pytest.raises(ParameterError, match=f"C must be finite, got {c}"):
        check_condition(pair, c, p_max=3)


_HUGE = FiniteSet(name="huge", points=[(0.0, 0.0), (1e200, 3e199), (-1e200, 1.0)])


def test_overflowing_squared_distances_fail_fast_without_warnings():
    # (1e200)^2 overflows to inf, and inf - inf would make every gap NaN
    pair = apply_map(_HUGE, CoordinateMap("abs"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (lambda: fit_min_C(pair), lambda: check_condition(pair, 1.0, 2)):
            with pytest.raises(ParameterError, match=r"squared distance of source pair \(0, 1\) overflows"):
                run()
        # a difference that itself overflows
        wide = FiniteSet(name="wide", points=[(-1.5e308,), (1.5e308,)])
        with pytest.raises(ParameterError, match=r"source pair \(0, 1\) overflows: inf exceeds"):
            fit_min_C(apply_map(wide, CoordinateMap("abs")))
        # only the image is out of range
        scaled = apply_map(FiniteSet(name="big", points=[(0.0,), (1e150,)]), CoordinateMap("scale", (1e10,)))
        with pytest.raises(ParameterError, match=r"squared distance of image pair \(0, 1\) overflows"):
            check_condition(scaled, 1.0, 1)


def test_large_but_representable_distances_still_fit():
    pair = apply_map(FiniteSet(name="big", points=[(0.0, 0.0), (1e150, 3e149), (-1e150, 1.0)]),
                     CoordinateMap("abs"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fit_min_C(pair).c_star == 1.0
        assert check_condition(pair, 1.0, 2).satisfied


@pytest.mark.parametrize("p_max", [1.5, 2.0, True, "3"])
def test_orders_must_be_integers(p_max):
    pair = apply_map(_random_set(0), CoordinateMap("scale", (2.0,)))
    with pytest.raises(ParameterError, match="p_max must be an integer"):
        check_condition(pair, 1.0, p_max=p_max)
    with pytest.raises(ParameterError, match="p_max must be an integer"):
        fit_min_C(pair, p_max=p_max)


def test_numpy_integer_orders_are_accepted():
    pair = apply_map(_random_set(0), CoordinateMap("scale", (2.0,)))
    assert fit_min_C(pair, p_max=np.int64(3)) == fit_min_C(pair, p_max=3)
    assert check_condition(pair, 2.0, p_max=np.int32(3)) == check_condition(pair, 2.0, p_max=3)


def test_mapped_pair_validates_correspondence():
    src = _random_set(1, count=2, dim=2)
    img = _random_set(2, count=2, dim=2)
    with pytest.raises(ValidationError):
        MappedPair(source=src, image=img, correspondence=(0,), map_label="x")
    with pytest.raises(ValidationError):
        MappedPair(source=src, image=img, correspondence=(0, 5), map_label="x")


@pytest.mark.parametrize("correspondence, index", [
    ((0, 1.0), 1),
    ((0.5, 1), 0),
    ((0, np.float64(1.0)), 1),
    ((0, True), 1),  # a bool is not an index, though it compares equal to one
    ((np.bool_(False), 1), 0),
    ((0, "1"), 1),
])
def test_mapped_pair_rejects_a_correspondence_it_would_have_to_coerce(correspondence, index):
    src = _random_set(1, count=2, dim=2)
    img = _random_set(2, count=2, dim=2)
    message = f"correspondence[{index}] must be an integer, got {correspondence[index]!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        MappedPair(source=src, image=img, correspondence=correspondence, map_label="x")


def test_mapped_pair_accepts_numpy_integers():
    src = _random_set(1, count=2, dim=2)
    img = _random_set(2, count=2, dim=2)
    pair = MappedPair(source=src, image=img, correspondence=(np.int64(1), np.int32(0)), map_label="x")
    assert fit_min_C(pair, p_max=2) == fit_min_C(MappedPair(src, img, (1, 0), "x"), p_max=2)


def test_check_condition_tol_accepts_a_failure_within_it_and_keeps_its_margin():
    # scaling by 1 + 1e-12 fails C = 1 by a margin of about 1e-11
    ts = FiniteSet(name="t", points=[[1.0, 2.0], [-0.5, 0.25], [0.0, 1.0]])
    pair = apply_map(ts, CoordinateMap("scale", (1 + 1e-12,)))
    strict = check_condition(pair, 1.0, p_max=2)
    assert strict == CheckResult(satisfied=False, margin=1.0626166613292298e-11, worst_pair=(0, 1, 0))
    assert check_condition(pair, 1.0, p_max=2, tol=1e-9) == CheckResult(True, strict.margin, strict.worst_pair)
    assert check_condition(pair, 1.0, p_max=2, tol=1e-12) == strict
    with pytest.raises(ParameterError, match=r"^tol must be nonnegative, got -1e-09$"):
        check_condition(pair, 1.0, p_max=2, tol=-1e-9)
    # a NaN tol must not act as 0, nor an infinite one accept any margin
    for tol in (math.nan, math.inf):
        with pytest.raises(ParameterError, match=rf"^tol must be finite, got {tol}$"):
            check_condition(pair, 1.0, p_max=2, tol=tol)


@pytest.mark.parametrize("name,params", [("abs", ()), ("clamp", (-0.8, 0.8)),
                                         ("soft_threshold", (0.3,))])
def test_contractions_do_not_increase_sup(name, params):
    for seed in range(4):
        pair = apply_map(_random_set(seed, count=8, dim=6), CoordinateMap(name, params))
        report = compare_suprema(pair)
        assert report.lhs <= report.rhs * (1 + 1e-12) + 1e-12
        assert report.extras["map"].startswith(name)


# --- array paths against the scalar loops they replaced ---


def _reference_apply_map(ts, cmap):
    """The dict-of-tuples dedup loop: first occurrence wins, -0.0 == 0.0 as tuple keys."""
    images, index_of, correspondence = [], {}, []
    for row in ts.matrix:
        q = tuple(float(x) for x in cmap.apply(row))
        j = index_of.setdefault(q, len(images))
        if j == len(images):
            images.append(q)
        correspondence.append(j)
    return np.array(images, dtype=np.float64), tuple(correspondence)


def _reference_profile(diff):
    sq = np.sort(diff * diff)
    return np.concatenate(([0.0], np.cumsum(sq)))[::-1]


def _reference_evaluate(pair, c, p_max):
    """The pair-by-pair loop: the first strict maximum of lhs - C^2 rhs wins."""
    src, img, corr = pair.source.matrix, pair.image.matrix, pair.correspondence
    worst, margin = (0, 0, 0), -math.inf
    for i in range(len(src)):
        for j in range(i + 1, len(src)):
            sp = _reference_profile(src[j] - src[i])
            ip = _reference_profile(img[corr[j]] - img[corr[i]])
            for p in range(p_max + 1):
                lhs = ip[min(int(math.floor(c * p)), ip.size - 1)]
                rhs = c * c * sp[min(p, sp.size - 1)]
                if lhs - rhs > margin:
                    margin, worst = lhs - rhs, (i, j, p)
    return (0.0 if margin == -math.inf else float(margin)), worst


# A coarse value grid: maps collapse points, signed zeros meet, margins tie.
_grid = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])
_small_sets = st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.lists(st.lists(_grid, min_size=d, max_size=d), min_size=1, max_size=6, unique_by=tuple)
)
_maps = st.sampled_from([
    CoordinateMap("abs"),
    CoordinateMap("clamp", (-0.5, 0.5)),
    CoordinateMap("clamp", (0.0, 1.0)),
    CoordinateMap("soft_threshold", (0.5,)),
    CoordinateMap("soft_threshold", (1.0,)),
    CoordinateMap("scale", (2.0,)),
])


@given(_small_sets, _maps, st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0]), st.integers(0, 6))
def test_array_dedup_and_pair_table_match_scalar_loops(rows, cmap, c, p_max):
    ts = FiniteSet(name="grid", points=np.array(rows))
    pair = apply_map(ts, cmap)
    images, correspondence = _reference_apply_map(ts, cmap)
    assert pair.correspondence == correspondence
    assert pair.image.matrix.tobytes() == images.tobytes()  # keeps the first signed zero
    result = check_condition(pair, c, p_max)
    margin, worst = _reference_evaluate(pair, c, p_max)
    assert result.margin == margin
    assert result.worst_pair == worst
    assert result.satisfied == (margin <= 0.0)


# --- the closed-form fit against the doubling and bisection it replaced ---


def _reference_fit(pair, p_max, tol=1e-6):
    """Double from C = 1 until feasible (or past the cap), then bisect to ``tol``."""
    if check_condition(pair, 1.0, p_max).satisfied:
        return 1.0
    hi = 2.0
    while hi <= FIT_CAP and not check_condition(pair, hi, p_max).satisfied:
        hi *= 2.0
    if hi > FIT_CAP:
        return None
    lo = hi / 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if check_condition(pair, mid, p_max).satisfied:
            hi = mid
        else:
            lo = mid
    return hi


def _assert_fit_matches_reference(pair, p_max, normal=True):
    """``normal``: no squared distance is subnormal, so the closed form itself is within 2 ulps."""
    report = fit_min_C(pair, p_max=p_max)
    ref = _reference_fit(pair, p_max)
    start = _PairTable(*_difference_rows(pair)).least_constant(p_max)
    if ref is None:
        assert report.c_star is None
        assert start > FIT_CAP or not normal
        at_cap = check_condition(pair, FIT_CAP, p_max)
        assert (report.margin, report.worst_pair) == (at_cap.margin, at_cap.worst_pair)
        return
    c = report.c_star
    assert type(c) is float
    at_c = check_condition(pair, c, p_max)
    assert at_c.satisfied
    assert (report.margin, report.worst_pair) == (at_c.margin, at_c.worst_pair)
    if c > 1.0:
        assert not check_condition(pair, math.nextafter(c, 0.0), p_max).satisfied
    assert ref - 1e-6 <= c <= ref
    assert abs(start - c) <= 2 * math.ulp(c) or not normal


_fit_maps = st.one_of(
    st.floats(min_value=-40.0, max_value=40.0).map(lambda f: CoordinateMap("scale", (f,))),
    st.sampled_from([
        CoordinateMap("abs"),
        CoordinateMap("clamp"),
        CoordinateMap("clamp", (-0.3, 0.7)),
        CoordinateMap("soft_threshold"),
        CoordinateMap("soft_threshold", (0.1,)),
    ]),
)


@given(st.integers(0, 2**31), st.integers(1, 6), st.integers(1, 6), _fit_maps, st.integers(0, 8))
def test_fit_on_maps_is_the_least_accepted_float(seed, count, dim, cmap, p_extra):
    pair = apply_map(_random_set(seed, count=count, dim=dim, label="fit-ref"), cmap)
    _assert_fit_matches_reference(pair, min(p_extra, dim + 2))


# Sparse integer rows: trims reach zero early (S_p = 0), profiles tie, and
# the image steps at k/p decide the constant.
_sparse = st.sampled_from([0.0, 0.0, 0.0, 1.0, -1.0, 2.0, 0.5, 3.0])


@st.composite
def _trim_pairs(draw):
    dim = draw(st.integers(1, 5))
    rows = st.lists(_sparse, min_size=dim, max_size=dim)
    src = draw(st.lists(rows, min_size=1, max_size=5, unique_by=tuple))
    img = np.array(draw(st.lists(rows, min_size=len(src), max_size=len(src))))
    first, slot = distinct_rows(img)
    return MappedPair(
        source=FiniteSet(name="src", points=np.array(src)),
        image=FiniteSet(name="img", points=img[first]),
        correspondence=tuple(slot.tolist()),
    ), draw(st.integers(0, dim + 2))


@given(_trim_pairs())
def test_fit_on_trim_driven_pairs_is_the_least_accepted_float(case):
    pair, p_max = case
    _assert_fit_matches_reference(pair, p_max)


@pytest.mark.parametrize("x, factor", [(1e-160, 3.0), (3e-161, 3.0), (1.7e-161, 3.0), (1e-160, 1e170)])
def test_fit_on_subnormal_profiles_is_the_least_accepted_float(x, factor):
    # Squared distances near 1e-320 round coarsely, so the check accepts a
    # float far from the closed form; with factor 1e170 the ratio overflows.
    ts = FiniteSet(name="tiny", points=np.array([[0.0, 0.0], [x, 0.5 * x]]))
    _assert_fit_matches_reference(apply_map(ts, CoordinateMap("scale", (factor,))), 2, normal=False)


@pytest.mark.parametrize("factor, c_star", [(FIT_CAP, FIT_CAP), (math.nextafter(FIT_CAP, 2 * FIT_CAP), None)])
def test_fit_cap_is_the_largest_feasible_constant(factor, c_star):
    pair = apply_map(_random_set(5, count=4, dim=3), CoordinateMap("scale", (factor,)))
    assert fit_min_C(pair, p_max=3).c_star == c_star


def test_fit_at_a_trim_breakpoint_is_exact():
    source = FiniteSet(name="spike", points=np.array([[0.0] * 4, [2.0, 0.0, 0.0, 0.0]]))
    image = FiniteSet(name="spread", points=np.array([[0.0] * 4, [1.0] * 4]))
    pair = MappedPair(source=source, image=image, correspondence=(0, 1))
    # p = 1: the source trims to 0, so the image must trim all four: C = 4/1.
    assert fit_min_C(pair, p_max=4).c_star == 4.0
    assert fit_min_C(pair, p_max=0).c_star == 1.0  # |(1,1,1,1)|^2 = |(2,0,0,0)|^2


def test_weak_contraction_of_a_zero_source_is_infeasible():
    a = (0.5, -1.5, 2.0)
    x = VectorSystem(name="x", vectors=[(v, 0.0) for v in a], norm=NormKind.SUP)
    y = VectorSystem(name="y", vectors=np.zeros((3, 2)), norm=NormKind.SUP)
    funcs = generate_functionals(NormKind.SUP, 2, 0, Seed(0))
    report = check_weak_contraction(x, y, funcs)
    assert report.context["worst_functional"] == 0  # e_1 reads the coefficients a
    assert funcs.matrix[0].tolist() == [1.0, 0.0]
    assert report.c_star is None  # at p = 0 the condition reads a.a <= 0 for every C
    assert report.margin == float(np.dot(a, a)) == 6.5
    assert report.worst_pair == (0, 1, 0)


def _unclipped_evaluate(table, c, p_max):
    """The evaluation before huge constants were clipped, for ordinary constants."""
    dim = table.src_prof.shape[1] - 1
    p = np.arange(min(p_max, dim) + 1)
    budget = np.minimum(np.floor(c * p).astype(np.intp), dim)
    gap = table.img_prof[:, budget] - c * c * table.src_prof[:, p]
    k, at = divmod(int(np.argmax(gap)), p.size)
    margin = float(gap[k, at])
    i, j = table.pairs[k].tolist()
    return CheckResult(satisfied=margin <= 0.0, margin=margin, worst_pair=(i, j, at))


@pytest.mark.parametrize("c", [1e200, 1e300, float(np.finfo(np.float64).max), 1.5e154])
def test_huge_constants_are_satisfied_without_nan_or_warnings(c):
    pair = apply_map(_random_set(1), CoordinateMap("abs"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p_max in (0, 2, 40):
            result = check_condition(pair, c, p_max)
            assert result.satisfied and not math.isnan(result.margin)


@pytest.mark.parametrize("seed", range(6))
def test_fit_does_not_move_under_the_clipped_evaluation(monkeypatch, seed):
    rows = rng.standard_normal(rng.stream(seed, "test:clip"), (7, 5))
    rows[:, seed % 5] = 0.0  # zero source coordinates give zero profile entries
    source = FiniteSet(name="s", points=rows)
    for cmap in (CoordinateMap("abs"), CoordinateMap("scale", (2.5,)), CoordinateMap("soft_threshold", (0.3,))):
        pair = apply_map(source, cmap)
        fitted = fit_min_C(pair)
        table = _PairTable(*_difference_rows(pair))
        for c in (1.0, 1.25, 2.5, 4.0, 5.0, 7.0, 1000.0, FIT_CAP):
            assert table.evaluate(c, 5) == _unclipped_evaluate(table, c, 5)
        with monkeypatch.context() as m:
            m.setattr(_PairTable, "evaluate", _unclipped_evaluate)
            assert fit_min_C(pair) == fitted
