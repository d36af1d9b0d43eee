import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from procsup import rng
from procsup.contraction import (
    CoordinateMap,
    MappedPair,
    apply_map,
    check_condition,
    compare_suprema,
    fit_min_C,
    trimmed_sq_distance,
)
from procsup.core import FiniteSet, Point
from procsup.errors import ParameterError, ValidationError


def _random_set(seed, count=6, dim=5, label="contraction-test"):
    gen = rng.stream(seed, label)
    rows = rng.standard_normal(gen, (count, dim))
    return FiniteSet(name=f"{label}-{seed}", points=tuple(Point(tuple(map(float, r))) for r in rows))


def test_trimmed_sq_distance_manual():
    s, t = Point((3.0, 1.0)), Point((0.0, 0.0))
    assert trimmed_sq_distance(s, t, 0) == pytest.approx(10.0, rel=1e-15)
    assert trimmed_sq_distance(s, t, 1) == pytest.approx(1.0, rel=1e-15)  # drop the largest square
    assert trimmed_sq_distance(s, t, 2) == 0.0
    assert trimmed_sq_distance(s, t, 9) == 0.0  # over-trim clamps to zero


def test_coordinate_map_validation():
    with pytest.raises(ParameterError, match="unknown map"):
        CoordinateMap("square")
    with pytest.raises(ParameterError):
        CoordinateMap("scale")  # missing factor
    with pytest.raises(ParameterError, match="lo <= hi"):
        CoordinateMap("clamp", (2.0, -1.0))
    with pytest.raises(ParameterError, match="nonnegative"):
        CoordinateMap("soft_threshold", (-0.5,))
    assert CoordinateMap("scale", (2.0,)).label == "scale(2.0)"


def test_apply_map_dedups_image_and_keeps_correspondence():
    t = Point((1.0, -2.0))
    ts = FiniteSet(name="pm", points=(t, Point((-1.0, 2.0))))
    pair = apply_map(ts, CoordinateMap("abs"))
    assert len(pair.image) == 1  # |t| == |-t|
    assert pair.correspondence == (0, 0)
    assert pair.image.points[0] == Point((1.0, 2.0))


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
    assert report.c_star == pytest.approx(max(abs(c), 1.0), abs=1e-4)


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
    with pytest.raises(ParameterError):
        fit_min_C(pair, tol=0.0)


def test_mapped_pair_validates_correspondence():
    src = _random_set(1, count=2, dim=2)
    img = _random_set(2, count=2, dim=2)
    with pytest.raises(ValidationError):
        MappedPair(source=src, image=img, correspondence=(0,), map_label="x")
    with pytest.raises(ValidationError):
        MappedPair(source=src, image=img, correspondence=(0, 5), map_label="x")


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
