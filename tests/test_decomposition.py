import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decomposition_reference import reference_objective, reference_refine_per_point
from procsup import decomposition
from procsup.chaining import build_partition_greedy, chain_bound
from procsup.core import FiniteSet, ProcessKind, Seed, generate_set
from procsup.decomposition import (
    SplitRule,
    _refine_per_point,
    choose_p,
    decompose_by_sweep,
    split_rows,
    sweep_objectives,
    verify_two_sided,
)
from procsup.errors import CapacityError, ParameterError
from procsup.moments import _BLOCK_BYTES, MomentModel

coords = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)
vectors = st.lists(coords, min_size=1, max_size=8).map(np.array)
radii = st.floats(min_value=0.0, max_value=7.0, allow_nan=False)
matrices = st.integers(1, 8).flatmap(
    lambda d: st.lists(st.lists(coords, min_size=d, max_size=d), min_size=1, max_size=4)
).map(np.array)


def _blocks_set(seed):
    return generate_set("disjoint_blocks", 24, 4, Seed(seed), (6,))


@given(matrices, st.data())
def test_split_reconstructs_exactly(m, data):
    # one threshold for every row, or one per row
    r = data.draw(st.one_of(radii, st.lists(radii, min_size=len(m), max_size=len(m)).map(np.array)))
    head, tail = split_rows(m, r)
    assert np.array_equal(head + tail, m)


@given(vectors, radii)
def test_split_parts_have_disjoint_supports(t, r):
    head, tail = split_rows(t, r)
    assert ((head == 0.0) | (tail == 0.0)).all()


@given(vectors, radii)
def test_split_tail_is_bounded_by_radius(t, r):
    _, tail = split_rows(t, r)
    assert (np.abs(tail) <= r).all()


def test_split_rejects_negative_radius():
    with pytest.raises(ParameterError, match="^threshold must be nonnegative, got -0.5$"):
        split_rows(np.ones(1), -0.5)
    with pytest.raises(ParameterError, match="^threshold must be nonnegative, got -0.5$"):
        split_rows(np.ones((2, 1)), np.array([1.0, -0.5]))


@pytest.mark.parametrize("r", [math.nan, -math.nan])
def test_split_rejects_a_nan_radius(r):
    with pytest.raises(ParameterError):
        split_rows(np.array([1.0, 0.5]), r)
    with pytest.raises(ParameterError):
        split_rows(np.ones((2, 2)), np.array([1.0, r]))


@pytest.mark.parametrize("thresholds", [(math.nan,), (1.0, math.nan), ()])
def test_split_rule_rejects_nan_thresholds(thresholds):  # and an empty rule, which has no threshold to report
    with pytest.raises(ParameterError):
        SplitRule(thresholds=thresholds)


def test_split_rule_modes():
    rule = SplitRule(thresholds=(1.0, 1.0))
    assert rule.mode == "global" and set(rule.thresholds) == {1.0}
    per = SplitRule(thresholds=(1.0, 2.0))
    assert per.mode == "per-point"
    assert per.to_dict()["thresholds"] == [1.0, 2.0]


def test_split_mode_follows_from_the_thresholds():
    assert SplitRule(thresholds=(0.5,)).to_dict() == {"mode": "global", "threshold": 0.5}
    assert SplitRule(thresholds=(0.5, 0.0, 0.5)).to_dict() == {"mode": "per-point", "thresholds": [0.5, 0.0, 0.5]}
    # a per-point descent that does not move keeps the sweep's shared threshold: global
    ts = generate_set("random_sphere", 3, 3, Seed(0))
    winner = min(sweep_objectives(ts), key=lambda e: e.objective)
    result = decompose_by_sweep(ts, samples=200, seed=Seed(0), per_point=True)
    assert result.split.thresholds == (winner.threshold,) * 3
    assert result.to_dict()["split"] == {"mode": "global", "threshold": winner.threshold}


def test_choose_p_edges():
    assert choose_p(2.0, 1.0, 3.0) == 3  # sqrt(3)*2 >= 3 but sqrt(2)*2 < 3
    assert choose_p(0.0, 1.0, 3.0) == math.inf
    assert choose_p(5.0, 1.0, 1.0) == 1


@pytest.mark.parametrize("tail, k", [(math.nan, 1.0), (-1.0, 1.0), (1.0, math.nan), (1.0, math.inf),
                                     (1.0, -math.inf), (1.0, -0.5)])
def test_choose_p_rejects_nan_norms_and_bad_constants(tail, k):
    with pytest.raises(ParameterError):
        choose_p(tail, k, 2.0)


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, -1.0])
def test_decompose_rejects_a_bad_k_before_the_sweep(monkeypatch, k):
    def no_sweep(ts):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(decomposition, "sweep_objectives", no_sweep)
    with pytest.raises(ParameterError, match="k constant"):
        decompose_by_sweep(_blocks_set(0), samples=200, seed=Seed(0), k_constant=k)


@given(st.floats(min_value=0.01, max_value=10.0), st.floats(min_value=0.01, max_value=10.0))
def test_choose_p_is_minimal(tail, target):
    p = choose_p(tail, 1.0, target)
    assert p != math.inf
    assert math.sqrt(p) * tail >= target
    if p > 1:
        assert math.sqrt(p - 1) * tail < target


def _least_p_exactly(tail, k, sup):
    """The least integer p >= 1 with p * tail**2 >= (k * sup)**2, in rationals."""
    ratio = (Fraction(k) * Fraction(sup) / Fraction(tail)) ** 2
    return max(1, -(-ratio.numerator // ratio.denominator))


def _float_loop_choose_p(tail, k, sup):
    """The float-only walk choose_p used before it had an exact branch (it ends below 2**53)."""
    target = k * sup
    p = max(1, math.ceil((target / tail) ** 2))
    while p > 1 and math.sqrt(p - 1) * tail >= target:
        p -= 1
    while math.sqrt(p) * tail < target:
        p += 1
    return p


@pytest.mark.parametrize("k, want", [(1e8, 10**16), (1e17, 10**34), (1e200, int(Fraction(1e200)) ** 2)])
def test_choose_p_is_exact_above_two_to_the_53(k, want):
    # float(p - 1) == float(p) up there: the float walk returned 10**16 - 1 at k = 1e8,
    # never ended at k = 1e17 and overflowed at k = 1e200
    assert choose_p(1.0, k, 1.0) == want


@given(st.floats(min_value=1e-300, max_value=1e300), st.floats(min_value=0.0, max_value=1e300),
       st.floats(min_value=1e-300, max_value=1e300))
@example(1.0, math.sqrt(2**53 - 1), 1.0)  # the largest k the float test answers (p = 2**53 - 3)
@example(1.0, math.nextafter(math.sqrt(2**53 - 1), math.inf), 1.0)  # the next float: p = 2**53 + 2
def test_choose_p_matches_the_exact_least_order(tail, k, sup):
    p, want = choose_p(tail, k, sup), _least_p_exactly(tail, k, sup)
    if p >= 2**53:
        assert p == max(2**53, want)
    else:  # the float predicate decides, as it always did; it is off by rounding only
        assert math.sqrt(p) * tail >= k * sup
        assert p == 1 or math.sqrt(p - 1) * tail < k * sup
        assert abs(p - want) <= 1 + want * 2**-48


@given(st.floats(min_value=1e-30, max_value=1e30), st.floats(min_value=0.0, max_value=9.4e7))
def test_choose_p_keeps_the_float_walk_below_two_to_the_53(tail, ratio):
    assert choose_p(tail, 1.0, ratio * tail) == _float_loop_choose_p(tail, 1.0, ratio * tail)


def test_sweep_contains_zero_and_is_optimal_on_grid():
    ts = _blocks_set(0)
    entries = sweep_objectives(ts)
    assert entries[0].threshold == 0.0
    best = min(e.objective for e in entries)
    result = decompose_by_sweep(ts, samples=4000, seed=Seed(1))
    assert result.objective <= best * (1 + 1e-12)


def test_decompose_ties_resolve_to_smallest_threshold():
    # a one-point set over {-1, 1} coords: thresholds 0 and 1 differ, and the
    # winner must be reported at the smallest grid value achieving the optimum
    ts = FiniteSet(name="pm", points=[[1.0, -1.0]])
    result = decompose_by_sweep(ts, samples=2000, seed=Seed(0))
    entries = sweep_objectives(ts)
    winners = [e.threshold for e in entries if e.objective <= result.objective * (1 + 1e-12)]
    assert result.split.mode == "global" and result.split.thresholds == (min(winners),)


@pytest.mark.parametrize("seed", range(3))
def test_decompose_blocks_reference_is_exact_and_k_emp_finite(seed):
    ts = _blocks_set(seed)
    assert np.count_nonzero(ts.matrix, axis=0).max() <= 1  # no coordinate is nonzero in two points
    result = decompose_by_sweep(ts, samples=4000, seed=Seed(seed))
    assert result.s_b_reference.method.value == "exact" or ts.dim > 20
    assert math.isfinite(result.k_emp) and result.k_emp > 0
    report = verify_two_sided(ts, result)
    assert math.isfinite(report.extras["lower_ratio"])
    assert report.extras["upper_ratio_k_emp"] == result.k_emp


def test_per_point_never_worse_than_global():
    ts = _blocks_set(9)
    global_r = decompose_by_sweep(ts, samples=2000, seed=Seed(2))
    per_point = decompose_by_sweep(ts, samples=2000, seed=Seed(2), per_point=True)
    assert per_point.objective <= global_r.objective * (1 + 1e-12)


def test_decompose_gaussian_route_uses_mc():
    ts = _blocks_set(4)
    result = decompose_by_sweep(ts, ProcessKind.GAUSSIAN, samples=3000, seed=Seed(5))
    assert result.s_b_reference.method.value == "monte-carlo"
    assert result.s_b_reference.samples == 3000


def test_decompose_records_choose_p():
    ts = _blocks_set(6)
    result = decompose_by_sweep(ts, samples=2000, seed=Seed(0), k_constant=2.0)
    assert result.extras["k_constant"] == 2.0
    pick = result.extras["choose_p"]
    assert pick == "inf" or (isinstance(pick, int) and pick >= 1)


def _reference_objective(ts, r):
    """The per-point scalar split, left-to-right sums and dict dedup the array sweep replaced."""
    ell1, family = [], {(0.0,) * ts.dim: None}  # dict keys: first wins, -0.0 == 0.0
    for point in ts.matrix.tolist():
        small = [0.0 < abs(x) <= r for x in point]
        ell1.append(sum(abs(0.0 if s else x) for x, s in zip(point, small)))
        family.setdefault(tuple(x if s else 0.0 for x, s in zip(point, small)), None)
    tails = FiniteSet(name="tails", points=list(family))
    return max(ell1), chain_bound(tails, build_partition_greedy(tails), MomentModel.gaussian_exact()).value


# Repeated magnitudes, signed zeros, and arbitrary floats whose sums depend on the order;
# the examples add magnitudes whose squared distances underflow to 0.
_grid = st.one_of(
    st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]),
    st.floats(1e-3, 2.0).flatmap(lambda x: st.sampled_from([x, -x])),
)


@given(st.integers(min_value=1, max_value=10).flatmap(
    lambda d: st.lists(st.lists(_grid, min_size=d, max_size=d), min_size=1, max_size=6, unique_by=tuple)
))
@example([[7e-298]])
@example([[1e-200, 0.0], [0.0, -3e-300], [1e-200, 1e-200]])
def test_sweep_matches_scalar_split_exactly(rows):
    ts = FiniteSet(name="grid", points=rows)
    grid = sorted({abs(x) for row in rows for x in row if x != 0.0})
    entries = sweep_objectives(ts)
    assert [e.threshold for e in entries] == [0.0, *grid]
    for e in entries:
        assert (e.ell1_sup, e.gamma2_bound) == _reference_objective(ts, e.threshold)


def test_sweep_handles_a_tail_family_whose_distance_underflows():
    # the tail family is {0, t}, and |t|^2 underflows to 0
    entries = sweep_objectives(FiniteSet(name="tiny", points=[(7e-298,)]))
    assert [(e.threshold, e.ell1_sup, e.gamma2_bound) for e in entries] == [
        (0.0, 7e-298, 0.0),
        (7e-298, 0.0, 0.0),
    ]


# --- the batched forest sweep and per-point descent against the one-tree-per-trial routes ---


def test_sweep_is_grouped_under_the_block_budget():
    # |T| = 60, d = 24: 1 441 candidates, ~17 MB of tails if they all went in one block
    ts = generate_set("random_sphere", 60, 24, Seed(3), ())
    tracemalloc.start()
    try:
        entries = sweep_objectives(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(entries) == 1441
    assert peak < _BLOCK_BYTES
    for e in entries[::97]:  # candidates from many groups
        assert (e.ell1_sup, e.gamma2_bound) == reference_objective(ts, (e.threshold,) * len(ts))


_SMALL_ROWS = st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.lists(st.lists(_grid, min_size=d, max_size=d), min_size=1, max_size=4, unique_by=tuple)
)


@settings(max_examples=30)
@given(_SMALL_ROWS, st.integers(min_value=0, max_value=16))
@example([[1e-200, 0.0], [0.0, -3e-300], [1e-200, 1e-200]], 0)
@example([[1e-200, 0.0], [0.0, -3e-300], [1e-200, 1e-200]], 2)
def test_batched_descent_matches_the_one_trial_descent(rows, pick):
    # any sweep entry may start the descent: a non-winning one makes it move
    ts = FiniteSet(name="grid", points=rows)
    entries = sweep_objectives(ts)
    start = entries[pick % len(entries)]
    refined, ell1, gamma = _refine_per_point(ts, start)
    assert refined == reference_refine_per_point(ts, (start.threshold,) * len(ts))
    assert (ell1, gamma) == reference_objective(ts, refined)


_PER_POINT_ROWS = [
    [3.0, 2.0, 0.5, 0.0, 0.5, 0.0],
    [0.5, 2.0, -2.0, 3.0, -1.0, -0.5],
    [2.0, 0.5, 0.5, -1.0, 0.0, -1.0],
    [1.0, 0.5, 3.0, -1.0, 0.5, -0.5],
]


@pytest.mark.parametrize("rows, per_point", [(_PER_POINT_ROWS, True), (_PER_POINT_ROWS, False),
                                             ([[1.0, -1.0]], True)])
def test_decompose_reports_the_objective_of_its_split(rows, per_point):
    ts = FiniteSet(name="grid", points=rows)
    result = decompose_by_sweep(ts, samples=200, seed=Seed(0), per_point=per_point)
    if rows is _PER_POINT_ROWS:
        assert result.split.mode == ("per-point" if per_point else "global")
    parts = reference_objective(ts, result.split.thresholds)
    assert (result.ell1_sup, result.gamma2_bound) == parts
    assert result.objective == parts[0] + parts[1]


# --- heads and tails that leave float64 ---


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows, message", [
    ([[1.0, 0.0], [1e308, 1e308]], "the l1 norm of the head of point 1 overflows float64"),
    ([[-1e308, 0.0], [1e308, 0.0]],
     "the squared l2 distance between the origin and the tail of point 0 overflows float64"),
    ([[1.3e154, 0.0], [-1.3e154, 0.0], [0.0, 0.0]],
     "the squared l2 distance between the tails of points 0 and 1 overflows float64"),
])
@pytest.mark.parametrize("per_point", [False, True])
def test_an_overflowing_head_or_tail_names_a_point_without_a_warning(rows, message, per_point):
    ts = FiniteSet(name="huge", points=rows)
    with pytest.raises(ParameterError, match=f"^{message}$"):
        decompose_by_sweep(ts, samples=100, seed=Seed(0), per_point=per_point)


# --- the cap on the tail tree rows a decomposition grows ---


def test_tree_rows_count_the_sweep_and_every_per_point_pass():
    m = np.array([[0.0, 1.0, 1.0, -1.0, 2.0], [0.0, 0.0, 0.0, 0.0, 0.0], [3.0, 3.0, 3.0, 0.0, -3.0]])
    # the sweep: 0, 1, 2, 3; a pass: 0, 1, 2 for point 0, 0 for point 1 and 0, 3 for point 2
    assert decomposition._tree_rows(m, per_point=False) == 4 * 4
    assert decomposition._tree_rows(m, per_point=True) == (4 + 3 * (3 + 1 + 2)) * 4


def test_sweep_fit_and_criterion_sets_stay_under_the_row_cap():
    sphere = generate_set("random_sphere", 16, 40, Seed(1))
    assert decomposition._tree_rows(sphere.matrix, per_point=False) == 641 * 41
    blocks = generate_set("disjoint_blocks", 64, 8, Seed(1), params=[8])
    assert decomposition._tree_rows(blocks.matrix, per_point=True) < decomposition.DECOMPOSE_MAX_ROWS


@pytest.mark.parametrize("count, per_point", [(256, False), (150, True)])
def test_decomposition_over_the_row_cap_raises_before_the_sweep(monkeypatch, count, per_point):
    # 16-dim spheres: 4 097 x 257 sweep rows at 256 points; at 150 points the sweep's
    # 2 401 x 151 rows fit, and three descent passes of 150 x 17 x 151 more do not
    ts = generate_set("random_sphere", 16, count, Seed(1))
    calls = []
    monkeypatch.setattr(decomposition, "greedy_forest_bounds", lambda *args: calls.append(args))
    rows = decomposition._tree_rows(ts.matrix, per_point)
    message = f"^decomposition capped at {decomposition.DECOMPOSE_MAX_ROWS} tail tree rows, got {rows}$"
    with pytest.raises(CapacityError, match=message):
        decompose_by_sweep(ts, samples=100, per_point=per_point)
    assert calls == []
