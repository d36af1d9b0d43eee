import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from procsup.chaining import build_partition_greedy, chain_bound
from procsup.core import FiniteSet, Point, ProcessKind, Seed, generate_set, has_disjoint_supports
from procsup.decomposition import (
    SplitRule,
    choose_p,
    decompose_by_sweep,
    sweep_objectives,
    threshold_split,
    verify_two_sided,
)
from procsup.errors import ParameterError
from procsup.moments import MomentModel

coords = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)
vectors = st.lists(coords, min_size=1, max_size=8).map(lambda xs: Point(tuple(xs)))
radii = st.floats(min_value=0.0, max_value=7.0, allow_nan=False)


def _blocks_set(seed):
    return generate_set("disjoint_blocks", 24, 4, Seed(seed), (6,))


@given(vectors, radii)
def test_split_reconstructs_exactly(t, r):
    head, tail = threshold_split(t, r)
    assert tuple(h + s for h, s in zip(head.coords, tail.coords)) == t.coords


@given(vectors, radii)
def test_split_parts_have_disjoint_supports(t, r):
    head, tail = threshold_split(t, r)
    for h, s in zip(head.coords, tail.coords):
        assert h == 0.0 or s == 0.0


@given(vectors, radii)
def test_split_tail_is_bounded_by_radius(t, r):
    _, tail = threshold_split(t, r)
    assert all(abs(s) <= r for s in tail.coords)


def test_split_rejects_negative_radius():
    with pytest.raises(ParameterError):
        threshold_split(Point((1.0,)), -0.5)


def test_split_rule_modes():
    with pytest.raises(ParameterError):
        SplitRule(thresholds=(1.0, 2.0), mode="global")
    rule = SplitRule(thresholds=(1.0, 1.0), mode="global")
    assert rule.global_threshold == 1.0
    per = SplitRule(thresholds=(1.0, 2.0), mode="per-point")
    assert per.global_threshold is None
    assert per.to_dict()["thresholds"] == [1.0, 2.0]


def test_choose_p_edges():
    assert choose_p(2.0, 1.0, 3.0) == 3  # sqrt(3)*2 >= 3 but sqrt(2)*2 < 3
    assert choose_p(0.0, 1.0, 3.0) == math.inf
    assert choose_p(5.0, 1.0, 1.0) == 1


@given(st.floats(min_value=0.01, max_value=10.0), st.floats(min_value=0.01, max_value=10.0))
def test_choose_p_is_minimal(tail, target):
    p = choose_p(tail, 1.0, target)
    assert p != math.inf
    assert math.sqrt(p) * tail >= target
    if p > 1:
        assert math.sqrt(p - 1) * tail < target


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
    ts = FiniteSet(name="pm", points=(Point((1.0, -1.0)),))
    result = decompose_by_sweep(ts, samples=2000, seed=Seed(0))
    entries = sweep_objectives(ts)
    winners = [e.threshold for e in entries if e.objective <= result.objective * (1 + 1e-12)]
    assert result.split.global_threshold == min(winners)


@pytest.mark.parametrize("seed", range(3))
def test_decompose_blocks_reference_is_exact_and_k_emp_finite(seed):
    ts = _blocks_set(seed)
    assert has_disjoint_supports(ts)
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
    for point in ts.points:
        small = [0.0 < abs(x) <= r for x in point.coords]
        ell1.append(sum(abs(0.0 if s else x) for x, s in zip(point.coords, small)))
        family.setdefault(tuple(x if s else 0.0 for x, s in zip(point.coords, small)), None)
    tails = FiniteSet(name="tails", points=[Point(t) for t in family])
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
