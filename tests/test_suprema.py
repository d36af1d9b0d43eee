import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from procsup.core import EXACT_ENUMERATION_MAX_DIM, FiniteSet, ProcessKind, Seed, generate_set
from procsup.errors import CapacityError, ParameterError, ValidationError
from procsup.moments import bernoulli_exact_norms
from procsup.suprema import EstimateMethod, SupEstimate, brute_force_bernoulli_sup, expected_sup, mc_sup

coords = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def _sets(max_points=5, dim=4):
    rows = st.lists(coords, min_size=dim, max_size=dim)
    return st.lists(rows, min_size=1, max_size=max_points, unique_by=tuple).map(
        lambda rs: FiniteSet(name="h", points=rs)
    )


def test_basis_pair_half():
    ts = FiniteSet(name="e12", points=np.eye(2))
    est = brute_force_bernoulli_sup(ts)
    # max(eps1, eps2) averages to 1/2 over the four sign patterns
    assert est.value == pytest.approx(0.5, abs=1e-15)
    assert est.method is EstimateMethod.EXACT and est.stderr == 0.0


def test_simplex_three_quarters():
    est = brute_force_bernoulli_sup(FiniteSet(name="simplex3", points=np.eye(3)))
    assert est.value == pytest.approx(0.75, abs=1e-15)


@given(_sets())
def test_symmetric_pair_matches_first_absolute_moment(ts):
    # sup over {t, -t} is |X_t|, so E sup = ||B_t||_1: two independent routes
    t = ts.matrix[0]
    if not t.any():
        return
    pair = FiniteSet(name="pm", points=np.stack([t, -t]))
    assert brute_force_bernoulli_sup(pair).value == pytest.approx(
        bernoulli_exact_norms(t[None, :], (1,))[0, 0], rel=1e-12
    )


@given(_sets(max_points=4))
def test_adding_a_point_never_decreases_sup(ts):
    base = brute_force_bernoulli_sup(ts).value
    widened = FiniteSet(name="w", points=np.vstack([ts.matrix, ts.matrix[0] + 1.0]))
    assert brute_force_bernoulli_sup(widened).value >= base - 1e-12


@given(_sets(max_points=4), st.lists(coords, min_size=4, max_size=4))
def test_translation_invariance(ts, shift):
    # X is linear and centered, so shifting every point leaves E sup alone
    moved = FiniteSet(name="m", points=ts.matrix + np.array(shift))
    a = brute_force_bernoulli_sup(ts).value
    b = brute_force_bernoulli_sup(moved).value
    scale = max(1.0, abs(a), abs(b))
    assert a == pytest.approx(b, abs=1e-10 * scale)


def test_brute_force_dimension_cap():
    ts = FiniteSet(name="big", points=np.ones((1, 21)))
    with pytest.raises(CapacityError):
        brute_force_bernoulli_sup(ts)


def test_mc_sup_deterministic_and_near_exact():
    gen = np.random.default_rng(99)
    ts = FiniteSet(name="mc", points=gen.normal(size=(6, 8)))
    exact = brute_force_bernoulli_sup(ts).value
    est1 = mc_sup(ProcessKind.BERNOULLI, ts, 40_000, Seed(4))
    est2 = mc_sup(ProcessKind.BERNOULLI, ts, 40_000, Seed(4))
    assert est1 == est2
    assert est1.method is EstimateMethod.MONTE_CARLO and est1.samples == 40_000
    assert abs(est1.value - exact) <= 4.0 * est1.stderr


def test_mc_sup_gaussian_two_point_closed_form():
    # E max(X_t, X_{-t}) = E|X_t| = ||t||_2 * sqrt(2/pi)
    t = np.array([0.6, -1.2, 0.3])
    ts = FiniteSet(name="pmg", points=np.stack([t, -t]))
    est = mc_sup(ProcessKind.GAUSSIAN, ts, 60_000, Seed(21))
    want = float(np.linalg.norm(t)) * math.sqrt(2.0 / math.pi)
    assert abs(est.value - want) <= 4.0 * est.stderr


def test_mc_sup_validates_samples():
    ts = FiniteSet(name="v", points=[[1.0]])
    with pytest.raises(ParameterError):
        mc_sup(ProcessKind.BERNOULLI, ts, 1, Seed(0))


@pytest.mark.parametrize(
    "kind, dim, method",
    [
        (ProcessKind.BERNOULLI, EXACT_ENUMERATION_MAX_DIM, EstimateMethod.EXACT),
        (ProcessKind.BERNOULLI, EXACT_ENUMERATION_MAX_DIM + 1, EstimateMethod.MONTE_CARLO),
        (ProcessKind.GAUSSIAN, 3, EstimateMethod.MONTE_CARLO),
    ],
)
def test_expected_sup_route_table(kind, dim, method):
    ts = generate_set("random_sphere", dim, 2, Seed(1))
    est = expected_sup(kind, ts, 100, Seed(2))
    assert est.method is method
    oracle = brute_force_bernoulli_sup(ts) if method is EstimateMethod.EXACT else mc_sup(kind, ts, 100, Seed(2))
    assert est == oracle


def test_expected_sup_exact_route_errors():
    with pytest.raises(ParameterError, match="no exact supremum oracle for the Gaussian process"):
        expected_sup(ProcessKind.GAUSSIAN, generate_set("random_sphere", 3, 2, Seed(1)), 100, Seed(2), exact=True)
    wide = generate_set("random_sphere", EXACT_ENUMERATION_MAX_DIM + 1, 2, Seed(1))
    with pytest.raises(CapacityError):
        expected_sup(ProcessKind.BERNOULLI, wide, 100, Seed(2), exact=True)


def test_sup_estimate_invariants():
    with pytest.raises(ValidationError):
        SupEstimate(value=1.0, stderr=0.1, method=EstimateMethod.EXACT)
    with pytest.raises(ValidationError):
        SupEstimate(value=1.0, stderr=-0.5, method=EstimateMethod.MONTE_CARLO, samples=10)
    # a Monte Carlo estimate of a degenerate set may honestly have stderr 0
    SupEstimate(value=0.0, stderr=0.0, method=EstimateMethod.MONTE_CARLO, samples=10)


def test_mc_sup_memory_does_not_grow_with_the_set():
    ts = generate_set("random_sphere", 50, 4000, Seed(1))
    ts.matrix  # built before tracing: it belongs to the set, not to the estimate
    tracemalloc.start()
    try:
        mc_sup(ProcessKind.GAUSSIAN, ts, 20_000, Seed(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
