import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from procsup import moments, rng
from procsup.core import EXACT_ENUMERATION_MAX_DIM, FiniteSet, ProcessKind, Seed, generate_set
from procsup.errors import CapacityError, ParameterError, ValidationError
from procsup.moments import bernoulli_exact_norms
from procsup.suprema import (
    EstimateMethod,
    SupEstimate,
    _half_span,
    brute_force_bernoulli_sup,
    chi_mean,
    expected_sup,
    mc_sup,
)

from mc_reference import reference_one_sided_mc_sup

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


# --- the antithetic, radius-conditioned Monte Carlo supremum ---


def _symmetric(dim, half_count, seed):
    half = generate_set("random_sphere", dim, half_count, Seed(seed)).matrix
    return FiniteSet(name="sym", points=np.vstack([half, -half]))


@pytest.mark.parametrize(
    "kind, ts, samples, most",
    [
        (ProcessKind.BERNOULLI, generate_set("random_sphere", 24, 60, Seed(1)), 100_000, 1.02),
        (ProcessKind.BERNOULLI, generate_set("random_sphere", 32, 256, Seed(1)), 100_000, 1.02),
        (ProcessKind.GAUSSIAN, generate_set("random_sphere", 50, 2000, Seed(1)), 20_000, 0.7),
        # T = -T: a draw's two evaluations agree, so it carries one evaluation's information.
        (ProcessKind.BERNOULLI, _symmetric(24, 30, 1), 100_000, 1.45),
        (ProcessKind.GAUSSIAN, _symmetric(24, 30, 1), 100_000, 1.45),
    ],
    ids=["bernoulli-24x60", "bernoulli-32x256", "gaussian-50x2000", "symmetric-bernoulli", "symmetric-gaussian"],
)
def test_stderr_against_the_one_sided_estimator(kind, ts, samples, most):
    est = mc_sup(kind, ts, samples, Seed(3))
    one_sided, one_sided_stderr = reference_one_sided_mc_sup(kind, ts, samples, Seed(3))
    assert est.samples == samples
    assert est.stderr <= most * one_sided_stderr
    assert abs(est.value - one_sided) <= 4.0 * math.hypot(est.stderr, one_sided_stderr)


@st.composite
def _enumerable_sets(draw):
    """Random sets at d <= 12; symmetric ones (T = -T); and ones with a duplicated
    coordinate, a repeated row of the coefficient matrix ``T.T`` that the draws multiply."""
    dim = draw(st.integers(1, 11))
    m = np.array(draw(st.lists(st.lists(coords, min_size=dim, max_size=dim), min_size=1, max_size=6)))
    shape = draw(st.sampled_from(["random", "symmetric", "duplicate-coordinate"]))
    if shape == "symmetric":
        m = np.vstack([m, -m])
    elif shape == "duplicate-coordinate":
        m = np.hstack([m, m[:, :1]])
    return FiniteSet(name=shape, points=np.unique(m, axis=0))


@given(_enumerable_sets(), st.integers(0, 2**32 - 1))
def test_mc_sup_is_within_four_sigma_of_the_enumeration(ts, seed):
    exact = brute_force_bernoulli_sup(ts).value
    est = mc_sup(ProcessKind.BERNOULLI, ts, 4000, Seed(seed))
    # The slack covers rounding where every draw gives the exact value (stderr 0).
    assert abs(est.value - exact) <= 4.0 * est.stderr + 1e-12 * max(1.0, abs(exact))


@pytest.mark.parametrize("kind", list(ProcessKind))
def test_mc_sup_is_the_mean_half_span_of_its_draws(kind):
    # One chunk, so the accumulator's mean and variance are numpy's over the pair samples.
    ts = generate_set("random_sphere", 5, 7, Seed(4))
    gen = rng.content_stream(8, "mc-sup", ts.matrix, kind.value)
    xs = moments._draw(kind, gen, (51, 5))  # ceil(101 / 2) draws
    if kind is ProcessKind.GAUSSIAN:
        xs *= chi_mean(5) / np.linalg.norm(xs, axis=1, keepdims=True)
    ys = xs @ ts.matrix.T
    pairs = (ys.max(axis=1) - ys.min(axis=1)) / 2.0
    est = mc_sup(kind, ts, 101, Seed(8))
    assert est.samples == 101
    assert est.value == pytest.approx(pairs.mean(), rel=1e-13)
    assert est.stderr == pytest.approx(pairs.std(ddof=1) / math.sqrt(51), rel=1e-10)


@pytest.mark.parametrize("kind", list(ProcessKind))
def test_a_one_point_monte_carlo_supremum_is_zero(kind):
    est = mc_sup(kind, FiniteSet(name="one", points=[[0.3, -2.0, 5.0]]), 1000, Seed(1))
    assert est.value == 0.0 and est.stderr == 0.0


@pytest.mark.parametrize("kind", list(ProcessKind))
@pytest.mark.parametrize("samples", [2, 3, 4, 5])
def test_a_few_samples_give_a_finite_stderr(kind, samples):
    est = mc_sup(kind, generate_set("random_sphere", 4, 6, Seed(2)), samples, Seed(5))
    assert est.samples == samples
    assert math.isfinite(est.value) and math.isfinite(est.stderr) and est.stderr > 0.0


def test_chi_mean_closed_forms():
    assert chi_mean(1) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15)
    assert chi_mean(2) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-15)
    assert chi_mean(3) == pytest.approx(math.sqrt(8.0 / math.pi), rel=1e-15)
    d = 10**6  # the series' next term, 5 / (128 d^3), is below 1e-19
    assert chi_mean(d) == pytest.approx(math.sqrt(d) * (1.0 - 1.0 / (4 * d) + 1.0 / (32 * d * d)), rel=1e-14)


@pytest.mark.filterwarnings("error")
def test_the_half_span_of_values_that_fit_float64_stays_finite():
    top = np.finfo(np.float64).max
    assert _half_span(np.array([[1e308, -1e308], [top, -top], [-top, top]])).tolist() == [1e308, top, top]
    # The largest coordinate whose l2 norm mc_sup admits: the span of the
    # two points is exact, and every draw gives it.
    a = 1.3e154
    est = mc_sup(ProcessKind.BERNOULLI, FiniteSet(name="wide", points=[[a], [-a]]), 100, Seed(1))
    assert (est.value, est.stderr) == (a, 0.0)
    # +-1e308 fails before the draws, as every set with an overflowing l2 norm does.
    with pytest.raises(ParameterError, match="^the l2 norm of row 0 overflows float64$"):
        mc_sup(ProcessKind.BERNOULLI, FiniteSet(name="huge", points=[[1e308], [-1e308]]), 100, Seed(1))
