import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from procsup import moments, rng, suprema
from procsup.core import EXACT_ENUMERATION_MAX_DIM, FiniteSet, ProcessKind, Seed, generate_set
from procsup.errors import CapacityError, ParameterError, ValidationError
from procsup.moments import bernoulli_exact_norms, sign_mean
from procsup.suprema import (
    SCREEN_MIN_POINTS,
    EstimateMethod,
    SupEstimate,
    _half_span,
    _ScreenedHalfSpan,
    _symmetric_half,
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


# --- symmetric sets: half the points enumerated, the same bits ---


@st.composite
def _symmetric_sets(draw):
    """``{+-v}`` for a few rows ``v`` at d <= 10, sometimes with the origin; at d = 1 too."""
    dim = draw(st.integers(1, 10))
    v = np.array(draw(st.lists(st.lists(coords, min_size=dim, max_size=dim), min_size=1, max_size=6)))
    m = np.vstack([v, -v, np.zeros((draw(st.integers(0, 1)), dim))])
    m = m[np.sort(np.unique(m + 0.0, axis=0, return_index=True)[1])]
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(len(m))
    return FiniteSet(name="sym", points=m[order])


@given(_symmetric_sets())
@example(FiniteSet(name="d1", points=[[1.5], [0.0], [-1.5]]))
@example(FiniteSet(name="origin", points=[[0.0, 1.0, -2.0], [0.0, 0.0, 0.0], [0.0, -1.0, 2.0], [-3.0, 0.5, 0.0], [3.0, -0.5, 0.0]]))
def test_a_symmetric_exact_supremum_keeps_the_full_enumerations_bits(ts):
    half = _symmetric_half(ts.matrix)
    assert (half is None) == (len(ts) < 3)  # {+-v} alone, or the origin, is enumerated whole
    if half is not None:
        lead = ts.matrix[half][np.arange(len(half)), (ts.matrix[half] != 0.0).argmax(axis=1)]
        assert (lead >= 0.0).all() and len(half) == (len(ts) + 1) // 2
    assert brute_force_bernoulli_sup(ts).value == sign_mean(ts.matrix.T, _half_span)


def test_a_symmetric_set_enumerates_half_its_points_in_the_whole_sets_blocks(monkeypatch):
    v = generate_set("random_sphere", 12, 5, Seed(3)).matrix
    ts = FiniteSet(name="sym", points=np.vstack([v, np.zeros((1, 12)), -v]))
    calls = []

    def spy(m, statistic, row_major=False, block_columns=None):
        calls.append((m.shape, block_columns))
        return sign_mean(m, statistic, row_major, block_columns)

    monkeypatch.setattr(suprema, "sign_mean", spy)
    # 64 patterns per block of the 11 points: 32 blocks, whose totals the half must keep
    monkeypatch.setattr(moments, "_BLOCK_BYTES", 8 * 11 * 64)
    assert brute_force_bernoulli_sup(ts).value == sign_mean(ts.matrix.T, _half_span)
    assert calls == [((12, 6), 11)]
    # not symmetric: a point without its negation, or a lone nonzero point
    assert _symmetric_half(np.vstack([v, -v[:4]])) is None
    assert _symmetric_half(v[:1]) is None
    # a half of one point would multiply one column by gemv, so {+-v} is enumerated whole
    assert _symmetric_half(np.vstack([v[:1], -v[:1]])) is None
    assert _symmetric_half(np.vstack([v[:1], np.zeros((1, 12)), -v[:1]])).tolist() == [0, 1]


# --- the screened Monte Carlo route: float32 candidates, float64 values ---


@st.composite
def _screening_cases(draw):
    kind = draw(st.sampled_from(list(ProcessKind)))
    dim, count, draws = draw(st.integers(1, 12)), draw(st.integers(1, 24)), draw(st.integers(1, 16))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["normal", "scaled", "near-tie", "wide-range", "integer"]))
    t = gen.standard_normal((count, dim))
    if shape == "scaled":
        t *= 10.0 ** gen.uniform(-150, 150)
    elif shape == "near-tie":
        # each row beside itself one ulp up: equal in float32, so the screen cannot tell them apart
        t = np.vstack([t, np.nextafter(t, np.inf)])
    elif shape == "wide-range":
        t[:, 0] = gen.choice([-1.3e154, 1.3e154, 1.0], size=count)
        t[:, -1] *= 1e-300
    elif shape == "integer":
        t = gen.integers(-2, 3, size=(count, dim)).astype(np.float64)
    xs = moments._draw(kind, gen, (draws, dim))
    if kind is ProcessKind.GAUSSIAN:
        xs *= chi_mean(dim) / np.sqrt(np.vecdot(xs, xs))[:, None]
    return shape, t, xs


@given(_screening_cases())
@example(("wide-range", np.array([[1.3e154, 0.5, 1e-300], [-1.3e154, -0.5, -1e-300], [1.0, 2.0, 3e-300]]),
          np.array([[1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]])))
@example(("near-tie", np.array([[0.7], [np.nextafter(0.7, 1.0)]]), np.array([[1.0], [-1.0], [0.25]])))
def test_screened_extremes_are_the_float64_formulas_extremes_over_every_point(case):
    shape, t, xs = case
    values = (xs[:, None, :] * t[None, :, :]).sum(axis=-1)
    top, bottom = _ScreenedHalfSpan(t).extremes(xs)
    assert np.array_equal(top, values.max(axis=1)) and np.array_equal(bottom, values.min(axis=1))
    if shape == "near-tie":
        assert np.array_equal(t.astype(np.float32)[: len(t) // 2], t.astype(np.float32)[len(t) // 2 :])


def test_screening_finds_the_maximum_where_float32_misorders_the_points():
    # <x, t_0> = 1 + 14 u/16 > <x, t_1> = 1 + 9 u/16 (u = 2^-23, x = (1, 1)), yet t_0's
    # first coordinate rounds down to 1 in float32 and t_1's up to 1 + u: the float32
    # product ranks t_1 first, by less than the slack, so both must be evaluated.
    u = 2.0**-23
    t = np.array([[1.0 + 7 * u / 16, 7 * u / 16], [1.0 + 9 * u / 16, 0.0]])
    xs = np.ones((1, 2))
    assert (xs.astype(np.float32) @ t.astype(np.float32).T).argmax() == 1 and (xs @ t.T).argmax() == 0
    top, bottom = _ScreenedHalfSpan(t).extremes(xs)
    assert (top[0], bottom[0]) == (1.0 + 14 * u / 16, 1.0 + 9 * u / 16)


@pytest.mark.parametrize("kind", list(ProcessKind))
def test_screened_half_span_of_one_point_in_one_dimension_is_zero(kind):
    xs = moments._draw(kind, rng.stream(1, "one"), (9, 1))
    screened = _ScreenedHalfSpan(np.array([[-2.5]]))
    assert np.array_equal(screened.extremes(xs)[0], xs[:, 0] * -2.5)
    assert (screened(xs) == 0.0).all()


def test_screened_route_of_an_all_tying_set_stays_exact_within_the_block_budget(monkeypatch):
    # Every row ties in float64 (the 1e-30 parts vanish against 1), so every draw
    # evaluates every row; a small budget splits them into groups and pieces.
    monkeypatch.setattr(suprema, "_BLOCK_BYTES", 32 * 40 * 7)
    gen = np.random.default_rng(3)
    t = np.zeros((60, 40))
    t[:, 0] = 1.0
    t[:, 1:8] = gen.integers(0, 2, size=(60, 7)) * 1e-30
    xs = moments._draw(ProcessKind.BERNOULLI, gen, (13, 40))
    values = (xs[:, None, :] * t[None, :, :]).sum(axis=-1)
    top, bottom = _ScreenedHalfSpan(t).extremes(xs)
    assert np.array_equal(top, values.max(axis=1)) and np.array_equal(bottom, values.min(axis=1))


@pytest.mark.parametrize("count", [SCREEN_MIN_POINTS - 1, SCREEN_MIN_POINTS])
@pytest.mark.parametrize("kind", list(ProcessKind))
def test_mc_sup_screens_from_the_gate_on(monkeypatch, kind, count):
    ts = generate_set("random_sphere", 24, count, Seed(1))
    routes = []
    real = suprema.mc_mean

    def spy(*args, **kwargs):
        routes.append(kwargs["of_draws"])
        return real(*args, **kwargs)

    monkeypatch.setattr(suprema, "mc_mean", spy)
    est = mc_sup(kind, ts, 301, Seed(8))
    screened = count >= SCREEN_MIN_POINTS
    assert routes == [screened]
    # One chunk: the estimate is the mean half-span of its 151 draws, each draw's
    # extremes from the float64 formula past the gate and from xs @ T^T below it.
    gen = rng.content_stream(8, "mc-sup", ts.matrix, kind.value)
    xs = moments._draw(kind, gen, (151, 24))
    if kind is ProcessKind.GAUSSIAN:
        xs *= chi_mean(24) / np.sqrt(np.vecdot(xs, xs))[:, None]
    values = (xs[:, None, :] * ts.matrix[None, :, :]).sum(axis=-1) if screened else xs @ ts.matrix.T
    spans = _half_span(values)
    assert est.value == pytest.approx(spans.mean(), rel=1e-13)
    assert est.stderr == pytest.approx(spans.std(ddof=1) / math.sqrt(151), rel=1e-10)


def test_a_span_of_plus_minus_a_passes_the_screen_exactly():
    # +-1.3e154 e_1 among a sphere's points at the gate: every draw's half-span is
    # 1.3e154, while the sphere's float32 values underflow to 0 once scaled.
    a = 1.3e154
    sphere = generate_set("random_sphere", 24, SCREEN_MIN_POINTS - 2, Seed(4)).matrix
    wide = np.zeros((2, 24))
    wide[:, 0] = [a, -a]
    est = mc_sup(ProcessKind.BERNOULLI, FiniteSet(name="wide", points=np.vstack([sphere, wide])), 100, Seed(1))
    assert (est.value, est.stderr) == (a, 0.0)
