import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from procsup import moments, rng
from procsup.core import FiniteSet, Point, ProcessKind, Seed
from procsup.errors import CapacityError, ParameterError
from procsup.moments import (
    MomentModel,
    bernoulli_norm_exact,
    bernoulli_norm_proxy,
    bernoulli_norms_exact,
    ell1_part,
    gaussian_moment_constant,
    gaussian_norm_exact,
    mc_mean,
    mc_norm,
    rearrange,
    signed_row_sums,
    tail_l2,
)
from procsup.oleszkiewicz import NormKind, VectorSystem, strong_moment_ratio
from procsup.suprema import brute_force_bernoulli_sup

coords = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
vectors = st.lists(coords, min_size=1, max_size=9).map(lambda xs: Point(tuple(xs)))
orders = st.integers(min_value=1, max_value=12)


def _moment_by_quadrature(p: float) -> float:
    # integrate on [0, 50] and double: |x|^p has a kink at 0 that the
    # two-sided infinite-range transform handles poorly, and the integrand
    # underflows to zero long before 50
    density = lambda x: x**p * math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
    val, err = integrate.quad(density, 0.0, 50.0, limit=200)
    assert err < 1e-8 * max(1.0, val)  # quad's estimate is conservative
    return (2.0 * val) ** (1.0 / p)


@pytest.mark.parametrize("p", [1, 2, 2.5, 3, 4, 7, 16])
def test_gaussian_moment_constant_matches_quadrature(p):
    assert gaussian_moment_constant(p) == pytest.approx(_moment_by_quadrature(p), rel=2e-12)


def test_gaussian_moment_constant_closed_forms():
    assert gaussian_moment_constant(1) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15)
    assert gaussian_moment_constant(2) == pytest.approx(1.0, rel=1e-15)
    assert gaussian_moment_constant(4) == pytest.approx(3.0**0.25, rel=1e-15)


def test_gaussian_moment_constant_rejects_small_p():
    with pytest.raises(ParameterError):
        gaussian_moment_constant(0.5)


@given(vectors, orders)
def test_gaussian_norm_is_l2_scaled(t, p):
    want = gaussian_moment_constant(p) * float(np.linalg.norm(t.array))
    assert gaussian_norm_exact(t, p) == pytest.approx(want, rel=1e-12, abs=1e-300)


# --- exact Bernoulli norms ---


def test_bernoulli_exact_frozen_values():
    assert bernoulli_norm_exact(Point((1.0, 1.0)), 2) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    # E|e1+e2+e3+e4| with four fair signs: 2*(6*0 + 8*2 + 2*4)/16/2 = 1.5
    assert bernoulli_norm_exact(Point((1.0,) * 4), 1) == pytest.approx(1.5, rel=1e-14)
    assert bernoulli_norm_exact(Point((1.0,)), 7) == pytest.approx(1.0, rel=1e-14)


@given(vectors)
def test_bernoulli_second_moment_is_l2(t):
    assert bernoulli_norm_exact(t, 2) == pytest.approx(
        float(np.linalg.norm(t.array)), rel=1e-12, abs=1e-12
    )


@given(vectors, orders, st.randoms(use_true_random=False))
def test_bernoulli_exact_permutation_and_sign_invariant(t, p, rnd):
    reference = bernoulli_norm_exact(t, p)
    shuffled = list(t.coords)
    rnd.shuffle(shuffled)
    flipped = Point(tuple(c if rnd.random() < 0.5 else -c for c in shuffled))
    assert bernoulli_norm_exact(flipped, p) == pytest.approx(reference, rel=1e-12, abs=1e-12)


@given(vectors, orders)
def test_bernoulli_exact_doubling_scale_is_exact(t, p):
    # multiplying by 2 only shifts exponents, so equality is bitwise
    doubled = Point(tuple(2.0 * c for c in t.coords))
    assert bernoulli_norm_exact(doubled, p) == 2.0 * bernoulli_norm_exact(t, p)


@given(vectors, orders, orders)
def test_bernoulli_exact_monotone_in_order(t, p, q):
    lo, hi = sorted((p, q))
    assert bernoulli_norm_exact(t, lo) <= bernoulli_norm_exact(t, hi) * (1 + 1e-12)


@given(vectors, st.integers(min_value=1, max_value=6))
def test_kahane_doubling_within_sqrt3(t, q):
    lhs = bernoulli_norm_exact(t, 2 * q)
    rhs = math.sqrt(3.0) * bernoulli_norm_exact(t, q)
    assert lhs <= rhs * (1 + 1e-12)


def test_bernoulli_exact_dimension_cap():
    with pytest.raises(CapacityError):
        bernoulli_norm_exact(Point((1.0,) * 21), 2)
    with pytest.raises(CapacityError):
        bernoulli_norms_exact(Point((1.0,) * 21), (1, 2))
    with pytest.raises(ParameterError, match="moment order"):  # orders are checked first
        bernoulli_norms_exact(Point((1.0,) * 21), (2, 0.5))


# --- several orders from one enumeration ---


def _one_order_reference(t, p):
    # The one-order route that bernoulli_norms_exact replaced, kept verbatim.
    q = moments._check_moment_order(p)
    scale = float(np.abs(t.array).sum())
    if scale == 0.0:
        return 0.0
    total = sum(float(((np.abs(s) / scale) ** q).sum()) for s in signed_row_sums(t.array[:, None]))
    return scale * (total / (1 << (t.dim - 1))) ** (1.0 / q)


magnitudes = st.sampled_from([0.0, -0.0, 1e-5, 3e-3, 0.7, 1.0, 2.0, 3.0, 41.5, 1e5])
entries = st.one_of(
    st.integers(min_value=-4, max_value=4).map(float),  # ties and cancelling sums
    st.tuples(magnitudes, st.sampled_from([1.0, -1.0])).map(lambda ms: ms[0] * ms[1]),
    st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
)
order_lists = st.lists(
    st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 16, 1.5, 2.5, 7.25, 1.0]), min_size=1, max_size=8
)


@given(st.lists(entries, min_size=1, max_size=14), order_lists, st.booleans())
def test_norms_equal_the_one_order_route_bit_for_bit(xs, ps, small_blocks):
    t = Point(np.array(xs))
    with pytest.MonkeyPatch.context() as mp:
        if small_blocks:
            mp.setattr(moments, "_BLOCK_BYTES", 64)  # eight sums per block
        got = bernoulli_norms_exact(t, ps)
        assert got == [_one_order_reference(t, p) for p in ps]
        assert [bernoulli_norm_exact(t, p) for p in ps] == got


@given(st.lists(entries, min_size=1, max_size=14), order_lists)
def test_norms_of_c_and_minus_c_are_equal_bit_for_bit(xs, ps):
    c = np.array(xs)
    assert bernoulli_norms_exact(Point(-c), ps) == bernoulli_norms_exact(Point(c), ps)


def test_norms_exact_at_twenty_terms_and_for_no_orders():
    t = Point(rng.standard_normal(rng.stream(7, "twenty"), 20))
    ps = (1, 2, 3, 8, 2, 1.5)
    assert bernoulli_norms_exact(t, ps) == [_one_order_reference(t, p) for p in ps]
    assert bernoulli_norms_exact(t, ()) == []
    assert bernoulli_norms_exact(Point((0.0, -0.0)), (1, 3)) == [0.0, 0.0]


# --- the proxy and its decomposition ---


def test_decomposition_parts_manual():
    t = Point((3.0, -2.0, 1.0))
    assert ell1_part(t, 1) == 3.0 and tail_l2(t, 1) == pytest.approx(math.sqrt(5.0))
    assert ell1_part(t, 2) == 5.0 and tail_l2(t, 2) == 1.0
    assert ell1_part(t, 5) == 6.0 and tail_l2(t, 5) == 0.0


def test_rearrange_gives_nonincreasing_magnitudes():
    assert rearrange(Point((1.0, -3.0, 2.0))).coords == (3.0, 2.0, 1.0)


@given(vectors, orders)
def test_proxy_sandwich_against_exact(t, p):
    exact = bernoulli_norm_exact(t, p)
    proxy = bernoulli_norm_proxy(t, p).value
    assert exact * (1 - 1e-12) <= proxy <= 4.0 * exact * (1 + 1e-12) + 1e-300


@given(vectors, orders)
def test_proxy_dominates_l2(t, p):
    assert bernoulli_norm_proxy(t, p).value >= float(np.linalg.norm(t.array)) * (1 - 1e-12)


@given(vectors, orders)
def test_proxy_doubling_growth(t, p):
    # doubling the order costs at most a factor 1 + sqrt(2)
    small = bernoulli_norm_proxy(t, p).value
    big = bernoulli_norm_proxy(t, 2 * p).value
    assert big <= (1.0 + math.sqrt(2.0)) * small * (1 + 1e-12)


@given(vectors, orders)
def test_proxy_is_rearrangement_invariant(t, p):
    assert bernoulli_norm_proxy(rearrange(t), p).value == pytest.approx(
        bernoulli_norm_proxy(t, p).value, rel=1e-13, abs=0.0
    )


def test_proxy_rejects_bad_order():
    with pytest.raises(ParameterError):
        bernoulli_norm_proxy(Point((1.0,)), 0)


# --- Monte Carlo route ---


def test_mc_norm_is_deterministic_and_content_keyed():
    t = Point((1.0, -2.0, 0.5))
    a = mc_norm(ProcessKind.GAUSSIAN, t, 3, 4000, Seed(11))
    b = mc_norm(ProcessKind.GAUSSIAN, t, 3, 4000, Seed(11))
    assert a == b
    c = mc_norm(ProcessKind.GAUSSIAN, t, 3, 4000, Seed(12))
    assert a != c


def test_mc_norm_zero_vector():
    assert mc_norm(ProcessKind.BERNOULLI, Point((0.0, 0.0)), 2, 100, Seed(0)) == (0.0, 0.0)


@pytest.mark.parametrize("kind,p", [(ProcessKind.GAUSSIAN, 1), (ProcessKind.GAUSSIAN, 4),
                                    (ProcessKind.BERNOULLI, 2)])
def test_mc_norm_agrees_with_exact(kind, p):
    t = Point((1.0, -0.7, 0.4, 2.2, -1.3))
    est, stderr = mc_norm(kind, t, p, 60_000, Seed(5))
    exact = (gaussian_norm_exact if kind is ProcessKind.GAUSSIAN else bernoulli_norm_exact)(t, p)
    assert abs(est - exact) <= 4.0 * stderr


def test_moment_model_validation():
    with pytest.raises(ParameterError):
        MomentModel.monte_carlo(ProcessKind.GAUSSIAN, 0, Seed(1))
    with pytest.raises(ParameterError):
        MomentModel(MomentModel.bernoulli_exact().kind, samples=10)
    assert MomentModel.gaussian_exact().label == "gaussian-exact"
    mc = MomentModel.monte_carlo(ProcessKind.BERNOULLI, 100, Seed(2))
    assert "monte-carlo" in mc.label and "seed=2" in mc.label


def test_moment_model_routes_match_direct_calls():
    t = Point((0.3, -1.1, 2.0))
    assert MomentModel.bernoulli_exact().norm(t, 3) == bernoulli_norm_exact(t, 3)
    assert MomentModel.gaussian_exact().norm(t, 3) == gaussian_norm_exact(t, 3)
    assert MomentModel.bernoulli_proxy().norm(t, 3) == bernoulli_norm_proxy(t, 3).value


# --- the shared sign enumerator and Monte Carlo accumulator ---


@pytest.mark.parametrize("block_bytes", [None, 160], ids=["one-block", "many-blocks"])
@pytest.mark.parametrize("d", range(1, 11))
def test_enumeration_matches_itertools_brute_force(monkeypatch, d, block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(moments, "_BLOCK_BYTES", block_bytes)
    m = rng.standard_normal(rng.stream(d, "enumeration-reference"), (d, 5))
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=d)))
    sums = signs @ m  # every sign pattern, eps_0 = -1 included
    pinned = np.concatenate(list(signed_row_sums(m)))
    assert pinned.shape == (2 ** (d - 1), 5)
    np.testing.assert_allclose(
        np.sort(pinned, axis=0), np.sort(sums[signs[:, 0] > 0], axis=0), rtol=1e-12, atol=1e-12
    )
    # Exact supremum over the five columns of m, as points of R^d.
    points = FiniteSet(name="cols", points=tuple(Point(tuple(c)) for c in m.T))
    assert brute_force_bernoulli_sup(points).value == pytest.approx(
        sums.max(axis=1).mean(), rel=1e-12
    )
    # Exact norms of the first column.
    for p in (1, 2, 3, 8):
        expected = np.mean(np.abs(sums[:, 0]) ** p) ** (1.0 / p)
        assert bernoulli_norm_exact(Point(tuple(m[:, 0])), p) == pytest.approx(expected, rel=1e-12)
    # Strong moments of the d rows of m, as a series in R^5.
    for norm in NormKind:
        system = VectorSystem(name="rows", vectors=tuple(Point(tuple(r)) for r in m), norm=norm)
        expected = np.mean(system.norm_of(sums))
        assert strong_moment_ratio(system, system).lhs == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kind", list(ProcessKind))
def test_mc_mean_chunks_keep_the_draw_stream(monkeypatch, kind):
    m = rng.standard_normal(rng.stream(1, "mc-mean-m"), (3, 2))
    xs = moments._draw(kind, rng.stream(2, "mc-mean"), (50, 3))
    ys = (xs @ m).max(axis=1)
    monkeypatch.setattr(moments, "_BLOCK_BYTES", 8 * 3 * 14)  # 12-row chunks, then 2 rows
    mean, stderr = mc_mean(kind, rng.stream(2, "mc-mean"), m, 50, lambda v: v.max(axis=1))
    assert mean == pytest.approx(ys.mean(), rel=1e-14)
    assert stderr == pytest.approx(ys.std(ddof=1) / math.sqrt(50), rel=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_mc_mean_variance_survives_a_large_mean(monkeypatch, seed):
    # Seven chunks of 1e8 + N(0, 1e-3): the one-pass sum-of-squares formula
    # loses every digit here, while the true variance is 1e-6.
    monkeypatch.setattr(moments, "_BLOCK_BYTES", 16384 * 8)
    n = 7 * 16384
    chunks = []

    def statistic(ys):
        chunks.append(ys.size)
        return 1e8 + 1e-3 * ys

    mean, stderr = mc_mean(ProcessKind.GAUSSIAN, rng.stream(seed, "cancel"), np.ones(1), n, statistic)
    values = 1e8 + 1e-3 * rng.standard_normal(rng.stream(seed, "cancel"), n)
    assert chunks == [16384] * 7
    assert stderr**2 * n == pytest.approx(np.var(values, ddof=1), rel=1e-9, abs=0.0)
    assert mean == pytest.approx(values.mean(), rel=1e-15)
