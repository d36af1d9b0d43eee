import inspect
import itertools
import math
import re
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from procsup import moments, rng
from procsup.core import EXACT_ENUMERATION_MAX_DIM, FiniteSet, ProcessKind, Seed
from procsup.errors import CapacityError, ParameterError, ValidationError
from procsup.moments import (
    MomentModel,
    MonteCarloModel,
    bernoulli_exact_norms,
    bernoulli_exact_route,
    gaussian_moment_constant,
    gaussian_norms,
    mc_mean,
    mc_norms,
    moment_sandwich,
    proxy_norms,
    signed_row_sums,
)
from procsup.chaining import verify_sup_bound
from procsup.contraction import CoordinateMap, apply_map, compare_suprema
from procsup.decomposition import decompose_by_sweep
from procsup.oleszkiewicz import NormKind, VectorSystem, _mc_strong_moment, strong_moment_ratio
from procsup.reports import safe_ratio
from procsup.suprema import brute_force_bernoulli_sup, expected_sup, mc_sup

from enumeration_reference import reference_enumerated_norm, reference_norm_of
from mc_reference import reference_mc_mean, reference_mc_norm
from moments_reference import (
    reference_bernoulli_norm_proxy,
    reference_bernoulli_norms_exact,
    reference_ell1_part,
    reference_gaussian_norm_exact,
    reference_tail_l2,
)

coords = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
vectors = st.lists(coords, min_size=1, max_size=9).map(np.array)
orders = st.integers(min_value=1, max_value=12)


def _exact(t: np.ndarray, p) -> float:
    """``||B_t||_p`` of the vector ``t``: a one-row call of the exact route."""
    return float(bernoulli_exact_norms(t[None, :], (p,))[0, 0])


def _proxy(t: np.ndarray, p) -> float:
    """The proxy of the vector ``t`` at order ``p``: a one-row call of the proxy route."""
    return float(proxy_norms(t[None, :], p)[2][0])


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
    want = gaussian_moment_constant(p) * float(np.linalg.norm(t))
    assert gaussian_norms(t[None, :], p)[0] == pytest.approx(want, rel=1e-12, abs=1e-300)


# --- exact Bernoulli norms ---


def test_bernoulli_exact_frozen_values():
    assert _exact(np.ones(2), 2) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    # E|e1+e2+e3+e4| with four fair signs: 2*(6*0 + 8*2 + 2*4)/16/2 = 1.5
    assert _exact(np.ones(4), 1) == pytest.approx(1.5, rel=1e-14)
    assert _exact(np.ones(1), 7) == pytest.approx(1.0, rel=1e-14)


@given(vectors)
def test_bernoulli_second_moment_is_l2(t):
    assert _exact(t, 2) == pytest.approx(float(np.linalg.norm(t)), rel=1e-12, abs=1e-12)


@given(vectors, orders, st.randoms(use_true_random=False))
def test_bernoulli_exact_permutation_and_sign_invariant(t, p, rnd):
    reference = _exact(t, p)
    shuffled = t.tolist()
    rnd.shuffle(shuffled)
    flipped = np.array([c if rnd.random() < 0.5 else -c for c in shuffled])
    assert _exact(flipped, p) == pytest.approx(reference, rel=1e-12, abs=1e-12)


@given(vectors, orders)
def test_bernoulli_exact_doubling_scale_is_exact(t, p):
    # multiplying by 2 only shifts exponents, so equality is bitwise
    assert _exact(2.0 * t, p) == 2.0 * _exact(t, p)


@given(vectors, orders, orders)
def test_bernoulli_exact_monotone_in_order(t, p, q):
    lo, hi = sorted((p, q))
    assert _exact(t, lo) <= _exact(t, hi) * (1 + 1e-12)


@given(vectors, st.integers(min_value=1, max_value=6))
def test_kahane_doubling_within_sqrt3(t, q):
    lhs = _exact(t, 2 * q)
    rhs = math.sqrt(3.0) * _exact(t, q)
    assert lhs <= rhs * (1 + 1e-12)


def test_bernoulli_exact_dimension_cap():
    assert _exact(np.ones(21), 2) == pytest.approx(math.sqrt(21.0), rel=1e-15)  # even orders pass d = 20
    with pytest.raises(CapacityError):
        bernoulli_exact_norms(np.ones((1, 21)), (1, 2))
    with pytest.raises(ParameterError, match="moment order"):  # orders are checked first
        bernoulli_exact_norms(np.ones((1, 21)), (2, 0.5))


# --- even orders past the enumeration dimension ---


def _fraction_cosh_norms(t, ps):
    """``||B_t||_p`` at the even orders ``ps``: the cosh-series recurrence in exact arithmetic, rounded once.

    Each float is an exact rational, so over a common power-of-two denominator the moments
    ``M_j = sum_l C(2j, 2l) t_i^(2l) M_(j-l)`` are integers; only the p-th root is taken, in 60 digits.
    """
    ratios = [Fraction(float(v)) for v in t]
    den = math.lcm(*(r.denominator for r in ratios))
    ns = [int(r * den) for r in ratios]
    top = max(ps) // 2
    ms = [1] + [0] * top
    for n in ns:
        powers = [n ** (2 * l) for l in range(top + 1)]
        ms = [sum(math.comb(2 * j, 2 * l) * powers[l] * ms[j - l] for l in range(j + 1)) for j in range(top + 1)]
    scale = sum(abs(n) for n in ns)
    with localcontext() as ctx:
        ctx.prec = 60
        roots = [(Decimal(ms[p // 2]) / Decimal(scale) ** p) ** (Decimal(1) / p) for p in ps]
        return [float(Decimal(scale) / den * root) for root in roots]


@pytest.mark.parametrize("dim", [32, 256, 1024])
def test_even_exact_norms_past_the_enumeration_dimension_match_exact_arithmetic(dim):
    gen = rng.stream(dim, "wide-even-exact")
    rows = np.stack([rng.standard_normal(gen, dim), np.tan(np.pi * (gen.random(dim) - 0.5)), np.ones(dim)])
    ps = (2, 8, 32, moments.WIDE_EVEN_MAX_ORDER)
    got = bernoulli_exact_norms(rows, ps)
    for row, values in zip(rows, got):  # normal, Cauchy and all-ones rows
        for value, want in zip(values, _fraction_cosh_norms(row, ps)):
            assert abs(value - want) <= 1e-15 * want


@pytest.mark.parametrize("dim", [32, 64])
def test_even_exact_norms_past_the_enumeration_dimension_match_exact_rationals(dim):
    rows = rng.stream(dim, "wide-even-fraction").integers(-4, 5, size=(3, dim)).astype(np.float64)
    ps = (2, 4, 6, 8, 16, 32)
    got = bernoulli_exact_norms(rows, ps)
    for row, values in zip(rows, got):
        assert values.tolist() == pytest.approx(_fraction_cosh_norms(row, ps), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("dim", [21, 4096])
def test_exact_orders_past_their_route_limits_fail_before_any_work(monkeypatch, dim):
    monkeypatch.setattr(moments, "_EXACT_ROUTES", {"cosh-series": None, "meet-in-the-middle": None})  # never reached
    top = moments.WIDE_EVEN_MAX_ORDER
    with pytest.raises(CapacityError, match=f"^exact Bernoulli norm above dim 20 needs p <= {top}, got p = {top + 2} "):
        bernoulli_exact_norms(np.ones((1, dim)), (2, top + 2))
    with pytest.raises(CapacityError, match=f"^exact Bernoulli norm needs dim <= 20, got {dim}$"):
        bernoulli_exact_norms(np.ones((1, dim)), (2, 3))
    monkeypatch.undo()
    assert bernoulli_exact_norms(np.ones((0, dim)), (top + 2, 3)).shape == (0, 2)  # an empty batch needs no oracle
    with pytest.raises(CapacityError, match=f"got p = 1024 at dim {dim}$"):  # all-ones at d = 4096 would underflow to 0
        bernoulli_exact_norms(np.ones((1, dim)), (1024,))


# --- several orders in one call ---


_ROUTE_TOLERANCES = {"cosh-series": 1e-12, "meet-in-the-middle": 1e-13}


def _one_order_reference(t, p):
    # The one-order enumeration that the multi-order exact route replaced, kept verbatim.
    q = moments._check_moment_order(p)
    scale = float(np.abs(t).sum())
    if scale == 0.0:
        return 0.0
    total = sum(float(((np.abs(s) / scale) ** q).sum()) for s in signed_row_sums(t[:, None], lambda s: s))
    return scale * (total / (1 << (t.size - 1))) ** (1.0 / q)


def _assert_matches_reference(t, ps, got):
    # Meet in the middle's odd orders agree with enumeration to 1e-13 relative, the cosh series' even ones to 1e-12.
    for p, value in zip(ps, got):
        want = _one_order_reference(t, p)
        assert value == pytest.approx(want, rel=_ROUTE_TOLERANCES[bernoulli_exact_route(p)], abs=0.0)


magnitudes = st.sampled_from([0.0, -0.0, 1e-5, 3e-3, 0.7, 1.0, 2.0, 3.0, 41.5, 1e5])
entries = st.one_of(
    st.integers(min_value=-4, max_value=4).map(float),  # ties and cancelling sums
    st.tuples(magnitudes, st.sampled_from([1.0, -1.0])).map(lambda ms: ms[0] * ms[1]),
    st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
)
order_lists = st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 16, 33, 1.0]), min_size=1, max_size=8)


@given(st.lists(entries, min_size=1, max_size=14), order_lists, st.booleans())
def test_norms_equal_the_one_order_route_bit_for_bit(xs, ps, small_blocks):
    t = np.array(xs)
    with pytest.MonkeyPatch.context() as mp:
        if small_blocks:
            mp.setattr(moments, "_BLOCK_BYTES", 64)  # eight sums per block
        got = bernoulli_exact_norms(t[None, :], ps)[0].tolist()
        _assert_matches_reference(t, ps, got)
        assert [_exact(t, p) for p in ps] == got


@given(st.lists(entries, min_size=1, max_size=14), order_lists)
def test_norms_of_c_and_minus_c_are_equal_bit_for_bit(xs, ps):
    c = np.array(xs)
    assert bernoulli_exact_norms(-c[None, :], ps).tolist() == bernoulli_exact_norms(c[None, :], ps).tolist()


def test_norms_exact_at_twenty_terms_and_for_no_orders():
    t = rng.standard_normal(rng.stream(7, "twenty"), 20)
    ps = (1, 2, 3, 8, 2, 33)
    _assert_matches_reference(t, ps, bernoulli_exact_norms(t[None, :], ps)[0].tolist())
    assert bernoulli_exact_norms(t[None, :], ()).shape == (1, 0)
    assert bernoulli_exact_norms(np.array([[0.0, -0.0]]), (1, 3)).tolist() == [[0.0, 0.0]]



# --- even orders by the cosh series ---

even_orders = st.sampled_from([2, 4, 6, 8, 10, 16, 32, 64, 100, 128, 256, 512, 1000, 1024, 2.0, 8.0])


def test_exact_route_is_the_cosh_series_for_even_integer_orders_up_to_1024():
    assert [bernoulli_exact_route(p) for p in (2, 4.0, 32, 1000, 1024)] == ["cosh-series"] * 5
    assert [bernoulli_exact_route(p) for p in (1, 3, 5.0, 7, 29, 31, 33, 1023)] == ["meet-in-the-middle"] * 8
    assert moments.EXACT_MAX_ORDER == 1024
    for p in (1.5, 2.5, 7.25, 1025, 1026, 2048, 0.5):
        with pytest.raises(ParameterError, match=f"^exact Bernoulli norms need an integer moment order "
                                                 f"1 <= p <= 1024, got {p}$"):
            bernoulli_exact_route(p)


@given(st.lists(entries, min_size=1, max_size=14), st.lists(even_orders, min_size=1, max_size=6))
def test_cosh_series_equals_enumeration_to_1e_12(xs, ps):
    t = np.array(xs)
    got = bernoulli_exact_norms(t[None, :], ps)[0]
    for p, value in zip(ps, got):
        assert value == pytest.approx(_one_order_reference(t, p), rel=1e-12, abs=0.0)


def test_cosh_series_equals_enumeration_at_twenty_terms_up_to_order_1024():
    t = rng.standard_normal(rng.stream(8, "cosh-twenty"), 20)
    ps = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
    for p, value in zip(ps, bernoulli_exact_norms(t[None, :], ps)[0]):
        assert value == pytest.approx(_one_order_reference(t, p), rel=1e-12, abs=0.0)


matrices = st.integers(min_value=1, max_value=14).flatmap(
    lambda d: st.lists(st.lists(entries, min_size=d, max_size=d), min_size=1, max_size=6)
).map(np.array)


@given(matrices, even_orders)
def test_cosh_batch_rows_equal_one_row_calls_bit_for_bit(m, p):
    model = MomentModel.BERNOULLI_EXACT
    batch = model.norms(m, p)
    for row, value in zip(m, batch):
        one = model.norms(row[None, :], p)
        assert one.tobytes() == np.float64(value).tobytes()
        assert bernoulli_exact_norms(row[None, :], (p,)).tobytes() == one.tobytes()
        # an order's value does not depend on the orders that share its call
        assert bernoulli_exact_norms(row[None, :], (1024, p, 2))[0, 1] == value


def test_cosh_series_edge_rows():
    model = MomentModel.BERNOULLI_EXACT
    assert model.norms(np.zeros((0, 3)), 4).shape == (0,)
    assert model.norms(np.array([[0.0, -0.0], [3.0, 4.0]]), 2).tolist() == [0.0, pytest.approx(5.0, rel=1e-15)]
    assert bernoulli_exact_norms(np.array([[-2.5]]), (2, 1024)).tolist() == [[2.5, 2.5]]
    assert model.norms(np.ones((2, 21)), 2).tolist() == [pytest.approx(math.sqrt(21.0), rel=1e-15)] * 2
    with pytest.raises(CapacityError):  # odd orders stop at d = 20
        model.norms(np.ones((2, 21)), 3)
    with pytest.raises(ValidationError, match="^increment rows must be finite$"):
        model.norms(np.array([[1.0, np.nan]]), 2)


@pytest.mark.parametrize("p", [0.5, 1.5, 2.5, 7.25, 1025, 1026, 2048, math.inf, math.nan])
def test_out_of_domain_orders_raise_before_any_work(monkeypatch, p):
    def never(*args, **kwargs):
        raise AssertionError("an exact norm did work for an order outside its domain")

    for name in ("_finite_rows", "_norms", "signed_row_sums"):
        monkeypatch.setattr(moments, name, never)
    for route in moments._EXACT_ROUTES:
        monkeypatch.setitem(moments._EXACT_ROUTES, route, never)
    with pytest.raises(ParameterError, match="^exact Bernoulli norms need an integer moment order 1 <= p <= 1024"):
        bernoulli_exact_norms(np.full((1, 21), np.nan), (1, 2, p))  # over the cap and not finite, too


# --- odd orders by meet in the middle ---

# every odd order up to 31, and some up to the top of the exact domain
_ODD_ORDERS = (*range(1, 32, 2), 33, 63, 255, 1023)
odd_orders = st.lists(st.sampled_from(_ODD_ORDERS), min_size=1, max_size=4)
# zero, repeated and mixed-scale coordinates: spikes among tiny ones, grid ties, the full float range
meet_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-9, -3e-12, 5.0, 1e9]),
    st.integers(min_value=-3, max_value=3).map(float),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@given(st.integers(1, 20).flatmap(lambda d: st.lists(meet_entries, min_size=d, max_size=d)), odd_orders)
def test_meet_in_the_middle_equals_enumeration_to_1e_13(xs, ps):
    t = np.array(xs)
    got = bernoulli_exact_norms(t[None, :], ps)[0]
    if not np.abs(t).sum():
        assert got.tolist() == [0.0] * len(ps)
        return
    for p, value in zip(ps, got):
        assert value == pytest.approx(reference_enumerated_norm(t, p), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("t", [
    np.array([-2.5]),
    np.ones(20),
    np.array([1e-9] + [0.0] * 18 + [5.0]),
    np.array([0.0, -0.0, 3.0, 3.0, -3.0, 1e-300, 7.0]),
    np.ldexp(rng.standard_normal(rng.stream(10, "meet-scales"), 20), np.arange(-40, 40, 4)),
], ids=["one-term", "all-ones", "spike", "zeros-and-ties", "mixed-scales"])
def test_meet_in_the_middle_edge_rows(t):
    ps = _ODD_ORDERS
    got = bernoulli_exact_norms(t[None, :], ps)[0]
    for p, value in zip(ps, got):
        assert value == pytest.approx(reference_enumerated_norm(t, p), rel=1e-13, abs=0.0)


@given(matrices, odd_orders)
def test_meet_batch_rows_equal_one_row_calls_and_minus_rows_bit_for_bit(m, ps):
    batch = bernoulli_exact_norms(m, ps)
    assert bernoulli_exact_norms(-m, ps).tobytes() == batch.tobytes()
    for row, values in zip(m, batch):
        assert bernoulli_exact_norms(row[None, :], ps).tobytes() == values.tobytes()
        for p, value in zip(ps, values):
            assert MomentModel.BERNOULLI_EXACT.norms(row[None, :], p).tobytes() == value.tobytes()


def test_meet_norms_of_c_and_minus_c_are_equal_bit_for_bit_at_twenty_terms():
    # generic rows: without the flip to a positive first coordinate, some orders differ in the last bit
    m = rng.standard_normal(rng.stream(11, "meet-orders"), (8, 20))
    ps = _ODD_ORDERS
    assert bernoulli_exact_norms(-m, ps).tobytes() == bernoulli_exact_norms(m, ps).tobytes()


def test_an_odd_order_does_not_depend_on_the_orders_beside_it():
    m = rng.standard_normal(rng.stream(11, "meet-orders"), (3, 20))
    alone = bernoulli_exact_norms(m, (3,))
    assert alone[:, 0].tobytes() == bernoulli_exact_norms(m, (1, 3, 1023))[:, 1].tobytes()
    assert alone[:, 0].tobytes() == bernoulli_exact_norms(m, (31, 3, 2))[:, 1].tobytes()


@pytest.mark.parametrize("ps", [(1, 2, 3), (2,), (3,), ()])
def test_exact_norms_reject_an_overflowing_l1_norm(ps):
    with pytest.raises(ParameterError, match="^the l1 norm of row 0 overflows float64$"):
        bernoulli_exact_norms(np.array([[1e308, 1e308]]), ps)


@pytest.mark.parametrize("p", [2, 3])
def test_exact_model_rejects_an_overflowing_l1_norm(p):
    rows = np.array([[1.0, 2.0], [1e308, -1e308]])
    with pytest.raises(ParameterError, match="^the l1 norm of row 1 overflows float64$"):
        MomentModel.BERNOULLI_EXACT.norms(rows, p)

# --- the proxy and its decomposition ---


def test_decomposition_parts_manual():
    t = np.array([[3.0, -2.0, 1.0]])
    for p, head, tail in [(1, 3.0, math.sqrt(5.0)), (2, 5.0, 1.0), (5, 6.0, 0.0)]:
        got_head, got_tail, value = proxy_norms(t, p)
        assert got_head[0] == head and got_tail[0] == pytest.approx(tail)
        assert value[0] == got_head[0] + math.sqrt(p) * got_tail[0]


def test_rearrange_gives_nonincreasing_magnitudes():
    # the head at order p sums the p largest magnitudes: a prefix of the rearrangement (3, 2, 1)
    assert [proxy_norms(np.array([[1.0, -3.0, 2.0]]), p)[0][0] for p in (1, 2, 3)] == [3.0, 5.0, 6.0]


@given(vectors, orders)
def test_proxy_sandwich_against_exact(t, p):
    exact = _exact(t, p)
    proxy = _proxy(t, p)
    assert exact * (1 - 1e-12) <= proxy <= 4.0 * exact * (1 + 1e-12) + 1e-300


@given(vectors, orders)
def test_proxy_dominates_l2(t, p):
    assert _proxy(t, p) >= float(np.linalg.norm(t)) * (1 - 1e-12)


@given(vectors, orders)
def test_proxy_doubling_growth(t, p):
    # doubling the order costs at most a factor 1 + sqrt(2)
    small = _proxy(t, p)
    big = _proxy(t, 2 * p)
    assert big <= (1.0 + math.sqrt(2.0)) * small * (1 + 1e-12)


@given(vectors, orders, st.randoms(use_true_random=False))
def test_proxy_is_rearrangement_invariant(t, p, rnd):
    # the row, its magnitudes permuted, and its rearrangement (magnitudes in nonincreasing order)
    order = list(range(t.size))
    rnd.shuffle(order)
    rows = np.stack([t, np.abs(t)[order], -np.sort(-np.abs(t))])
    values = proxy_norms(rows, p)[2]
    assert values[1:] == pytest.approx([values[0]] * 2, rel=1e-13, abs=0.0)


def test_proxy_rejects_bad_order():
    with pytest.raises(ParameterError):
        proxy_norms(np.ones((1, 1)), 0)
    for p in (2.0, True, "2"):
        with pytest.raises(ParameterError, match=f"^p must be an integer, got {re.escape(repr(p))}$"):
            proxy_norms(np.ones((1, 1)), p)
    assert proxy_norms(np.ones((1, 1)), np.int64(2))[2].tolist() == [1.0]


# --- Monte Carlo route ---


def _mc(kind, t, p, samples, seed) -> tuple[float, float]:
    """Estimate and stderr of ``||X_t||_p`` for the vector ``t``: a one-row call of the Monte Carlo route."""
    est, stderr = mc_norms(kind, t[None, :], p, samples, seed)
    return float(est[0]), float(stderr[0])


def test_mc_norm_is_deterministic_and_content_keyed():
    t = np.array([1.0, -2.0, 0.5])
    a = _mc(ProcessKind.GAUSSIAN, t, 3, 4000, Seed(11))
    b = _mc(ProcessKind.GAUSSIAN, t, 3, 4000, Seed(11))
    assert a == b
    c = _mc(ProcessKind.GAUSSIAN, t, 3, 4000, Seed(12))
    assert a != c
    # the stream is keyed by the row's content: another row draws another stream
    est, _ = _mc(ProcessKind.GAUSSIAN, 2.0 * t, 3, 4000, Seed(11))
    assert est != 2.0 * a[0]


def test_mc_norm_zero_vector():
    assert _mc(ProcessKind.BERNOULLI, np.zeros(2), 2, 100, Seed(0)) == (0.0, 0.0)


@pytest.mark.parametrize("kind,p", [(ProcessKind.GAUSSIAN, 1), (ProcessKind.GAUSSIAN, 4),
                                    (ProcessKind.BERNOULLI, 2)])
def test_mc_norm_agrees_with_exact(kind, p):
    t = np.array([1.0, -0.7, 0.4, 2.2, -1.3])
    est, stderr = _mc(kind, t, p, 60_000, Seed(5))
    exact = gaussian_norms(t[None, :], p)[0] if kind is ProcessKind.GAUSSIAN else _exact(t, p)
    assert abs(est - exact) <= 4.0 * stderr


@pytest.mark.parametrize("samples", [0, 1])
def test_moment_model_needs_two_samples(samples):
    # the stderr divides by samples - 1
    with pytest.raises(ParameterError, match=f"^Monte Carlo needs samples >= 2, got {samples}$"):
        MonteCarloModel(ProcessKind.GAUSSIAN, samples, Seed(1))
    assert MonteCarloModel(ProcessKind.GAUSSIAN, 2, Seed(1)).samples == 2


def _samples_entry_points():
    """Every entry point that takes ``samples``, on an exact route where it has one and on Monte Carlo."""
    ts = FiniteSet(name="s", points=np.eye(3))
    system = VectorSystem("x", np.eye(3), NormKind.SUP)
    wide = VectorSystem("w", np.eye(EXACT_ENUMERATION_MAX_DIM + 1), NormKind.SUP)  # past the enumeration cap
    pair = apply_map(ts, CoordinateMap("abs"))
    return {
        "expected_sup[exact]": lambda n: expected_sup(ProcessKind.BERNOULLI, ts, n, Seed(1)),
        "expected_sup[monte-carlo]": lambda n: expected_sup(ProcessKind.GAUSSIAN, ts, n, Seed(1)),
        "verify_sup_bound": lambda n: verify_sup_bound(ts, ProcessKind.BERNOULLI, samples=n),
        "compare_suprema": lambda n: compare_suprema(pair, samples=n),
        "decompose_by_sweep": lambda n: decompose_by_sweep(ts, samples=n),
        "strong_moment_ratio[exact]": lambda n: strong_moment_ratio(system, system, samples=n),
        "strong_moment_ratio[monte-carlo]": lambda n: strong_moment_ratio(wide, wide, samples=n),
        "mc_sup": lambda n: mc_sup(ProcessKind.GAUSSIAN, ts, n, Seed(1)),
        "mc_norms": lambda n: mc_norms(ProcessKind.GAUSSIAN, ts.matrix, 2, n, Seed(1)),
        "_mc_strong_moment": lambda n: _mc_strong_moment(VectorSystem("e", np.eye(3), NormKind.EUCLIDEAN), n, Seed(1)),
        "MonteCarloModel": lambda n: MonteCarloModel(ProcessKind.GAUSSIAN, n, Seed(1)),
    }


@pytest.mark.parametrize("entry", list(_samples_entry_points()))
@pytest.mark.parametrize("samples, message", [
    (1, "Monte Carlo needs samples >= 2, got 1"),
    (2.5, "samples must be an integer, got 2.5"),
    (True, "samples must be an integer, got True"),
])
def test_every_entry_point_taking_samples_checks_them_by_one_rule(entry, samples, message):
    run = _samples_entry_points()[entry]
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        run(samples)
    run(np.int64(2))


def test_strong_moment_ratio_checks_samples_after_the_norms():
    x, y = VectorSystem("x", np.eye(2), NormKind.SUP), VectorSystem("y", np.eye(2), NormKind.EUCLIDEAN)
    with pytest.raises(ParameterError, match="^systems must share one ambient norm$"):
        strong_moment_ratio(x, y, samples=1)


def test_every_samples_default_is_the_one_constant():
    assert moments.DEFAULT_SAMPLES == 100_000
    for fn in (verify_sup_bound, compare_suprema, decompose_by_sweep, strong_moment_ratio):
        assert inspect.signature(fn).parameters["samples"].default == moments.DEFAULT_SAMPLES, fn.__name__


def test_moment_model_validation():
    with pytest.raises(ParameterError):
        MonteCarloModel(ProcessKind.GAUSSIAN, 0, Seed(1))
    assert MomentModel.GAUSSIAN_EXACT.label == "gaussian-exact"
    mc = MonteCarloModel(ProcessKind.BERNOULLI, 100, Seed(2))
    assert "monte-carlo" in mc.label and "seed=2" in mc.label


def test_moment_model_routes_match_direct_calls():
    t = np.array([[0.3, -1.1, 2.0]])
    assert MomentModel.BERNOULLI_EXACT.norms(t, 3).tobytes() == bernoulli_exact_norms(t, (3,))[:, 0].tobytes()
    assert MomentModel.GAUSSIAN_EXACT.norms(t, 3).tobytes() == gaussian_norms(t, 3).tobytes()
    assert MomentModel.BERNOULLI_PROXY.norms(t, 3).tobytes() == proxy_norms(t, 3)[2].tobytes()
    # a non-integer order raises what the direct call raises, rather than running at a truncated order
    for model, message in [(MomentModel.BERNOULLI_PROXY, "^p must be an integer, got 2.5$"),
                           (MomentModel.BERNOULLI_EXACT, "^exact Bernoulli norms need an integer moment order ")]:
        with pytest.raises(ParameterError, match=message):
            model.norms(t, 2.5)


@pytest.mark.parametrize("model", [
    MomentModel.BERNOULLI_PROXY,
    MomentModel.BERNOULLI_EXACT,
    MomentModel.GAUSSIAN_EXACT,
    MonteCarloModel(ProcessKind.BERNOULLI, 200, Seed(4)),
], ids=lambda m: m.label.partition("[")[0])
@pytest.mark.parametrize("d", [1, 5, 17])
def test_norm_is_the_one_row_case_of_norms(model, d):
    rows = rng.standard_normal(rng.stream(d, "norm-vs-norms"), (4, d))
    for p in (1, 2, 3, 8):
        one_row = [model.norms(row[None, :], p) for row in rows]
        assert all(one.shape == (1,) for one in one_row)
        if not isinstance(model, MonteCarloModel):  # a Monte Carlo batch shares one stream
            assert np.concatenate(one_row).tobytes() == model.norms(rows, p).tobytes()


# --- the shared sign enumerator and Monte Carlo accumulator ---


@pytest.mark.parametrize("block_bytes", [None, 160], ids=["one-block", "many-blocks"])
@pytest.mark.parametrize("d", range(1, 11))
def test_enumeration_matches_itertools_brute_force(monkeypatch, d, block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(moments, "_BLOCK_BYTES", block_bytes)
    m = rng.standard_normal(rng.stream(d, "enumeration-reference"), (d, 5))
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=d)))
    sums = signs @ m  # every sign pattern, eps_0 = -1 included
    pinned = np.concatenate(list(signed_row_sums(m, lambda s: s)))
    assert pinned.shape == (2 ** (d - 1), 5)
    np.testing.assert_allclose(
        np.sort(pinned, axis=0), np.sort(sums[signs[:, 0] > 0], axis=0), rtol=1e-12, atol=1e-12
    )
    # Exact supremum over the five columns of m, as points of R^d.
    points = FiniteSet(name="cols", points=m.T)
    assert brute_force_bernoulli_sup(points).value == pytest.approx(
        sums.max(axis=1).mean(), rel=1e-12
    )
    # Exact norms of the first column.
    for p in (1, 2, 3, 8):
        expected = np.mean(np.abs(sums[:, 0]) ** p) ** (1.0 / p)
        assert _exact(m[:, 0], p) == pytest.approx(expected, rel=1e-12)
    # Strong moments of the d rows of m, as a series in R^5.
    for norm in NormKind:
        system = VectorSystem(name="rows", vectors=m, norm=norm)
        expected = np.mean(reference_norm_of(norm.value, sums))
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


# --- batched Monte Carlo norms: one stream per call ---


@st.composite
def _one_row_cases(draw):
    d = draw(st.integers(1, 40))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = gen.standard_normal(d) * 10.0 ** gen.uniform(-6, 6)
    p = draw(st.one_of(st.integers(1, 9), st.floats(1.0, 9.0)))
    # 4-row chunks up to one chunk of the whole run; counts off the multiple of 4 included
    chunk_rows = draw(st.sampled_from([4, 12, 1 << 20]))
    samples = draw(st.integers(2, 90))
    return draw(st.sampled_from(list(ProcessKind))), t, p, samples, chunk_rows


@given(_one_row_cases())
def test_one_row_mc_norms_is_the_scalar_estimator_bit_for_bit(case):
    kind, t, p, samples, chunk_rows = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments, "_BLOCK_BYTES", 8 * t.size * chunk_rows)
        est, stderr = mc_norms(kind, t[None, :], p, samples, Seed(9))
        ref = reference_mc_norm(kind, t, p, samples, Seed(9))
        assert np.array([est[0], stderr[0]]).tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("kind", list(ProcessKind))
@pytest.mark.parametrize("block_bytes", [None, 8 * 5 * 12], ids=["one-chunk", "12-row-chunks"])
def test_vector_mc_mean_is_the_scalar_accumulator_per_column(monkeypatch, kind, block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(moments, "_BLOCK_BYTES", block_bytes)
    m = rng.standard_normal(rng.stream(1, "mc-mean-columns"), (5, 3))
    one = mc_mean(kind, rng.stream(2, "mc-mean"), m, 103, lambda ys: ys.max(axis=1, keepdims=True))
    ref = reference_mc_mean(kind, rng.stream(2, "mc-mean"), m, 103, lambda ys: ys.max(axis=1))
    assert one[0].shape == one[1].shape == (1,)
    assert np.array([one[0][0], one[1][0]]).tobytes() == np.array(ref).tobytes()
    means, stderrs = mc_mean(kind, rng.stream(2, "mc-mean"), m, 103, lambda ys: ys**3)
    for j in range(3):
        ref = reference_mc_mean(kind, rng.stream(2, "mc-mean"), m, 103, lambda ys: ys[:, j] ** 3)
        assert np.array([means[j], stderrs[j]]).tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("count", [3, 48, 64])
def test_a_chunk_of_draws_and_products_fits_the_block_budget(count):
    # The levels of a 64-point d=32 chain bound under 20 000 Gaussian samples:
    # few rows make the draws the larger block, many rows the products.
    rows = rng.standard_normal(rng.stream(count, "mc-budget"), (count, 32))
    tracemalloc.start()
    try:
        mc_norms(ProcessKind.GAUSSIAN, rows, 2, 20_000, Seed(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= moments._BLOCK_BYTES + (1 << 20)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("p", [1, 2, 4])
def test_mc_norms_of_a_64_row_level_are_within_three_sigma(seed, p):
    # One column in 370 leaves 3 sigma by chance, so among 64 a lone 3-sigma miss
    # is common (p=4, seed 1 has one at 3.8); more than two, or any beyond
    # 4 sigma (Bonferroni over 64 columns at 0.5%), is not.
    rows = rng.standard_normal(rng.stream(seed, "mc-level"), (64, 32))
    est, stderr = mc_norms(ProcessKind.GAUSSIAN, rows, p, 20_000, Seed(seed))
    exact = gaussian_norms(rows, p)
    assert (stderr > 0.0).all()
    z = np.abs(est - exact) / stderr
    assert (z > 3.0).sum() <= 2 and (z <= 4.0).all()


def test_mc_norms_zero_rows_and_the_shared_stream():
    rows = np.array([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0], [0.3, 0.3, -4.0]])
    est, stderr = mc_norms(ProcessKind.BERNOULLI, rows, 3, 500, Seed(4))
    assert est[1] == stderr[1] == 0.0 and (est[[0, 2]] > 0.0).all()
    assert np.array_equal(mc_norms(ProcessKind.BERNOULLI, rows, 3, 500, Seed(4))[0], est)
    assert mc_norms(ProcessKind.BERNOULLI, rows[[1]], 3, 500, Seed(4))[0].tolist() == [0.0]
    # the stream is keyed by the whole matrix, so a row's bits depend on its companions
    assert mc_norms(ProcessKind.BERNOULLI, rows[[0]], 3, 500, Seed(4))[0][0] != est[0]


def test_mc_norms_rejects_bad_arguments():
    rows = np.ones((2, 3))
    with pytest.raises(ParameterError, match="samples >= 2"):
        mc_norms(ProcessKind.GAUSSIAN, rows, 2, 1, Seed(0))
    with pytest.raises(ParameterError, match="moment order"):
        mc_norms(ProcessKind.GAUSSIAN, rows, 0.5, 10, Seed(0))
    with pytest.raises(ValidationError, match=r"\(k, d\) matrix"):
        mc_norms(ProcessKind.GAUSSIAN, np.ones(3), 2, 10, Seed(0))
    # the scale would be inf and every estimate 0
    with pytest.raises(ParameterError, match="^the l2 norm of row 1 overflows float64$"):
        mc_norms(ProcessKind.GAUSSIAN, np.array([[1.0, 2.0], [1e200, 1e200]]), 2, 10, Seed(0))
    with pytest.raises(ParameterError, match="overflows"):
        mc_norms(ProcessKind.BERNOULLI, np.array([[1e200, -1e200]]), 2, 10, Seed(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("model", [
    MomentModel.GAUSSIAN_EXACT,
    MonteCarloModel(ProcessKind.GAUSSIAN, 10, Seed(1)),
    MonteCarloModel(ProcessKind.BERNOULLI, 10, Seed(1)),
    MomentModel.BERNOULLI_PROXY,
    MomentModel.BERNOULLI_EXACT,
])
def test_norms_rejects_non_finite_rows_on_both_batched_routes(model, bad):
    rows = np.array([[1.0, 2.0], [bad, 0.0]])
    with pytest.raises(ValidationError, match="^increment rows must be finite$"):
        model.norms(rows, 2)


@pytest.mark.parametrize("p", [400, 1024])
@pytest.mark.parametrize("norms", [
    lambda rows, p: mc_norms(ProcessKind.GAUSSIAN, rows, p, 1000, Seed(0)),
    lambda rows, p: MonteCarloModel(ProcessKind.GAUSSIAN, 1000, Seed(0)).norms(rows, p),
], ids=["mc_norms", "MonteCarloModel"])
def test_mc_norms_rejects_an_overflowing_estimate_naming_its_row(norms, p):
    # |g|^p overflows float64 for |g| > 5.9 at p = 400, where only the variance overflows, and for |g| > 2 at p = 1024
    rows = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ParameterError, match=f"^the Monte Carlo p-th moment of row 1 overflows float64 at p = {p}$"):
        norms(rows, p)


def test_mc_norms_keeps_finite_estimates_and_zero_rows_at_a_high_order():
    est, stderr = mc_norms(ProcessKind.BERNOULLI, np.array([[0.0, 0.0], [1.0, 0.0]]), 1024, 1000, Seed(0))
    assert est.tolist() == [0.0, 1.0] and stderr.tolist() == [0.0, 0.0]


def test_monte_carlo_norms_route_is_one_mc_norms_call():
    model = MonteCarloModel(ProcessKind.GAUSSIAN, 300, Seed(6))
    rows = rng.standard_normal(rng.stream(6, "route"), (5, 4))
    assert model.norms(rows, 4).tobytes() == mc_norms(ProcessKind.GAUSSIAN, rows, 4, 300, Seed(6))[0].tobytes()
    assert model.norms(rows[:1], 4).tobytes() == mc_norms(ProcessKind.GAUSSIAN, rows[:1], 4, 300, Seed(6))[0].tobytes()


# --- the row-matrix routes against the one-vector references ---


@st.composite
def _row_matrices(draw, max_dim):
    """``(k, d)`` rows with ``1 <= d <= max_dim``: drawn entries, or rounded normals that tie."""
    d = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, 6))
    if draw(st.booleans()):
        cells = st.one_of(entries, st.sampled_from([0.0, -0.0]))
        return np.array(draw(st.lists(st.lists(cells, min_size=d, max_size=d), min_size=k, max_size=k)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-5, 5))
    return np.round(gen.standard_normal((k, d)), draw(st.integers(0, 2))) * scale


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@given(_row_matrices(24), st.data())
def test_proxy_rows_equal_the_one_vector_reference_bit_for_bit(m, data):
    p = data.draw(st.integers(0, m.shape[1] + 2))
    if p == 0:
        with pytest.raises(ParameterError, match="proxy needs p >= 1"):
            proxy_norms(m, p)
        return
    want = [reference_bernoulli_norm_proxy(row, p) for row in m]
    assert _bits([w[0] for w in want]) == _bits([reference_ell1_part(row, p) for row in m])
    assert _bits([w[1] for w in want]) == _bits([reference_tail_l2(row, p) for row in m])
    head, tail, value = proxy_norms(m, p)
    assert head.tobytes() == _bits([w[0] for w in want])
    assert tail.tobytes() == _bits([w[1] for w in want])
    assert value.tobytes() == _bits([w[2] for w in want])
    assert MomentModel.BERNOULLI_PROXY.norms(m, p).tobytes() == value.tobytes()
    for row, w in zip(m, want):
        assert np.concatenate(proxy_norms(row[None, :], p)).tobytes() == _bits(w)


@given(_row_matrices(24), st.one_of(st.integers(1, 12), st.floats(1.0, 12.0)))
def test_gaussian_rows_equal_the_one_vector_reference_bit_for_bit(m, p):
    want = _bits([reference_gaussian_norm_exact(row, p) for row in m])
    assert gaussian_norms(m, p).tobytes() == want
    assert MomentModel.GAUSSIAN_EXACT.norms(m, p).tobytes() == want
    assert np.concatenate([gaussian_norms(row[None, :], p) for row in m]).tobytes() == want


def _assert_exact_rows_match(got: np.ndarray, want: np.ndarray, ps) -> None:
    # The one-vector reference's cosh series keeps its bits; it enumerates
    # the odd orders, which meet in the middle matches within 1e-13.
    assert got.shape == want.shape
    for c, p in enumerate(ps):
        if bernoulli_exact_route(p) == "meet-in-the-middle":
            np.testing.assert_allclose(got[:, c], want[:, c], rtol=1e-13, atol=0.0)
        else:
            assert got[:, c].tobytes() == want[:, c].tobytes()


@given(_row_matrices(14), order_lists, st.booleans())
def test_exact_rows_equal_the_one_vector_reference_bit_for_bit(m, ps, small_blocks):
    with pytest.MonkeyPatch.context() as mp:
        if small_blocks:
            mp.setattr(moments, "_BLOCK_BYTES", 64)  # eight sums per block
        want = np.array([reference_bernoulli_norms_exact(row, ps) for row in m]).reshape(len(m), len(ps))
        got = bernoulli_exact_norms(m, ps)
        _assert_exact_rows_match(got, want, ps)
        for c, p in enumerate(ps):
            assert MomentModel.BERNOULLI_EXACT.norms(m, p).tobytes() == got[:, c].tobytes()
        assert np.concatenate([bernoulli_exact_norms(row[None, :], ps) for row in m]).tobytes() == got.tobytes()


def test_exact_rows_at_twenty_terms_and_over_the_cap():
    m = rng.standard_normal(rng.stream(9, "exact-rows-twenty"), (2, 20))
    ps = (1, 3, 8, 33)
    want = np.array([reference_bernoulli_norms_exact(row, ps) for row in m])
    _assert_exact_rows_match(bernoulli_exact_norms(m, ps), want, ps)
    for d in (21, 24):
        with pytest.raises(CapacityError, match=f"^exact Bernoulli norm needs dim <= 20, got {d}$"):
            bernoulli_exact_norms(np.ones((1, d)), ps)
    assert bernoulli_exact_norms(np.ones((0, 24)), ps).shape == (0, 4)  # an empty batch needs no oracle


@pytest.mark.parametrize("call, message", [
    (lambda: gaussian_norms(np.array([[1e200]]), 2), "l2 norm of row 0"),
    (lambda: MomentModel.GAUSSIAN_EXACT.norms(np.array([[1.0, 0.0], [1e200, 0.0]]), 2), "l2 norm of row 1"),
    (lambda: proxy_norms(np.array([[1e200, 1e200]]), 1), "l2 norm of row 0"),
    (lambda: proxy_norms(np.array([[1e308, 1e308]]), 2), "l1 norm of row 0"),
    (lambda: proxy_norms(np.array([[1.0, 2.0], [1e308, 1e308]]), 2), "l1 norm of row 1"),
    (lambda: MomentModel.BERNOULLI_PROXY.norms(np.array([[1.0, 2.0], [1e200, 1e200]]), 1), "l2 norm of row 1"),
    (lambda: proxy_norms(np.array([[1.0, 2.0, 3.0], [1e200, 1e200, 1.0]]), 1), "l2 norm of row 1"),
    (lambda: proxy_norms(np.array([[0.0, 0.0], [1e308, 1e308]]), 5), "l1 norm of row 1"),
], ids=["gaussian", "gaussian-model", "proxy-tail", "proxy-head", "proxy-rows", "proxy-model", "tail", "head"])
def test_proxy_and_gaussian_routes_reject_overflowing_norms(call, message):
    with pytest.raises(ParameterError, match=f"^the {message} overflows float64$"):
        call()


def test_large_but_finite_norms_still_pass_the_overflow_check():
    t = np.array([1e150, -1e150])
    assert gaussian_norms(t[None, :], 2)[0] == reference_gaussian_norm_exact(t, 2)
    t = np.array([1e300, 1e150, 1.0])
    head, tail, _ = proxy_norms(t[None, :], 1)  # the head holds the huge coordinate
    assert (head[0], tail[0]) == (1e300, reference_tail_l2(t, 1))


# --- the sandwich verifier ---


def test_moment_sandwich_records_each_route_and_checks_the_sandwich():
    rows = np.array([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0], [3.0, 0.0, 1.0]])
    records, checked, violations = moment_sandwich(rows, [1, 2])
    assert (checked, violations) == (True, 0)
    assert [(r.point, r.p) for r in records] == [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)]
    for r in records:
        head, tail, proxy = (float(x[r.point]) for x in proxy_norms(rows, r.p))
        (exact,) = bernoulli_exact_norms(rows[r.point : r.point + 1], [r.p])[0]
        assert (r.ell1_part, r.tail_l2, r.proxy) == (head, tail, proxy)
        assert r.gaussian_exact == gaussian_norms(rows, r.p)[r.point]
        assert (r.bernoulli_exact, r.bernoulli_route) == (exact, bernoulli_exact_route(r.p))
        assert r.sandwich_ratio == safe_ratio(proxy, exact)
    # the origin: exact and proxy both 0, ratio 0, no violation
    assert [r.sandwich_ratio for r in records if r.point == 1] == [0.0, 0.0]


def test_moment_sandwich_counts_a_zero_exact_norm_under_a_nonzero_proxy(monkeypatch):
    monkeypatch.setattr(moments, "bernoulli_exact_norms", lambda rows, ps: np.zeros((len(rows), len(ps))))
    records, checked, violations = moment_sandwich(np.array([[1.0, 2.0], [0.0, 0.0]]), [1, 2])
    assert (checked, violations) == (True, 2)  # point 0 at both orders; the origin keeps the sandwich
    assert [r.sandwich_ratio for r in records] == [math.inf, math.inf, 0.0, 0.0]


def test_moment_sandwich_allows_rounding_at_both_ends_and_no_more(monkeypatch):
    rows = np.array([[1.0, -2.0, 0.5]])
    proxy = proxy_norms(rows, 2)[2][0]
    for ratio, bad in ((1.0 - 1e-12, 0), (1.0 - 1e-6, 1), (4.0 + 1e-12, 0), (4.0 + 1e-6, 1), (2.0, 0)):
        monkeypatch.setattr(moments, "bernoulli_exact_norms", lambda rows, ps, e=proxy / ratio: np.array([[e]]))
        assert moment_sandwich(rows, [2])[2] == bad, ratio
