import hashlib

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import ndtri

from mc_reference import reference_rademacher
from procsup import rng


@given(st.integers(min_value=0, max_value=2**63), st.text(min_size=1, max_size=20))
def test_streams_reproduce_exactly(seed, label):
    a = rng.standard_normal(rng.stream(seed, label), 16)
    b = rng.standard_normal(rng.stream(seed, label), 16)
    assert np.array_equal(a, b)


def test_streams_separate_by_label_and_index():
    base = rng.standard_normal(rng.stream(5, "alpha"), 8)
    assert not np.array_equal(base, rng.standard_normal(rng.stream(5, "beta"), 8))
    assert not np.array_equal(base, rng.standard_normal(rng.stream(5, "alpha", index=1), 8))
    assert not np.array_equal(base, rng.standard_normal(rng.stream(6, "alpha"), 8))


def test_uniform_open_stays_inside_unit_interval():
    u = rng.uniform_open(rng.stream(0, "u"), 100_000)
    assert u.min() > 0.0 and u.max() < 1.0


@given(st.integers(0, 3 * rng._PIECE + 5), st.integers(1, 3))
@example(0, 1)
@example(rng._PIECE, 1)
@example(rng._PIECE + 1, 1)
@example(rng._PIECE - 1, 3)
def test_uniforms_drawn_in_pieces_are_one_draw_of_the_whole_size(count, width):
    # the one-call formula: every 53-bit integer of the block drawn at once
    whole = rng.stream(4, "pieces").integers(0, 1 << 53, size=(count, width), dtype=np.uint64)
    want = (whole.astype(np.float64) + 0.5) * (2.0**-53)
    gen = rng.stream(4, "pieces")
    assert rng.uniform_open(gen, (count, width)).tobytes() == want.tobytes()
    assert rng.standard_normal(rng.stream(4, "pieces"), (count, width)).tobytes() == ndtri(want).tobytes()
    # and the stream goes on from the same place
    assert gen.integers(0, 1 << 62) == rng.stream(4, "pieces").integers(0, 1 << 62, size=count * width + 1)[-1]


def test_rademacher_values_and_balance():
    r = rng.rademacher(rng.stream(1, "r"), 100_000)
    assert set(np.unique(r)) == {-1.0, 1.0}
    assert abs(r.mean()) < 0.02


_sizes = st.integers(0, 40) | st.tuples(st.integers(0, 6), st.integers(0, 9))


@given(st.lists(st.tuples(st.sampled_from(["signs", "normals", "word"]), _sizes), max_size=8), st.integers(0, 2**63))
@example([("signs", 1), ("word", 0), ("signs", 5), ("signs", (3, 7))], 0)
def test_rademacher_signs_are_the_bounded_int8_draw(steps, seed):
    # other draws between the signs, a lone 32-bit word included, leave both streams at the same place
    gen, ref = rng.stream(seed, "signs"), rng.stream(seed, "signs")
    for what, size in steps:
        if what == "signs":
            got = rng.rademacher(gen, size)
            want = reference_rademacher(ref, size)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        elif what == "normals":
            assert rng.standard_normal(gen, size).tobytes() == rng.standard_normal(ref, size).tobytes()
        else:
            assert gen.integers(0, 2**32, dtype=np.uint32) == ref.integers(0, 2**32, dtype=np.uint32)
    assert gen.integers(0, 2**62) == ref.integers(0, 2**62)


def test_standard_normal_moments():
    g = rng.standard_normal(rng.stream(2, "g"), 200_000)
    assert abs(g.mean()) < 0.01
    assert abs(g.std() - 1.0) < 0.01


def test_content_streams_keep_the_labels_of_the_inline_digests():
    # the labels that key the mc-norm, mc-sup and strong-moment streams
    m = np.arange(6.0).reshape(2, 3)
    for prefix, tag in (("mc-norm", "|gaussian|2.0"), ("mc-sup", "bernoulli"), ("strong-moment", "sup")):
        label = f"{prefix}:{hashlib.sha256(m.tobytes() + tag.encode()).hexdigest()}"
        want = rng.uniform_open(rng.stream(5, label), 8)
        assert rng.uniform_open(rng.content_stream(5, prefix, m, tag), 8).tobytes() == want.tobytes()
