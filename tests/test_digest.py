"""Input hashes are the SHA-256 of each field's float64 bytes, laid out as documented."""

import hashlib

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from procsup.core import CONTENT_HASH_RULE, FiniteSet, content_digest, generate_set, load_set, save_set
from procsup.oleszkiewicz import NormKind, VectorSystem
from procsup.reports import DESIGN_DECISIONS

_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308, 1.0, -1.0]
values = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def matrix_pairs(draw):
    """Two matrices of one shape up to 6x6; the second is the first with at most two entries redrawn."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
    b = list(a)
    for i, v in draw(st.lists(st.tuples(st.integers(0, rows * cols - 1), values), max_size=2)):
        b[i] = v
    return np.array(a).reshape(rows, cols), np.array(b).reshape(rows, cols)


@given(matrix_pairs())
def test_digests_are_equal_exactly_when_the_matrices_are_equal_bit_for_bit(pair):
    a, b = pair
    same = content_digest(dim=a.shape[1], points=a) == content_digest(dim=b.shape[1], points=b)
    assert same == (a.tobytes() == b.tobytes())


def test_signed_zeros_hash_apart():
    assert content_digest(points=np.array([[0.0]])) != content_digest(points=np.array([[-0.0]]))


def test_the_name_is_left_out():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert FiniteSet("a", m).content_hash() == FiniteSet("b", m).content_hash()
    norm = NormKind.SUP
    assert VectorSystem("a", m, norm).content_hash() == VectorSystem("b", m, norm).content_hash()


def test_the_shape_enters_the_digest():
    m = np.arange(6.0)
    assert content_digest(points=m.reshape(2, 3)) != content_digest(points=m.reshape(3, 2))


def test_memory_order_and_byte_order_do_not_enter_the_digest():
    wide = np.arange(48.0).reshape(6, 8) - 20.5
    views = [np.asfortranarray(wide[:, :3]), wide[::2, 1::3], wide[:, :3].astype(">f8"), wide[:, :3].T.T]
    for view in views:
        want = content_digest(dim=view.shape[1], points=np.ascontiguousarray(view, dtype="<f8"))
        assert content_digest(dim=view.shape[1], points=view) == want


def test_a_systems_digest_changes_with_its_norm():
    m = np.array([[1.0, -2.0], [0.5, 3.0]])
    assert VectorSystem("x", m, NormKind.SUP).content_hash() != VectorSystem("x", m, NormKind.EUCLIDEAN).content_hash()


def test_a_saved_set_loads_back_to_its_hash(tmp_path):
    ts = generate_set("random_sphere", 7, 30, 5)
    save_set(ts, tmp_path / "s.set")
    assert load_set(tmp_path / "s.set").content_hash() == ts.content_hash()


def test_plain_hashlib_over_the_documented_layout_gives_the_hash():
    ts = generate_set("random_sphere", 3, 4, 2)
    h = hashlib.sha256(b'["dim", 3]\n' + b'["points", "<f8", [4, 3]]\n')
    h.update(ts.matrix.astype("<f8").tobytes())
    assert ts.content_hash() == h.hexdigest()

    system = VectorSystem("v", ts.matrix[:, :2], NormKind.EUCLIDEAN)
    h = hashlib.sha256(b'["norm", "euclidean"]\n' + b'["vectors", "<f8", [4, 2]]\n')
    h.update(ts.matrix[:, :2].astype("<f8").tobytes())
    assert system.content_hash() == h.hexdigest()


def test_reports_name_the_rule():
    assert DESIGN_DECISIONS["content_hash"] == CONTENT_HASH_RULE
