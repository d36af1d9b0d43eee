import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from procsup.core import (
    FiniteSet,
    ParseError,
    Point,
    Seed,
    SetKind,
    ValidationError,
    center_at_zero,
    generate_set,
    has_disjoint_supports,
    load_set,
    read_points_file,
    save_set,
)
from procsup.errors import ParameterError

from json_reference import read_points_file as reference_read_points_file
from json_reference import set_file_json

coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
points = st.lists(coords, min_size=1, max_size=6).map(lambda xs: Point(tuple(xs)))


def test_point_rejects_nan_and_inf():
    with pytest.raises(ValidationError):
        Point((1.0, math.nan))
    with pytest.raises(ValidationError):
        Point((math.inf,))


def test_point_rejects_empty():
    with pytest.raises(ValidationError):
        Point(())


def test_point_arithmetic_dim_mismatch():
    with pytest.raises(ParameterError, match="dimension mismatch"):
        Point((1.0,)) - Point((1.0, 2.0))


@given(points, points)
def test_point_sub_add_roundtrip(s, t):
    if s.dim != t.dim:
        s = Point(s.coords[:1] * t.dim)
    assert np.allclose(((t - s) + s).array, t.array)


def test_finite_set_rejects_duplicates():
    with pytest.raises(ValidationError, match=r"0.*2|duplicate"):
        FiniteSet(name="dup", points=(Point((1.0, 0.0)), Point((0.0, 1.0)), Point((1.0, 0.0))))


def test_finite_set_rejects_mixed_dims():
    with pytest.raises(ValidationError):
        FiniteSet(name="mixed", points=(Point((1.0,)), Point((1.0, 2.0))))


def test_matrix_is_readonly():
    ts = FiniteSet(name="ro", points=(Point((1.0, 2.0)),))
    with pytest.raises(ValueError):
        ts.matrix[0, 0] = 9.0


def test_content_hash_tracks_content_not_name():
    a = FiniteSet(name="a", points=(Point((1.0, 2.0)), Point((3.0, 4.0))))
    b = FiniteSet(name="b", points=(Point((1.0, 2.0)), Point((3.0, 4.0))))
    c = FiniteSet(name="a", points=(Point((1.0, 2.0)), Point((3.0, 4.5))))
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


def test_disjoint_supports():
    yes = FiniteSet(name="y", points=(Point((1.0, 0.0, 0.0)), Point((0.0, 2.0, 3.0))))
    no = FiniteSet(name="n", points=(Point((1.0, 1.0, 0.0)), Point((0.0, 2.0, 3.0))))
    assert has_disjoint_supports(yes)
    assert not has_disjoint_supports(no)


def test_center_at_zero_shifts_first_point_to_origin():
    ts = FiniteSet(name="c", points=(Point((1.0, 2.0)), Point((3.0, 5.0))))
    centered = center_at_zero(ts)
    assert centered.points[0] == Point((0.0, 0.0))
    assert centered.points[1] == Point((2.0, 3.0))


# --- generators ---


_GEN_CASES = [
    (SetKind.RANDOM_SPHERE, 4, 5, ()),
    (SetKind.SIMPLEX_VERTICES, 5, 5, ()),
    (SetKind.ELLIPSOID_SAMPLE, 4, 5, ()),
    (SetKind.CUBE_VERTICES, 4, 4, ()),
    (SetKind.DISJOINT_BLOCKS, 12, 4, (3,)),
]


@pytest.mark.parametrize("kind,dim,count,params", _GEN_CASES, ids=lambda v: getattr(v, "value", None))
def test_generators_are_deterministic(kind, dim, count, params):
    a = generate_set(kind, dim, count, Seed(7), params)
    b = generate_set(kind, dim, count, Seed(7), params)
    assert a.content_hash() == b.content_hash()


@pytest.mark.parametrize(
    "kind,dim,count,params",
    [case for case in _GEN_CASES if case[0] is not SetKind.SIMPLEX_VERTICES],
    ids=lambda v: getattr(v, "value", None),
)
def test_seeded_generators_vary_with_seed(kind, dim, count, params):
    # simplex vertices are excluded: that family ignores the seed entirely
    a = generate_set(kind, dim, count, Seed(7), params)
    c = generate_set(kind, dim, count, Seed(8), params)
    assert a.content_hash() != c.content_hash()


def test_random_sphere_radius():
    ts = generate_set(SetKind.RANDOM_SPHERE, 6, 10, Seed(1))
    norms = np.linalg.norm(ts.matrix, axis=1)
    assert np.allclose(norms, 1.0)
    scaled = generate_set(SetKind.RANDOM_SPHERE, 6, 10, Seed(1), (2.5,))
    assert np.allclose(np.linalg.norm(scaled.matrix, axis=1), 2.5)


def test_simplex_vertices_are_scaled_basis():
    ts = generate_set(SetKind.SIMPLEX_VERTICES, 4, 3, Seed(0))
    for i, p in enumerate(ts.points):
        arr = p.array
        assert arr[i] == 1.0 and np.count_nonzero(arr) == 1


def test_cube_vertices_full_enumeration_is_exact():
    ts = generate_set(SetKind.CUBE_VERTICES, 3, 8, Seed(0))
    rows = {tuple(r) for r in ts.matrix.tolist()}
    assert len(rows) == 8
    assert all(set(map(abs, r)) == {1.0} for r in rows)


def test_disjoint_blocks_have_disjoint_supports():
    ts = generate_set(SetKind.DISJOINT_BLOCKS, 12, 4, Seed(3), (3,))
    assert has_disjoint_supports(ts)
    with pytest.raises(ParameterError, match="block"):
        generate_set(SetKind.DISJOINT_BLOCKS, 12, 4, Seed(3))


def test_generate_set_rejects_bad_kind_and_sizes():
    with pytest.raises(ParameterError, match="unknown set kind"):
        generate_set("torus", 3, 3, Seed(0))
    with pytest.raises(ParameterError):
        generate_set(SetKind.RANDOM_SPHERE, 0, 3, Seed(0))
    with pytest.raises(ParameterError):
        generate_set(SetKind.RANDOM_SPHERE, 3, 0, Seed(0))


# --- serialization ---


@given(st.lists(st.lists(coords, min_size=3, max_size=3), min_size=1, max_size=5, unique_by=tuple))
def test_save_load_roundtrip_is_exact(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("sets") / "t.set"
    ts = FiniteSet(name="rt", points=tuple(Point(tuple(r)) for r in rows))
    save_set(ts, path)
    back = load_set(path)
    assert back.name == ts.name
    assert back.points == ts.points  # exact float equality, not approximate


def test_load_set_reports_json_line(tmp_path):
    bad = tmp_path / "bad.set"
    bad.write_text('{\n  "format": "finite-set",\n  oops\n}\n')
    with pytest.raises(ParseError, match="line 3"):
        load_set(bad)


def test_load_set_rejects_wrong_format(tmp_path):
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ParseError, match="not a finite-set file"):
        load_set(other)


def test_load_set_names_bad_row(tmp_path):
    doc = {
        "format": "finite-set",
        "version": 1,
        "name": "x",
        "dim": 2,
        "points": [[1.0, 2.0], [3.0]],
    }
    path = tmp_path / "short.set"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="point 1"):
        load_set(path)


def test_load_set_missing_file(tmp_path):
    with pytest.raises(ParseError, match="no such file"):
        load_set(tmp_path / "absent.set")


# The coerced-values case: dim true, a string and a boolean coordinate.
_COERCED = {"format": "finite-set", "version": 1, "dim": True, "points": [["1e3"], [True]]}


@pytest.mark.parametrize(
    "doc, match",
    [
        (_COERCED, "dim"),
        ({"dim": 1, "points": [["1e3"]]}, "point 0"),
        ({"dim": 1, "points": [[1.0], [True]]}, "point 1"),
        ({"dim": 2, "points": [[1.0, 2.0], [3.0, None]]}, "point 1"),
        ({"dim": 1, "points": [[1.0], [math.nan]]}, "point 1"),
        ({"dim": 1, "points": [[1.0], [10**400]]}, "point 1"),
        ({"dim": 0, "points": []}, "dim"),
        ({"dim": -1, "points": []}, "dim"),
        ({"dim": 1, "points": [[1.0], [-math.inf]]}, "point 1"),
        ({"dim": 1, "points": []}, "no points"),
        ({"dim": 2, "points": [[1.0, 0.0], [0.0, 1.0], [1.0, -0.0]]}, "duplicate points at indices 0 and 2"),
    ],
)
def test_load_set_rejects_values_it_would_have_to_coerce(tmp_path, doc, match):
    path = tmp_path / "strict.set"
    path.write_text(json.dumps({"format": "finite-set", "version": 1, **doc}))
    with pytest.raises((ParseError, ValidationError), match=match):
        load_set(path)


# --- one validated matrix, whichever way a set is built ---


@given(st.lists(st.lists(coords, min_size=3, max_size=3), min_size=1, max_size=5, unique_by=tuple))
def test_finite_set_from_array_matches_from_points(rows):
    array = np.array(rows, dtype=np.float64)
    a = FiniteSet(name="a", points=array)
    b = FiniteSet(name="a", points=tuple(Point(r) for r in rows))
    assert a.matrix.tobytes() == b.matrix.tobytes()
    assert a.content_hash() == b.content_hash()
    assert a.points == b.points
    assert [p.coords for p in a.points] == [tuple(r) for r in rows]
    array[0, 0] = 1e6  # the set holds its own copy
    assert a.matrix.tobytes() == b.matrix.tobytes()


def test_matrix_and_point_arrays_are_readonly():
    for ts in (FiniteSet(name="ro", points=np.eye(2)), FiniteSet(name="ro", points=(Point((1.0, 2.0)),))):
        with pytest.raises(ValueError):
            ts.matrix[0, 0] = 9.0
        with pytest.raises(ValueError):
            ts.points[0].array[0] = 9.0
    with pytest.raises(ValueError):
        Point((1.0, 2.0)).array[0] = 9.0


@pytest.mark.parametrize(
    "points, match",
    [
        (np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), "duplicate points at indices 0 and 2"),
        (np.array([[0.0, 1.0], [1.0, 0.0], [-0.0, 1.0]]), "duplicate points at indices 0 and 2"),
        ((Point((1.0, 0.0)), Point((0.0, 1.0)), Point((1.0, -0.0))), "duplicate points at indices 0 and 2"),
        ([[1.0], [1.0, 2.0]], "mixes dimensions"),
        ((Point((1.0,)), Point((1.0, 2.0))), "mixes dimensions"),
        ((), "no points"),
        (np.empty((0, 2)), "no points"),
        (np.array([[1.0], [math.nan]]), "point 1: coordinate 0 is not finite"),
        (np.ones(3), "rows"),
    ],
)
def test_finite_set_validation_messages(points, match):
    with pytest.raises(ValidationError, match=match):
        FiniteSet(name="bad", points=points)


def test_point_keeps_its_public_face():
    p = Point((1.0, -0.0, 2.5))
    assert p.coords == (1.0, -0.0, 2.5) and p.dim == 3
    assert p == Point((1.0, 0.0, 2.5)) and hash(p) == hash(Point((1.0, 0.0, 2.5)))
    assert p != Point((1.0, 0.0)) and p != (1.0, -0.0, 2.5)
    assert (p + p - p).coords == p.coords
    assert Point.zero(2).coords == (0.0, 0.0)
    assert repr(p) == "Point(coords=(1.0, -0.0, 2.5))"


# --- set files: one writer, and a loader that checks rows in bulk ---


_any_coord = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-7]),
)


@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(st.lists(_any_coord, min_size=d, max_size=d), min_size=1, max_size=6)
    ),
    st.text(),
)
def test_saved_set_bytes_equal_json_dumps(tmp_path_factory, rows, name):
    path = tmp_path_factory.mktemp("sets") / "t.set"
    rows = list({tuple(r): r for r in rows}.values())  # distinct by value (-0.0 == 0.0)
    ts = FiniteSet(name=name, points=rows)
    save_set(ts, path)
    doc = {"format": "finite-set", "version": 1, "name": name, "dim": ts.dim, "points": ts.matrix.tolist()}
    assert path.read_text() == set_file_json(doc)
    assert load_set(path).matrix.tobytes() == ts.matrix.tobytes()


def _loader_outcome(read, path):
    try:
        _, name, matrix = read(path, ("finite-set",))
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return name, matrix.tobytes(), matrix.flags.writeable


_MALFORMED_ROWS = [
    [[1.0, 2.0], [True, 0.0]],
    [[1.0, 2.0], [0.0, False]],
    [[1.0, 2.0], ["1e3", 0.0]],
    [[1.0, 2.0], [None, 0.0]],
    [[1.0, 2.0], [3.0]],
    [[1.0, 2.0], [3.0, 4.0, 5.0]],
    [[1.0, 2.0], 7],
    [[1.0, 2.0], "ab"],  # a string of the right length is still not a row
    [[1.0, 2.0], {"x": 1, "y": 2}],
    [[1.0, 2.0], None],
    [[1.0, 2.0], [[1.0], 2.0]],
    [[1.0, 2.0], [10**400, 0.0]],
    [[1.0, 2.0], [1.0, -(10**309)]],
    [[1.0, 2.0], [math.nan, 0.0]],
    [[1.0, 2.0], [0.0, math.inf]],
    [[10**400, "x"], [None]],  # the first fault in row order wins
    [[1, 2], [3.0, 2**80]],
    [],
]


@pytest.mark.parametrize("rows", _MALFORMED_ROWS)
def test_loader_names_the_same_fault_as_the_row_by_row_reader(tmp_path, rows):
    path = tmp_path / "rows.set"
    path.write_text(json.dumps({"format": "finite-set", "version": 1, "dim": 2, "points": rows}))
    assert _loader_outcome(read_points_file, path) == _loader_outcome(reference_read_points_file, path)


_json_values = st.one_of(
    st.floats(), st.integers(-(10**320), 10**320), st.booleans(), st.none(), st.text(max_size=2),
)


@given(st.lists(st.one_of(st.lists(_json_values, max_size=3), _json_values), max_size=5), st.integers(1, 3))
def test_loader_matches_the_row_by_row_reader(tmp_path_factory, rows, dim):
    path = tmp_path_factory.mktemp("sets") / "rows.set"
    path.write_text(json.dumps({"format": "finite-set", "version": 1, "dim": dim, "points": rows}))
    assert _loader_outcome(read_points_file, path) == _loader_outcome(reference_read_points_file, path)
