import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from procsup import rng
from procsup.core import (
    GENERATE_MAX_COORDINATES,
    FiniteSet,
    ParseError,
    Seed,
    SetKind,
    ValidationError,
    center_at_zero,
    generate_set,
    has_disjoint_supports,
    load_set,
    point_matrix,
    read_points_file,
    save_set,
)
from procsup.errors import CapacityError, ParameterError

from json_reference import read_points_file as reference_read_points_file
from json_reference import set_file_json

coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def test_point_rejects_nan_and_inf():
    with pytest.raises(ValidationError, match="^m: point 0: coordinate 1 is not finite: nan$"):
        point_matrix([[1.0, math.nan]], "m")
    with pytest.raises(ValidationError, match="^m: vector 1: coordinate 0 is not finite: inf$"):
        point_matrix([[1.0], [math.inf]], "m", "vector")


def test_point_rejects_empty():
    with pytest.raises(ValidationError, match="^m: points must be rows of one or more coordinates$"):
        point_matrix([[]], "m")
    with pytest.raises(ValidationError, match="^m has no points$"):
        point_matrix([], "m")


def test_finite_set_rejects_duplicates():
    with pytest.raises(ValidationError, match=r"0.*2|duplicate"):
        FiniteSet(name="dup", points=[[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])


def test_finite_set_rejects_mixed_dims():
    with pytest.raises(ValidationError):
        FiniteSet(name="mixed", points=[[1.0], [1.0, 2.0]])


def test_matrix_is_readonly():
    ts = FiniteSet(name="ro", points=[[1.0, 2.0]])
    with pytest.raises(ValueError):
        ts.matrix[0, 0] = 9.0


def test_content_hash_tracks_content_not_name():
    a = FiniteSet(name="a", points=[[1.0, 2.0], [3.0, 4.0]])
    b = FiniteSet(name="b", points=[[1.0, 2.0], [3.0, 4.0]])
    c = FiniteSet(name="a", points=[[1.0, 2.0], [3.0, 4.5]])
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


def test_disjoint_supports():
    yes = FiniteSet(name="y", points=[[1.0, 0.0, 0.0], [0.0, 2.0, 3.0]])
    no = FiniteSet(name="n", points=[[1.0, 1.0, 0.0], [0.0, 2.0, 3.0]])
    assert has_disjoint_supports(yes)
    assert not has_disjoint_supports(no)


def test_center_at_zero_shifts_first_point_to_origin():
    ts = FiniteSet(name="c", points=[[1.0, 2.0], [3.0, 5.0]])
    centered = center_at_zero(ts)
    assert centered.matrix.tolist() == [[0.0, 0.0], [2.0, 3.0]]


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
    for i, arr in enumerate(ts.matrix):
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


@pytest.mark.parametrize("kind, dim, count", [
    (SetKind.RANDOM_SPHERE, 1000, 100_000_000),  # 745 GiB of draws
    (SetKind.CUBE_VERTICES, 40, 2**40),
    (SetKind.ELLIPSOID_SAMPLE, 16, 262_145),  # one point past the cap
    (SetKind.SIMPLEX_VERTICES, 2049, 2048),
])
def test_generate_set_over_the_coordinate_cap_raises_before_any_draw(monkeypatch, kind, dim, count):
    streams = []
    monkeypatch.setattr(rng, "stream", lambda *args, **kwargs: streams.append(args))
    message = f"^set generation capped at {GENERATE_MAX_COORDINATES} coordinates, got {count} points of dim {dim}$"
    with pytest.raises(CapacityError, match=message):
        generate_set(kind, dim, count, Seed(0))
    assert streams == []


def test_generate_set_at_the_coordinate_cap_runs():
    assert GENERATE_MAX_COORDINATES == 2048 * 2048
    ts = generate_set(SetKind.SIMPLEX_VERTICES, 2048, 2048, Seed(0))
    assert ts.matrix.shape == (2048, 2048) and (ts.matrix == np.eye(2048)).all()

# --- serialization ---


@given(st.lists(st.lists(coords, min_size=3, max_size=3), min_size=1, max_size=5, unique_by=tuple))
def test_save_load_roundtrip_is_exact(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("sets") / "t.set"
    ts = FiniteSet(name="rt", points=rows)
    save_set(ts, path)
    back = load_set(path)
    assert back.name == ts.name
    assert back.matrix.tobytes() == ts.matrix.tobytes()  # exact float equality, not approximate


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
    b = FiniteSet(name="a", points=tuple(map(tuple, rows)))
    assert a.matrix.tobytes() == b.matrix.tobytes()
    assert a.content_hash() == b.content_hash()
    assert a.matrix.tolist() == rows
    array[0, 0] = 1e6  # the set holds its own copy
    assert a.matrix.tobytes() == b.matrix.tobytes()


def test_matrix_and_point_arrays_are_readonly():
    for ts in (FiniteSet(name="ro", points=np.eye(2)), FiniteSet(name="ro", points=[(1.0, 2.0)])):
        with pytest.raises(ValueError):
            ts.matrix[0, 0] = 9.0
        with pytest.raises(ValueError):
            ts.matrix[0][0] = 9.0  # a row view is read-only too
    source = np.eye(2)
    matrix = point_matrix(source, "m")
    with pytest.raises(ValueError):
        matrix[0, 0] = 9.0
    source[0, 0] = 9.0  # the matrix is a copy
    assert matrix[0, 0] == 1.0


@pytest.mark.parametrize(
    "points, match",
    [
        (np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), "duplicate points at indices 0 and 2"),
        (np.array([[0.0, 1.0], [1.0, 0.0], [-0.0, 1.0]]), "duplicate points at indices 0 and 2"),
        (((1.0, 0.0), (0.0, 1.0), (1.0, -0.0)), "duplicate points at indices 0 and 2"),
        ([[1.0], [1.0, 2.0]], "mixes dimensions"),
        ((np.array([1.0]), np.array([1.0, 2.0])), "mixes dimensions"),
        ((), "no points"),
        (np.empty((0, 2)), "no points"),
        (np.array([[1.0], [math.nan]]), "point 1: coordinate 0 is not finite"),
        (np.ones(3), "rows"),
    ],
)
def test_finite_set_validation_messages(points, match):
    with pytest.raises(ValidationError, match=match):
        FiniteSet(name="bad", points=points)


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
