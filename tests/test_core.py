import errno
import io
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from procsup import core, rng
from procsup.core import (
    GENERATE_MAX_COORDINATES,
    FiniteSet,
    ParseError,
    Seed,
    SetKind,
    ValidationError,
    check_count,
    distinct_rows,
    generate_set,
    load_set,
    point_matrix,
    read_points_file,
    save_set,
)
from procsup.contraction import CoordinateMap, apply_map, check_condition, fit_min_C
from procsup.errors import CapacityError, ParameterError
from procsup.moments import proxy_norms
from procsup.oleszkiewicz import (NormKind, VectorSystem, check_weak_contraction, generate_functionals,
                                  weak_moment_constant)

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


def _reference_distinct_rows(m):
    """The lexsort over ``d`` keys that one sort of each row's bytes replaced."""
    key = m + 0.0
    order = np.lexsort(key.T)
    ranked = key[order]
    starts = np.ones(len(m), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    run_first = order[starts]
    slot = np.empty(len(m), dtype=np.intp)
    slot[order] = np.argsort(np.argsort(run_first))[np.cumsum(starts) - 1]
    return np.sort(run_first), slot


@given(st.integers(1, 40), st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
def test_distinct_rows_matches_the_lexsort_reference(count, dim, seed, strided):
    # few values, so rows repeat; some differ only in the sign of a zero, some in one low byte
    gen = np.random.default_rng(seed)
    m = gen.choice([-1.5, -0.0, 0.0, 5e-324, 1e-300, 2.0], (count, 2 * dim if strided else dim))
    if strided:
        m = m[:, ::2]
    first, slot = distinct_rows(m)
    want_first, want_slot = _reference_distinct_rows(m)
    assert first.tolist() == want_first.tolist() and slot.tolist() == want_slot.tolist()
    assert first.dtype == slot.dtype == np.intp
    assert (m[first][slot] == m).all()


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
    assert np.count_nonzero(ts.matrix, axis=0).max() <= 1  # no coordinate is nonzero in two points
    with pytest.raises(ParameterError, match="block"):
        generate_set(SetKind.DISJOINT_BLOCKS, 12, 4, Seed(3))


def test_check_count_is_one_integer_rule():
    for value, message in [(True, "n must be an integer, got True"), (2.0, "n must be an integer, got 2.0"),
                           (0, "n must be >= 1, got 0")]:
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            check_count(value, "n", 1)
    check_count(np.int64(1), "n", 1)


@pytest.mark.parametrize("call, message", [
    (lambda: generate_set("random_sphere", 0, 3, 0), "dim must be >= 1, got 0"),
    (lambda: generate_set("random_sphere", 3, -2, 0), "count must be >= 1, got -2"),
    (lambda: generate_functionals(NormKind.SUP, 0, 1, Seed(0)), "dim must be >= 1, got 0"),
    (lambda: generate_functionals(NormKind.SUP, 2, -1, Seed(0)), "extra must be >= 0, got -1"),
    (lambda: weak_moment_constant(*_systems(), p_max=0), "p_max must be >= 1, got 0"),
    (lambda: check_weak_contraction(*_systems(), p_max=-1), "p_max must be >= 0, got -1"),
    (lambda: check_condition(_pair(), 1.0, -1), "p_max must be >= 0, got -1"),
    (lambda: fit_min_C(_pair(), p_max=-1), "p_max must be >= 0, got -1"),
    (lambda: proxy_norms(np.eye(2), -1), "p must be >= 0, got -1"),
    (lambda: fit_min_C(_pair(), p_max=True), "p_max must be an integer, got True"),
])
def test_every_count_goes_through_the_one_rule(call, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call()


def _systems():
    x = VectorSystem("x", np.eye(2), NormKind.SUP)
    return x, x, generate_functionals(NormKind.SUP, 2, 0, Seed(0))


def _pair():
    return apply_map(FiniteSet(name="s", points=np.eye(2)), CoordinateMap("abs"))


@pytest.mark.parametrize("call, message", [
    (lambda: generate_set("random_sphere", 2, 2, 0, (1.0, math.nan)), "^param 1 must be finite, got nan$"),
    (lambda: CoordinateMap("clamp", (-1.0, math.nan)), "^param 1 must be finite, got nan$"),
    (lambda: generate_set("random_sphere", 2, 2, 0, ("a",)), "^param 0 must be a finite number, got 'a'$"),
    (lambda: CoordinateMap("scale", ("2",)), "^param 0 must be a finite number, got '2'$"),
    (lambda: CoordinateMap("scale", (10**400,)), "^param 0 must be a finite number, got 1000"),
])
def test_set_generators_and_maps_share_the_finite_params_rule(call, message):
    with pytest.raises(ParameterError, match=message):
        call()


@pytest.mark.parametrize("fmt, rows", [("finite-set", "points"), ("vector-system", "vectors")])
@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_a_file_version_must_be_the_json_integer_one(tmp_path, fmt, rows, version):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"format": fmt, "version": version, "norm": "sup", "dim": 1, rows: [[1.0]]}))
    with pytest.raises(ParseError, match=f"unsupported version {re.escape(repr(version))}$"):
        read_points_file(path, (fmt,))


def test_generate_set_rejects_bad_kind_and_sizes():
    with pytest.raises(ParameterError, match="unknown set kind"):
        generate_set("torus", 3, 3, Seed(0))
    with pytest.raises(ParameterError):
        generate_set(SetKind.RANDOM_SPHERE, 0, 3, Seed(0))
    with pytest.raises(ParameterError):
        generate_set(SetKind.RANDOM_SPHERE, 3, 0, Seed(0))
    with pytest.raises(ParameterError, match=r"^dim must be an integer, got 2\.5$"):
        generate_set("random_sphere", 2.5, 3, 0)
    with pytest.raises(ParameterError, match=r"^count must be an integer, got 2\.0$"):
        generate_set("cube_vertices", 3, 2.0, 0)


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
    assert back.content_hash() == ts.content_hash()
    assert not back.matrix.flags.writeable


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
        # rows a ragged object array, a number beyond float64, a dict or a string: never coerced
        (np.array([[1.0, 2.0], [3.0]], dtype=object), "set 'bad' mixes dimensions"),
        (np.array([[1.0, 2.0], [10**400, 1.0]], dtype=object), "set 'bad': point 1: int too large to convert"),
        ([[1.0, 2.0], [{}, 1.0]], "set 'bad': point 1 has a coordinate that is not a number"),
        ([[1.0, 2.0], ["1.0", 2.0]], "set 'bad': point 1 has a coordinate that is not a number"),
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


def test_save_set_streams_its_rows(tmp_path):
    ts = generate_set("random_sphere", 50, 4000, 0)
    tracemalloc.start()
    try:
        save_set(ts, tmp_path / "s.set")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20  # 17.2 MiB when the rows were one list and the file one string
    doc = {"format": "finite-set", "version": 1, "name": ts.name, "dim": 50, "points": ts.matrix.tolist()}
    assert (tmp_path / "s.set").read_text() == set_file_json(doc)


def test_a_failed_set_write_leaves_no_file(tmp_path, monkeypatch):
    path = tmp_path / "s.set"
    written = []

    def open_failing_after_one_write(file, mode):
        fp = open(file, mode)

        def write(text):
            if written:
                raise OSError(errno.ENOSPC, "No space left on device")
            written.append(text)
            return io.TextIOWrapper.write(fp, text)

        fp.write = write
        return fp

    monkeypatch.setattr(core, "open", open_failing_after_one_write, raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_set(generate_set("random_sphere", 50, 4000, 0), path)
    assert written and not path.exists()


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
