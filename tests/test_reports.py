import collections
import csv
import decimal
import enum
import io
import json
import math
import tracemalloc
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from json_reference import encode, report_csv, report_json
from procsup import contraction, reports
from procsup.chaining import (
    PartitionTree,
    build_partition_greedy,
    chain_bound,
    combine_sum_set,
    exhaustive_gamma,
    tree_from_dict,
)
from procsup.core import FiniteSet, Seed, distinct_rows, generate_set
from procsup.moments import MomentModel
from procsup.reports import (
    DESIGN_DECISIONS,
    SCHEMA,
    SCHEMA_VERSION,
    ComparisonReport,
    TreeLevel,
    build_report,
    dump,
    dumps,
    record,
    safe_ratio,
    to_csv,
)


def test_safe_ratio_conventions():
    assert safe_ratio(0.0, 0.0) == 0.0
    assert safe_ratio(2.0, 0.0) == math.inf
    assert safe_ratio(3.0, 2.0) == 1.5


def test_build_report_shape_and_stability():
    doc = build_report("demo", {"seed": 1}, {"set": "abc"}, {"x": 1.0})
    assert doc["schema"] == SCHEMA and doc["schema_version"] == SCHEMA_VERSION
    assert doc["design_decisions"] == DESIGN_DECISIONS
    assert "stamp" not in doc
    assert dumps(doc) == dumps(build_report("demo", {"seed": 1}, {"set": "abc"}, {"x": 1.0}))


def test_design_decisions_echo_the_fit_cap():
    # the very object the contraction fit caps at, not a second literal
    assert DESIGN_DECISIONS["fit_min_c_cap"] is contraction.FIT_CAP


def test_stamp_only_when_asked():
    doc = build_report("demo", {}, {}, {}, stamp="run-42")
    assert doc["stamp"] == "run-42"


def test_json_encodes_infinities_and_numpy_scalars():
    results = {
        "ratio": math.inf,
        "neg": -math.inf,
        "flag": np.bool_(True),
        "count": np.int64(7),
        "value": np.float64(2.5),
        "vec": np.array([1.0, 2.0]),
    }
    text = dumps(build_report("demo", {}, {}, results))
    parsed = json.loads(text)["results"]
    assert parsed == {
        "ratio": "inf",
        "neg": "-inf",
        "flag": True,
        "count": 7,
        "value": 2.5,
        "vec": [1.0, 2.0],
    }


def test_json_is_sorted_and_newline_terminated():
    text = dumps({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def test_csv_flattens_nested_keys():
    doc = build_report("demo", {"p": [1, 2]}, {"set": "h"}, {"inner": {"x": 1.5}})
    rows = list(csv.reader(io.StringIO(to_csv(doc))))
    assert rows[0] == ["key", "value"]
    table = {k: v for k, v in rows[1:]}
    assert table["results.inner.x"] == "1.5"
    assert table["config.p[0]"] == "1"


def test_comparison_report_to_dict_encodes_inf():
    report = ComparisonReport(
        quantity="q",
        lhs_label="a",
        rhs_label="b",
        lhs=1.0,
        rhs=0.0,
        ratio=math.inf,
    )
    assert record(report)["ratio"] == "inf"
    # report-only comparisons carry no verdict field at all
    assert "violation" not in record(report)
    checked = ComparisonReport(
        quantity="q", lhs_label="a", rhs_label="b", lhs=1.0, rhs=1.0, ratio=1.0,
        bound_factor=4.0, violation=False,
    )
    assert record(checked)["violation"] is False
    assert record(checked)["bound_factor"] == 4.0
    # every float field is encoded the same way, not just the ratio
    assert record(ComparisonReport("q", "a", "b", lhs=math.inf, rhs=1.0, ratio=math.inf))["lhs"] == "inf"


class _Color(enum.Enum):
    RED = "red"


@dataclass(frozen=True)
class _Record:
    z: object = 1  # declared before a, so declaration order is not name order
    a: object = 2


@pytest.mark.parametrize("obj, overrides, want", [
    (_Record(z=None), {}, [("a", 2)]),
    (_Record(a={}), {}, [("z", 1)]),
    (_Record(z=0, a=False), {}, [("z", 0), ("a", False)]),
    (_Record(z=[], a=""), {}, [("z", []), ("a", "")]),
    (_Record(z={"k": None}, a=[None]), {}, [("z", {"k": None}), ("a", [None])]),
    (_Record(z=_Color.RED, a=(1, 2.5)), {}, [("z", "red"), ("a", [1, 2.5])]),
    (_Record(z=math.inf, a=-math.inf), {}, [("z", "inf"), ("a", "-inf")]),
    (_Record(z=math.nan, a=np.float64(-math.inf)), {}, [("z", math.nan), ("a", "-inf")]),
    (_Record(z=np.float64(1.5), a=np.int64(3)), {}, [("z", 1.5), ("a", 3)]),
    (_Record(z=np.bool_(True), a=np.float32(0.5)), {}, [("z", True), ("a", 0.5)]),
    (_Record(), {"z": "x"}, [("z", "x"), ("a", 2)]),
    (_Record(), {"a": None}, [("z", 1)]),
    (_Record(), {"a": math.inf, "z": (3,)}, [("z", [3]), ("a", "inf")]),
])
def test_record_rules(obj, overrides, want):
    out = record(obj, **overrides)
    assert list(out) == [k for k, _ in want]  # declaration order, whatever the override order
    # repr tells NaN, numpy scalars and tuples apart where == would not
    assert repr(list(out.items())) == repr(want)


# --- the one-pass writer against the earlier encode + json.dumps route ---


class _Level(enum.IntEnum):
    LOW = 1


_numpy_scalars = st.one_of(
    st.booleans().map(np.bool_),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
)
_arrays = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e308]),
    st.text(),
    st.text(st.characters(max_codepoint=0x20)),  # control characters
    st.text(st.characters(min_codepoint=0x80)),  # non-ASCII, beyond the BMP too
    _numpy_scalars,
    _arrays,
    st.lists(st.integers()),  # runs the writer joins in one piece
    st.lists(st.floats()),
    st.lists(st.floats(allow_nan=False, allow_infinity=False)),
)
# One key family per dict: json sorts keys, and str keys do not compare with numbers.
_key_families = [
    st.text(),
    st.one_of(st.integers(), st.floats(), st.booleans()),
    st.none(),
]


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=4).map(tuple),
        *(st.dictionaries(keys, children, max_size=5) for keys in _key_families),
    )


_documents = st.recursive(_leaves, _containers, max_leaves=40)


@given(_documents)
def test_writer_bytes_equal_encode_then_json_dumps(doc):
    assert dumps(doc) == report_json(doc)


@given(_documents)
def test_report_json_and_csv_equal_the_earlier_route(results):
    doc = build_report("demo", {"seed": 3, "p": (1, 2)}, {"set": "abc"}, results)
    assert dumps(doc) == report_json(doc)
    assert to_csv(doc) == report_csv(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"level": _Level.LOW, "name": np.str_("x"), "f16": np.float16(1.5), "ld": np.longdouble(0.25)},
        collections.OrderedDict([("b", 1), ("a", [np.int8(-3), np.uint64(2**64 - 1)])]),
        {"pt": collections.namedtuple("Pt", "x y")(1.0, math.inf)},
        {"objects": np.array([1, "two", 3.5, None], dtype=object)},
        {"grid": np.zeros((2, 0)), "empty": np.zeros((0, 3)), "nested": [[], {}, ()]},
        {"keys": {math.nan: 1, math.inf: 2, -math.inf: 3, -0.0: 4, 2**70: 5, True: 6, np.float64(0.5): 7}},
        {None: "only"},
        [-0.0, 1e-7, 1e16, 2.5, 1, True],
        "top-level ☃\x00",
        math.inf,
        np.float32(0.1),
    ],
)
def test_writer_handles_subclasses_and_edge_values(doc):
    assert dumps(doc) == report_json(doc)


@pytest.mark.parametrize(
    "doc",
    [
        object(),
        {"set": {1, 2}},
        [b"bytes"],
        {"z": 1j},
        {"z": np.complex128(1j)},
        {"scalar_array": np.array(1.0)},
        {"when": np.datetime64("2020-01-01")},
        {"d": decimal.Decimal("1.5")},
        {(1, 2): "tuple key"},
        {np.int64(1): "numpy key"},
        {1: "int", "a": "str"},  # keys that do not sort
        {"nested": [[1, 2, object()]]},
    ],
)
def test_writer_rejects_what_json_cannot_write(doc):
    with pytest.raises(TypeError):
        report_json(doc)
    with pytest.raises(TypeError):
        dumps(doc)


def test_unsorted_writer_keeps_insertion_order():
    doc = {"b": [1.0, 2.0], "a": {"d": 1, "c": 2}}
    assert dumps(doc, sort_keys=False) == json.dumps(doc, indent=2) + "\n"


def test_build_report_does_not_copy_results():
    results = {"tree": {"levels": [[{"members": [0, 1], "rep": 0}]]}}
    config = {"p": [1, 2]}
    doc = build_report("demo", config, {}, results)
    assert doc["results"] is results
    assert doc["config"]["p"] is config["p"]


def test_csv_writes_numpy_leaves_as_plain_values():
    doc = build_report("demo", {}, {}, {"x": np.float64(2.5), "v": np.array([[1, 2]]), "b": np.bool_(False)})
    table = dict(list(csv.reader(io.StringIO(to_csv(doc))))[1:])
    assert (table["results.x"], table["results.v[0][1]"], table["results.b"]) == ("2.5", "2", "False")
    assert encode(doc)["results"]["v"] == [[1, 2]]


# --- a partition tree written from its level arrays ---


_int64s = st.integers(-(2**63), 2**63 - 1)


@given(st.lists(st.tuples(st.lists(_int64s, min_size=1, max_size=4), _int64s), max_size=8), st.integers(0, 3))
def test_block_columns_write_the_bytes_of_their_list_of_dicts(blocks, depth):
    level = TreeLevel(
        np.array([m for members, _ in blocks for m in members], dtype=np.int64),
        np.array([len(members) for members, _ in blocks], dtype=np.intp),
        np.array([r for _, r in blocks], dtype=np.int64),
    )
    plain = [{"members": members, "rep": r} for members, r in blocks]
    for _ in range(depth):
        level, plain = {"x": [level, 1]}, {"x": [plain, 1]}
    assert dumps(level) == dumps(plain) == json.dumps(plain, indent=2, sort_keys=True) + "\n"
    assert dumps(level, sort_keys=False) == dumps(plain, sort_keys=False)


def _plain(tree: PartitionTree) -> dict:
    """The tree as plain values: each level a list of ``{"members", "rep"}`` blocks."""
    return {"n_points": tree.n_points,
            "levels": [[{"members": m, "rep": r} for m, r in level.blocks()] for level in tree.arrays]}


def _assert_tree_writes_as_its_dict(tree: PartitionTree) -> None:
    """The tree's columns, at the top level and at a report's depth, give the JSON and CSV of its plain values."""
    plain, columns = _plain(tree), tree.columns()
    assert dumps(columns) == dumps(plain) == json.dumps(plain, indent=2, sort_keys=True) + "\n"
    assert dumps(columns, sort_keys=False) == dumps(plain, sort_keys=False)
    assert to_csv(columns) == to_csv(plain) == report_csv(plain)
    results = lambda form: {"set": "s", "value": 1.5, "per_point": [0.5, math.inf], "tree": form}
    doc, plain_doc = (build_report("gamma", {"seed": 1}, {"set": "h"}, results(form)) for form in (columns, plain))
    assert dumps(doc) == dumps(plain_doc) == report_json(plain_doc) == report_json(doc)
    assert to_csv(doc) == to_csv(plain_doc) == report_csv(plain_doc) == report_csv(doc)


@settings(deadline=None)
@given(st.integers(1, 300), st.integers(1, 6), st.booleans(), st.integers(0, 2**31))
@example(1, 3, False, 0)  # the one-point set
def test_greedy_trees_write_as_their_dicts(count, dim, grid, seed):
    gen = np.random.default_rng(seed)
    # a small integer grid repeats rows; they collapse to the distinct ones
    rows = gen.integers(-2, 3, (count, dim)).astype(float) if grid else gen.standard_normal((count, dim))
    ts = FiniteSet(name="tree-bytes", points=rows[distinct_rows(rows)[0]])
    tree = build_partition_greedy(ts)
    _assert_tree_writes_as_its_dict(tree)
    _assert_tree_writes_as_its_dict(tree_from_dict(json.loads(dumps(tree.columns()))))
    _assert_tree_writes_as_its_dict(PartitionTree(tree.n_points, tree.levels))


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
def test_exhaustive_trees_write_as_their_dicts(count):
    ts = generate_set("random_sphere", 4, count, Seed(count))
    _assert_tree_writes_as_its_dict(exhaustive_gamma(ts, MomentModel.gaussian_exact()).tree)


@pytest.mark.parametrize("sets", [
    (generate_set("random_sphere", 3, 4, Seed(7)), generate_set("random_sphere", 3, 5, Seed(8))),
    (FiniteSet(name="grid-a", points=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 1.0]]),
     FiniteSet(name="grid-b", points=[[0.0, 0.0], [1.0, 1.0], [-1.0, 0.0], [0.0, 2.0], [1.0, 0.0]])),
], ids=["sphere", "grid"])
def test_combined_trees_write_as_their_dicts(sets):
    set_a, set_b = sets
    _, tree = combine_sum_set(set_a, build_partition_greedy(set_a), set_b, build_partition_greedy(set_b))
    _assert_tree_writes_as_its_dict(tree)


# --- dump: the same text, written a batch at a time ---


class _Writes:
    """A text file that keeps each write apart."""

    def __init__(self) -> None:
        self.pieces: list[str] = []

    def write(self, text: str) -> None:
        self.pieces.append(text)


def _streamed(doc) -> list[str]:
    fp = _Writes()
    dump(doc, fp)
    return fp.pieces


_N = reports._BATCH_ITEMS


@st.composite
def _long_documents(draw):
    """Lists, arrays and tree levels around and past one batch, at the real batch sizes."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32)))
    n = draw(st.sampled_from([0, 1, _N - 1, _N, _N + 1, 2 * _N + 3]) | st.integers(0, 3 * _N))
    floats = gen.standard_normal(n) * 10.0 ** gen.integers(-300, 300, n)
    if n and draw(st.booleans()):
        floats[gen.integers(n)] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    d = draw(st.integers(0, 7))
    rows = draw(st.sampled_from([0, 1, _N // max(d, 1), _N // max(d, 1) + 1]) | st.integers(0, 3 * _N // max(d, 1)))
    blocks = draw(st.integers(1, 6000))
    sizes = gen.integers(1, draw(st.sampled_from([2, 4])), blocks)
    many = TreeLevel(gen.integers(0, 10**6, int(sizes.sum())), sizes, gen.integers(0, 10**6, blocks))
    long = draw(st.integers(1, 3 * _N))
    one = TreeLevel(np.arange(long), np.array([long]), np.array([0]))
    return {
        "floats": floats.tolist(),
        "array": floats,
        "ints": gen.integers(-(2**63), 2**63, n).tolist(),
        "matrix": gen.standard_normal((rows, d)),
        "int_matrix": gen.integers(-(2**40), 2**40, (rows, d)),
        "empty": np.zeros((0, d)),
        "mixed": [1, 2.5] * (n // 2),
        "levels": [many, one, many],
    }


@settings(deadline=None, max_examples=20)
@given(_long_documents())
def test_dump_streams_the_bytes_of_json_dumps_in_bounded_writes(doc):
    pieces = _streamed(doc)
    assert "".join(pieces) == dumps(doc) == report_json(doc)
    # a write holds at most a batch of text, or one batch of entries alone, whatever the document's size
    assert max(map(len, pieces)) < 2 * reports._BATCH_CHARS


_tree_levels = st.lists(st.tuples(st.lists(_int64s, min_size=1, max_size=4), _int64s), max_size=8).map(
    lambda blocks: TreeLevel(
        np.array([m for members, _ in blocks for m in members], dtype=np.int64),
        np.array([len(members) for members, _ in blocks], dtype=np.intp),
        np.array([r for _, r in blocks], dtype=np.int64),
    )
)


@given(st.recursive(_leaves | _tree_levels, _containers, max_leaves=20), st.integers(1, 3), st.integers(1, 40))
def test_dump_in_tiny_batches_writes_the_bytes_of_json_dumps(doc, items, chars):
    with mock.patch.object(reports, "_BATCH_ITEMS", items), mock.patch.object(reports, "_BATCH_CHARS", chars):
        pieces = _streamed(doc)
        assert "".join(pieces) == report_json(doc)
        assert to_csv({"results": doc}) == report_csv({"results": doc})


def test_a_20000_point_gamma_report_streams_in_little_memory(tmp_path):
    ts = generate_set("random_sphere", 8, 20000, 16)
    bound = chain_bound(ts, build_partition_greedy(ts), MomentModel.gaussian_exact())
    results = {"set": ts.name, "value": bound.value, "per_point": list(bound.per_point),
               "tree": bound.tree.columns()}
    doc = build_report("gamma", {"seed": 0}, {"set": ts.content_hash()}, results)
    tracemalloc.start()
    try:
        with open(tmp_path / "r.json", "w") as fp:
            dump(doc, fp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20  # 8.9 MiB when the text was built whole
    assert (tmp_path / "r.json").read_text() == report_json(doc)
