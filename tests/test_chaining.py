import contextlib
import itertools
import json
import math
import numbers
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from procsup import chaining, moments, rng
from procsup.chaining import (
    EXHAUSTIVE_MAX_POINTS,
    EXHAUSTIVE_MAX_SEQUENCES,
    SUP_BOUND_FACTOR,
    Block,
    PartitionTree,
    _allocate_children,
    _check_level,
    _grow,
    build_partition_greedy,
    chain_bound,
    combine_sum_set,
    exhaustive_gamma,
    greedy_forest_bounds,
    level_budget,
    tree_from_dict,
    verify_sup_bound,
)
from procsup.core import FiniteSet, ProcessKind, Seed, distinct_rows, generate_set
from procsup.errors import CapacityError, ParameterError, ValidationError
from procsup.moments import MomentModel, MonteCarloModel
from procsup.reports import TreeLevel, dumps
from procsup.suprema import brute_force_bernoulli_sup

from chaining_reference import ReferenceBlock, reference_exhaustive_gamma, reference_split_level
from mc_reference import reference_shared_stream_norms


def _random_set(seed, count, dim, label="chaining-test"):
    gen = rng.stream(seed, label)
    rows = rng.standard_normal(gen, (count, dim))
    return FiniteSet(name=f"{label}-{seed}", points=rows)


def _document(tree):
    """The tree's report section as JSON reads it back."""
    return json.loads(dumps(tree.columns()))


def test_level_budgets():
    assert [level_budget(n, 1000) for n in range(4)] == [2, 4, 16, 256]
    assert [level_budget(n, 10) for n in range(4)] == [2, 4, 10, 10]
    assert level_budget(6, 2**64) == level_budget(6, 2**64 + 1) == 2**64 and level_budget(7, 2**64) == 2**64
    assert level_budget(5, np.int64(2**40)) == 2**32
    with pytest.raises(ParameterError):
        level_budget(-1, 10)


def test_a_deep_level_budget_builds_no_huge_integer():
    # 2^(2^40) would take 128 GiB; 2^(2^28) alone traced 34 MiB
    tracemalloc.start()
    try:
        assert level_budget(40, 10) == 10 and level_budget(28, 2**63 - 1) == 2**63 - 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def test_block_sorts_members_and_checks_rep():
    # a Block is a plain pair; the tree's reader sorts each block's members and checks its rep
    assert Block(members=(3, 1, 2), rep=5) == ((3, 1, 2), 5)
    tree = PartitionTree(n_points=4, levels=[[(range(4), 2)], [((3, 1, 2), 2), ([0], 0)],
                                             [((i,), i) for i in (3, 1, 2, 0)]])
    assert tree.levels[:2] == ((Block((0, 1, 2, 3), 2),), (Block((1, 2, 3), 2), Block((0,), 0)))
    assert _document(tree)["levels"][1] == [{"members": [1, 2, 3], "rep": 2}, {"members": [0], "rep": 0}]
    with pytest.raises(ValidationError, match=re.escape("representative 5 is not a member of (0, 1)")):
        PartitionTree(n_points=2, levels=[[((1, 0), 5)]])
    with pytest.raises(ValidationError, match="^a block cannot be empty$"):
        PartitionTree(n_points=2, levels=[[((0, 1), 0)], [((1,), 1), ((), 0), ((0,), 0)]])


def test_tree_validation_rejects_bad_structures():
    sing = lambda i: Block(members=(i,), rep=i)
    with pytest.raises(ValidationError, match="level 0"):
        PartitionTree(n_points=2, levels=((sing(0), sing(1)),))
    with pytest.raises(ValidationError, match="singleton"):
        PartitionTree(n_points=2, levels=((Block((0, 1), 0),),))
    with pytest.raises(ValidationError, match="covered"):
        PartitionTree(n_points=2, levels=((Block((0, 1), 0),), (sing(0),)))
    # level 2 blocks must refine level 1
    with pytest.raises(ValidationError, match="straddles"):
        PartitionTree(
            n_points=3,
            levels=(
                (Block((0, 1, 2), 0),),
                (Block((0, 1), 0), Block((2,), 2)),
                (Block((1, 2), 1), sing(0)),
            ),
        )


def test_tree_budget_enforced():
    # level 1 admits at most 4 blocks; five singletons must be rejected
    sing = lambda i: Block(members=(i,), rep=i)
    with pytest.raises(ValidationError, match="budget"):
        PartitionTree(
            n_points=5,
            levels=((Block(tuple(range(5)), 0),), tuple(sing(i) for i in range(5))),
        )


def test_tree_dict_roundtrip():
    tree = build_partition_greedy(_random_set(3, 7, 4))
    back = tree_from_dict(_document(tree))
    assert back == tree


_TWO_LEVELS = {"n_points": 2, "levels": [[{"members": [0, 1], "rep": 0}],
                                          [{"members": [0], "rep": 0}, {"members": [1], "rep": 1}]]}


@pytest.mark.parametrize(
    "path, value, message",
    [
        ((), "2", "n_points must be an integer, got '2'"),
        ((), 2.0, "n_points must be an integer, got 2.0"),
        ((), True, "n_points must be an integer, got True"),
        ((0, 0, "rep"), "0", "level 0: block 0 rep must be an integer, got '0'"),
        ((0, 0, "rep"), 0.0, "level 0: block 0 rep must be an integer, got 0.0"),
        ((1, 1, "rep"), 1.9, "level 1: block 1 rep must be an integer, got 1.9"),
        ((1, 1, "rep"), True, "level 1: block 1 rep must be an integer, got True"),
        ((1, 0, "members"), [0.0], "level 1: block 0 member must be an integer, got 0.0"),
        ((1, 1, "members"), [1.0], "level 1: block 1 member must be an integer, got 1.0"),
        ((1, 0, "members"), [False], "level 1: block 0 member must be an integer, got False"),
        ((1, 1, "members"), [True], "level 1: block 1 member must be an integer, got True"),
        ((0, 0, "members"), [0, "1"], "level 0: block 0 member must be an integer, got '1'"),
    ],
)
def test_tree_from_dict_rejects_what_it_would_have_to_coerce(path, value, message):
    doc = json.loads(json.dumps(_TWO_LEVELS))
    if path:
        level, block, key = path
        doc["levels"][level][block][key] = value
    else:
        doc["n_points"] = value
    with pytest.raises(ValidationError, match=re.escape(message)):
        tree_from_dict(doc)


@pytest.mark.parametrize("doc, fault", [
    ({"n_points": 1, "levels": [[{"members": [0]}]]}, "'rep'"),
    ({"n_points": 1, "levels": [[{"rep": 0}]]}, "'members'"),
    ({"n_points": 1}, "'levels'"),
    ({"levels": [[{"members": [0], "rep": 0}]]}, "'n_points'"),
    ({"n_points": 1, "levels": [5]}, "'int' object is not iterable"),
])
def test_tree_from_dict_names_a_malformed_document(doc, fault):
    with pytest.raises(ValidationError, match=f"^{re.escape(f'malformed partition tree document: {fault}')}$"):
        tree_from_dict(doc)


def test_tree_from_dict_keeps_integer_documents():
    tree = tree_from_dict(_TWO_LEVELS)
    assert _document(tree) == _TWO_LEVELS
    numpy_ints = {"n_points": np.int64(2), "levels": [[{"members": list(np.arange(2)), "rep": np.int64(0)}],
                                                       _TWO_LEVELS["levels"][1]]}
    assert tree_from_dict(numpy_ints) == tree


def test_a_deep_tree_document_builds_no_level_budget():
    # one point whose singleton level repeats: level 28's budget 2^(2^28) alone would take 32 MiB
    doc = {"n_points": 1, "levels": [[{"members": [0], "rep": 0}]] * 29}
    tracemalloc.start()
    try:
        tree = tree_from_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree.depth == 28
    assert peak < 1 << 20


def _reference_validate(n_points, levels):
    """The dict-and-set validator that PartitionTree.validate replaced, kept verbatim."""
    if n_points < 1:
        raise ValidationError("tree needs at least one point")
    if not levels:
        raise ValidationError("tree needs at least the root level")
    if len(levels[0]) != 1 or levels[0][0].members != tuple(range(n_points)):
        raise ValidationError("level 0 must be the single block holding every point")
    everyone = frozenset(range(n_points))
    prev_owner = None
    for n, level in enumerate(levels):
        if n >= 1 and len(level) > level_budget(n, len(level)):
            raise ValidationError(f"level {n} has {len(level)} blocks, over the budget {level_budget(n, len(level))}")
        owner = {}
        for b, block in enumerate(level):
            for i in block.members:
                if i in owner:
                    raise ValidationError(f"level {n}: point {i} appears in two blocks")
                if not 0 <= i < n_points:
                    raise ValidationError(f"level {n}: point index {i} out of range")
                owner[i] = b
        if set(owner) != everyone:
            missing = sorted(everyone - set(owner))
            raise ValidationError(f"level {n}: points {missing} not covered")
        if prev_owner is not None:
            for block in level:
                parents = {prev_owner[i] for i in block.members}
                if len(parents) > 1:
                    raise ValidationError(f"level {n}: block {block.members} straddles parent blocks")
        prev_owner = owner
    if any(len(b.members) != 1 for b in levels[-1]):
        raise ValidationError("deepest level must consist of singletons")


def _corrupt(levels, n_points, draw):
    """Apply one drawn corruption to a level of ``levels`` (lists of member lists and reps)."""
    kind = draw(st.sampled_from(["repeat", "range", "drop", "missing", "straddle", "split"]))
    level = levels[draw(st.integers(1, len(levels) - 1))]  # level 0 has a check of its own
    shared = [b for b, (members, rep) in enumerate(level) if set(members) - {rep}]
    if kind == "repeat":
        members = level[draw(st.integers(0, len(level) - 1))][0]
        members.insert(draw(st.integers(0, len(members))), draw(st.integers(0, n_points - 1)))
    elif kind == "range":
        level[draw(st.integers(0, len(level) - 1))][0].append(
            draw(st.sampled_from([-1, -7, n_points, n_points + 3, 2**40]))
        )
    elif kind == "drop" and len(level) > 1:
        del level[draw(st.integers(0, len(level) - 1))]
    elif kind in ("missing", "straddle", "split") and shared:
        members, rep = level[draw(st.sampled_from(shared))]
        moved = draw(st.sampled_from(sorted(set(members) - {rep})))
        members.remove(moved)
        if kind == "straddle":  # into another block, most often under another parent
            level[draw(st.integers(0, len(level) - 1))][0].append(moved)
        elif kind == "split":  # one block more, over the budget if the level was full
            level.append(([moved], moved))
    draw(st.randoms(use_true_random=False)).shuffle(level)


@given(st.integers(2, 40), st.integers(1, 3), st.integers(0, 2**31), st.data())
def test_array_validator_raises_what_the_dict_validator_raises(count, rounds, seed, data):
    tree = build_partition_greedy(_random_set(seed, count, 2, "corrupt"))
    levels = [[(list(b.members), b.rep) for b in level] for level in tree.levels]
    for _ in range(rounds):
        _corrupt(levels, count, data.draw)
    blocks = tuple(tuple(ReferenceBlock(tuple(m), rep) for m, rep in level) for level in levels)
    try:
        _reference_validate(count, blocks)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            PartitionTree(n_points=count, levels=levels)
        assert str(got.value) == str(exc)
    else:
        pairs = [[(b.members, b.rep) for b in level] for level in blocks]
        assert PartitionTree(n_points=count, levels=levels) == PartitionTree(n_points=count, levels=pairs)


def test_array_validator_names_each_fault_like_the_dict_validator():
    sing = lambda i: Block(members=(i,), rep=i)
    root = (Block((0, 1, 2, 3), 0),)
    cases = [
        (root, (Block((0, 1), 0), Block((1, 2, 3), 2))),  # repeat across blocks
        (root, (Block((0, 0, 1), 0), Block((2, 3), 2))),  # repeat inside one block
        (root, (Block((0, 9, 9), 0), Block((1, 2, 3), 2))),  # out of range before its own repeat
        (root, (Block((-1, 0), 0), Block((0, 1, 2, 3), 2))),  # out of range before a repeat
        (root, (Block((0, 1), 0), Block((2, 9), 2), Block((1,), 1))),  # out of range before a later repeat
        (root, (Block((0,), 0), Block((2,), 2))),  # two points not covered
        (root, (Block((0, 1), 0), Block((2, 3), 2)), (sing(1), Block((0, 3), 3), Block((2,), 2))),
    ]
    messages = []
    for levels in cases:
        with pytest.raises(ValidationError) as want:
            _reference_validate(4, levels)
        with pytest.raises(ValidationError) as got:
            PartitionTree(n_points=4, levels=levels)
        assert str(got.value) == str(want.value)
        messages.append(str(got.value))
    assert messages == [
        "level 1: point 1 appears in two blocks",
        "level 1: point 0 appears in two blocks",
        "level 1: point index 9 out of range",
        "level 1: point index -1 out of range",
        "level 1: point index 9 out of range",
        "level 1: points [1, 3] not covered",
        "level 2: block (0, 3) straddles parent blocks",
    ]
    # two straddling blocks: the first one is named
    six = ((Block(tuple(range(6)), 0),), (Block((0, 1, 2), 0), Block((3, 4, 5), 3)),
           (sing(0), Block((1, 3), 1), Block((2, 4), 2), sing(5)))
    with pytest.raises(ValidationError, match=re.escape("block (1, 3) straddles")):
        PartitionTree(n_points=6, levels=six)
    with pytest.raises(ValidationError, match="n_points must be an integer, got 1.0"):
        PartitionTree(n_points=1.0, levels=((Block((0,), 0),),))
    with pytest.raises(ValidationError, match=re.escape("level 1: block 0 member must be an integer, got 0.0")):
        PartitionTree(n_points=1, levels=((Block((0,), 0),), (Block((0.0,), 0.0),)))
    with pytest.raises(ValidationError, match="indices must be 64-bit integers"):
        PartitionTree(n_points=1, levels=((Block((0,), 0),), (Block((2**70,), 2**70),)))


def _reference_tree_from_dict(doc):
    """The block-by-block reader: integer checks, then each ReferenceBlock, then the public constructor."""
    levels = []
    for n, level in enumerate(doc["levels"]):
        blocks = []
        for b, block in enumerate(level):
            members, rep = tuple(block["members"]), block["rep"]
            for what, values in (("member", members), ("rep", (rep,))):
                bad = [v for v in values if isinstance(v, bool) or not isinstance(v, numbers.Integral)]
                if bad:
                    raise ValidationError(f"level {n}: block {b} {what} must be an integer, got {bad[0]!r}")
            block = ReferenceBlock(members, rep)
            blocks.append((block.members, block.rep))
        levels.append(tuple(blocks))
    return PartitionTree(n_points=doc["n_points"], levels=tuple(levels))


_ODD_VALUES = ["unsorted", "rep", "numpy", -1, 2**70, True, False]


@given(st.integers(2, 30), st.integers(0, 2), st.integers(0, 2**31), st.data())
def test_tree_from_dict_raises_and_accepts_what_the_blocks_do(count, rounds, seed, data):
    tree = build_partition_greedy(_random_set(seed, count, 2, "corrupt-doc"))
    levels = [[(list(b.members), b.rep) for b in level] for level in tree.levels]
    for _ in range(rounds):
        _corrupt(levels, count, data.draw)
    for _ in range(data.draw(st.integers(0, 2))):
        level = levels[data.draw(st.integers(0, len(levels) - 1))]
        b = data.draw(st.integers(0, len(level) - 1))
        members, rep = level[b]
        odd = data.draw(st.sampled_from(_ODD_VALUES))
        if odd == "unsorted":
            members.reverse()
        elif odd == "rep":
            level[b] = (members, data.draw(st.integers(-1, count)))
        elif odd == "numpy":
            kind = data.draw(st.sampled_from([np.int64, np.int32, np.uint16]))
            with contextlib.suppress(OverflowError):  # a -1 or 2**70 has no such value: keep Python ints
                level[b] = ([kind(m) for m in members], kind(rep))
        else:
            members.insert(data.draw(st.integers(0, len(members))), odd)
    n_points = data.draw(st.sampled_from([count, np.int64(count)]))
    doc = {"n_points": n_points, "levels": [[{"members": m, "rep": r} for m, r in level] for level in levels]}
    try:
        want = _reference_tree_from_dict(doc)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            tree_from_dict(doc)
        assert str(got.value) == str(exc)
    else:
        got = tree_from_dict(doc)
        assert got == want and _document(got) == _document(want)


def test_tree_keeps_read_only_arrays_and_shows_them_as_blocks():
    tree = build_partition_greedy(_random_set(2, 30, 3))
    assert all(isinstance(level, tuple) and all(isinstance(b, Block) for b in level) for level in tree.levels)
    assert tree.levels is tree.levels
    again = PartitionTree(n_points=30, levels=tree.levels)
    assert again == tree and again.levels == tree.levels
    assert tree != build_partition_greedy(_random_set(3, 30, 3))
    for array in itertools.chain(*tree.arrays):
        with pytest.raises(ValueError):
            array[0] = 1


def test_sequence_members_raise_validation_errors():
    # a list member is its own rep, but it is not an integer
    message = re.escape("level 1: block 0 member must be an integer, got [0]")
    with pytest.raises(ValidationError, match=message):
        PartitionTree(n_points=1, levels=((Block((0,), 0),), (Block(([0],), [0]),)))
    with pytest.raises(ValidationError, match=message):
        PartitionTree(n_points=2, levels=((Block((0, 1), 0),), (Block(([0],), [0]), Block((1,), 1))))


def test_sequence_members_at_the_root_fail_the_root_check():
    # the member check comes before the root's
    with pytest.raises(ValidationError, match=re.escape("level 0: block 0 member must be an integer, got [0]")):
        PartitionTree(n_points=1, levels=((Block(([0],), [0]),),))


def test_unsortable_members_raise_validation_errors():
    with pytest.raises(ValidationError, match=re.escape("level 0: block 0 member must be an integer, got 'a'")):
        PartitionTree(n_points=2, levels=((Block((0, "a"), 0),),))


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31))
def test_greedy_tree_is_admissible_and_terminal(count, seed):
    ts = _random_set(seed, count, 3, "greedy-prop")
    tree = build_partition_greedy(ts)  # construction validates admissibility
    assert all(len(b.members) == 1 for b in tree.levels[-1])
    assert tree.depth <= max(1, math.ceil(math.log2(max(2, count))))  # singletons come fast


def test_chain_bound_two_points_is_increment_norm():
    ts = FiniteSet(name="pair", points=[[0.0, 0.0], [3.0, 4.0]])
    bound = chain_bound(ts, build_partition_greedy(ts), MomentModel.GAUSSIAN_EXACT)
    assert bound.value == pytest.approx(5.0, rel=1e-12)  # ||t - s||_2 at p = 2


def test_chain_bound_checks_tree_size():
    ts = _random_set(0, 3, 2)
    other = build_partition_greedy(_random_set(1, 4, 2))
    with pytest.raises(ParameterError):
        chain_bound(ts, other, MomentModel.GAUSSIAN_EXACT)


@pytest.mark.parametrize(
    "model",
    [MomentModel.GAUSSIAN_EXACT, MomentModel.BERNOULLI_EXACT, MomentModel.BERNOULLI_PROXY],
    ids=lambda m: m.label,
)
@pytest.mark.parametrize("count", [2, 3, 4, 5])
def test_exhaustive_never_exceeds_greedy(model, count):
    for seed in range(6):
        ts = _random_set(10 * seed + count, count, 5, "exh")
        best = exhaustive_gamma(ts, model).value
        greedy = chain_bound(ts, build_partition_greedy(ts), model).value
        assert best <= greedy * (1 + 1e-12)


def test_exhaustive_two_point_gaussian_is_distance():
    for seed in range(8):
        ts = _random_set(seed, 2, 6, "exh-pair")
        want = float(np.linalg.norm(ts.matrix[1] - ts.matrix[0]))
        got = exhaustive_gamma(ts, MomentModel.GAUSSIAN_EXACT).value
        assert got == pytest.approx(want, rel=1e-12)


def test_exhaustive_point_cap():
    ts = _random_set(0, EXHAUSTIVE_MAX_POINTS + 1, 3)
    with pytest.raises(CapacityError):
        exhaustive_gamma(ts, MomentModel.GAUSSIAN_EXACT)


def test_exhaustive_sequence_counts_on_five_points():
    counts = [len(chaining._chains(5, depth)) for depth in range(2, 9)]
    assert counts == [51, 357, 1303, 3454, 7555, 14531, 25487]
    with pytest.raises(CapacityError, match=f"capped at {EXHAUSTIVE_MAX_SEQUENCES} partition sequences"):
        chaining._chains(5, 9)  # 41 708 sequences


@pytest.mark.parametrize(
    "model",
    [MomentModel.BERNOULLI_PROXY, MonteCarloModel(ProcessKind.BERNOULLI, 64, Seed(3))],
    ids=lambda m: m.label.partition("[")[0],
)
def test_exhaustive_sequence_cap_raises_before_any_norm(monkeypatch, model):
    # ceil(log2 512) = 9 levels: 41 708 sequences on 5 points, over the cap
    ts = generate_set("random_sphere", 512, 5, Seed(1))
    calls = []
    monkeypatch.setattr(MomentModel, "norms", lambda self, ts, p: calls.append(p))
    monkeypatch.setattr(moments, "mc_norms", lambda *args: calls.append(args))
    message = (f"^exhaustive search capped at {EXHAUSTIVE_MAX_SEQUENCES} partition sequences, "
               "got more at depth 9 over 5 points$")
    with pytest.raises(CapacityError, match=message):
        exhaustive_gamma(ts, model)
    assert calls == []


@pytest.mark.parametrize("n, dim, depths", [
    (2, 1, [1, 1, 1, 1]),
    (3, 9, [4, 1, 1, 4]),
    (5, 3, [2, 2, 2, 2]),
    (5, 9, [4, 2, 2, 4]),
    (5, 512, [9, 2, 2, 9]),
])
def test_exhaustive_depth_is_shallow_only_for_the_exact_models(n, dim, depths):
    models = [*MomentModel, MonteCarloModel(ProcessKind.BERNOULLI, 64, Seed(3))]
    assert [chaining._exhaustive_depth(n, dim, model) for model in models] == depths


def test_exhaustive_search_at_depth_eight_still_runs():
    ts = generate_set("random_sphere", 256, 5, Seed(1))
    model = MomentModel.BERNOULLI_PROXY
    assert exhaustive_gamma(ts, model).value <= chain_bound(ts, build_partition_greedy(ts), model).value


@pytest.mark.parametrize("dim", [32, 512])
def test_exhaustive_search_under_the_exact_bernoulli_model_runs_past_twenty_coordinates(dim):
    ts, model = generate_set("random_sphere", dim, 5, Seed(1)), MomentModel.BERNOULLI_EXACT
    got, want = exhaustive_gamma(ts, model), reference_exhaustive_gamma(ts, model)
    assert (got.value, got.tree) == (want.value, want.tree) and got.tree.depth == 2
    assert got.value <= chain_bound(ts, build_partition_greedy(ts), model).value


@pytest.mark.parametrize(
    "model",
    [
        MomentModel.GAUSSIAN_EXACT,
        MomentModel.BERNOULLI_EXACT,
        MomentModel.BERNOULLI_PROXY,
        MonteCarloModel(ProcessKind.GAUSSIAN, 64, Seed(3)),
    ],
    ids=lambda m: m.label.partition("[")[0],
)
@pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
def test_exhaustive_matches_the_recursive_reference(model, count):
    # d = 9 searches deeper than the first singleton level under the proxy and
    # Monte Carlo; integer grids and sign vectors make cost ties common.
    gen = rng.stream(count, "exh-reference")
    for dim in (3, 9):
        normal = rng.standard_normal(gen, (count, dim))
        for rows in (normal, np.round(2.0 * normal), np.where(normal < 0.0, -1.0, 1.0)):
            rows = rows[distinct_rows(rows)[0]]
            ts = FiniteSet(name=f"exh-{dim}", points=rows)
            got, want = exhaustive_gamma(ts, model), reference_exhaustive_gamma(ts, model)
            assert got.value == want.value
            assert np.array(got.per_point).tobytes() == np.array(want.per_point).tobytes()
            assert got.tree == want.tree


def test_exhaustive_step_ties_go_to_the_lowest_index():
    # Equal increments from rep 0 to points 1 and 2 with equal tails: the old strict < kept 1.
    inc = [[0.0, 2.0, 2.0], [2.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
    assert chaining._best_step(inc, [0.5, 0.5, 0.5], 0, (1, 2)) == (2.5, 1)
    assert chaining._best_step(inc, [0.5, 0.5, 0.0], 0, (1, 2)) == (2.0, 2)


# --- sum-set combiner ---


def test_combine_sum_set_with_origin_shifts_levels():
    ts = _random_set(5, 4, 3, "comb-base")
    zero = FiniteSet(name="origin", points=np.zeros((1, 3)))
    combined, tree = combine_sum_set(
        zero, build_partition_greedy(zero), ts, build_partition_greedy(ts)
    )
    assert np.array_equal(combined.matrix, ts.matrix)  # 0 + B = B, order preserved
    base = build_partition_greedy(ts)
    model = MomentModel.GAUSSIAN_EXACT
    got = chain_bound(combined, tree, model)
    # the combined tree replays the base splits one level later, where the
    # norm order doubles, so the bound can only grow and by at most sqrt(3)
    lhs = chain_bound(ts, base, model).value
    assert lhs <= got.value <= math.sqrt(3.0) * lhs * (1 + 1e-12)


def test_combine_sum_set_covers_all_sums():
    a = _random_set(1, 3, 4, "comb-a")
    b = _random_set(2, 4, 4, "comb-b")
    combined, tree = combine_sum_set(
        a, build_partition_greedy(a), b, build_partition_greedy(b)
    )
    want = {tuple((pa + pb).tolist()) for pa in a.matrix for pb in b.matrix}
    assert set(map(tuple, combined.matrix.tolist())) == want
    assert tree.n_points == len(combined)


@pytest.mark.parametrize("seed", range(5))
def test_combiner_subadditivity_sqrt3(seed):
    model = MomentModel.GAUSSIAN_EXACT
    a = _random_set(seed, 4, 5, "sub-a")
    b = _random_set(seed + 100, 5, 5, "sub-b")
    tree_a, tree_b = build_partition_greedy(a), build_partition_greedy(b)
    combined, tree = combine_sum_set(a, tree_a, b, tree_b)
    lhs = chain_bound(combined, tree, model).value
    rhs = chain_bound(a, tree_a, model).value + chain_bound(b, tree_b, model).value
    assert lhs <= math.sqrt(3.0) * rhs * (1 + 1e-12)


def test_combine_sum_set_over_the_coordinate_cap_raises_before_any_sum(monkeypatch):
    a, b = _random_set(1, 200, 8, "cap-a"), _random_set(2, 200, 8, "cap-b")
    tree_a, tree_b = build_partition_greedy(a), build_partition_greedy(b)
    monkeypatch.setattr(chaining, "GENERATE_MAX_COORDINATES", 200 * 200 * 8 - 1)
    message = "^sum set capped at 319999 coordinates, got 200 x 200 points of dim 8$"
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=message):
            combine_sum_set(a, tree_a, b, tree_b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10  # the 2.5 MB of sums was never formed
    monkeypatch.setattr(chaining, "GENERATE_MAX_COORDINATES", 200 * 200 * 8)
    combined, _ = combine_sum_set(a, tree_a, b, tree_b)
    assert combined.matrix.size == 200 * 200 * 8


def test_combine_dimension_mismatch():
    a = _random_set(1, 2, 3)
    b = _random_set(2, 2, 4)
    with pytest.raises(ParameterError):
        combine_sum_set(a, build_partition_greedy(a), b, build_partition_greedy(b))


# --- the supremum bound ---


@pytest.mark.parametrize("seed", range(4))
def test_verify_sup_bound_bernoulli_exact(seed):
    ts = _random_set(seed, 10, 8, "verify")
    report = verify_sup_bound(ts, ProcessKind.BERNOULLI)
    assert not report.violation
    assert report.lhs == pytest.approx(brute_force_bernoulli_sup(ts).value)
    assert report.ratio <= SUP_BOUND_FACTOR
    assert report.extras["tree_depth"] >= 1


def test_verify_sup_bound_gaussian_mc():
    ts = _random_set(7, 6, 5, "verify-g")
    report = verify_sup_bound(ts, ProcessKind.GAUSSIAN, samples=20_000, seed=Seed(1))
    assert not report.violation
    assert report.lhs_stderr > 0.0


def test_verify_sup_bound_takes_the_exact_model_above_the_enumeration_dimension():
    ts = FiniteSet(name="v", points=np.random.default_rng(3).standard_normal((4, 24)))
    report = verify_sup_bound(ts, ProcessKind.BERNOULLI, samples=2000, seed=Seed(1))
    assert (report.lhs_label, report.rhs_label) == ("E sup [bernoulli, monte-carlo]", "chain bound [bernoulli-exact]")
    assert report.rhs == chain_bound(ts, build_partition_greedy(ts), MomentModel.BERNOULLI_EXACT).value
    assert (report.lhs, report.rhs, report.lhs_stderr) == (5.465983967095026, 8.944336513192056, 0.06988302910182463)
    assert not report.violation and report.extras == {"set": "v", "tree_depth": 1, "samples": 2000}


@pytest.mark.parametrize("dim", [24, 32, 64])
def test_verify_sup_bound_holds_under_the_exact_model_past_twenty_coordinates(dim):
    ts = _random_set(dim, 40, dim, "verify-wide")
    report = verify_sup_bound(ts, ProcessKind.BERNOULLI, samples=4000, seed=Seed(1))
    assert report.rhs_label == "chain bound [bernoulli-exact]" and not report.violation
    tree = build_partition_greedy(ts)
    assert tree.depth == report.extras["tree_depth"] == 3  # chain orders 2, 4 and 8
    assert report.rhs == chain_bound(ts, tree, MomentModel.BERNOULLI_EXACT).value
    assert report.rhs < chain_bound(ts, tree, MomentModel.BERNOULLI_PROXY).value


def test_verify_sup_bound_rejects_gaussian_exact():
    ts = _random_set(7, 3, 4)
    with pytest.raises(ParameterError):
        verify_sup_bound(ts, ProcessKind.GAUSSIAN, exact=True)


# --- the level-batched builder and chain bound against the per-parent, per-pair originals ---


def _reference_allocate(budget, sizes):
    """The linear-scan allocator: the largest size/alloc ratio wins, ties to the earliest parent."""
    alloc = [1] * len(sizes)
    remaining = budget - len(sizes)
    while remaining > 0:
        best, best_need = -1, 0.0
        for i, (s, a) in enumerate(zip(sizes, alloc)):
            if a < s and s / a > best_need:
                best, best_need = i, s / a
        if best < 0:
            break
        alloc[best] += 1
        remaining -= 1
    return alloc


def _reference_split(coords, members, rep, k):
    """One parent at a time, with the members x centers x d distance tensor."""
    idx = np.asarray(members)
    local = coords[idx]
    centers = [members.index(rep)]
    dist = np.linalg.norm(local - local[centers[0]], axis=1)
    while len(centers) < k:
        nxt = int(np.argmax(dist))
        centers.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(local - local[nxt], axis=1))
    assign = np.argmin(np.linalg.norm(local[:, None, :] - local[None, centers, :], axis=2), axis=1)
    return [Block(tuple(int(i) for i in idx[assign == c]), int(idx[center]))
            for c, center in enumerate(centers)]


def _reference_build(ts):
    n = len(ts)
    levels = [(Block(tuple(range(n)), rep=0),)]
    while any(len(b.members) > 1 for b in levels[-1]):
        budget = level_budget(len(levels), n)
        alloc = _reference_allocate(budget, [len(b.members) for b in levels[-1]])
        children = []
        for parent, k in zip(levels[-1], alloc):
            children.extend([parent] if k == 1 else _reference_split(ts.matrix, parent.members, parent.rep, k))
        levels.append(tuple(children))
    return PartitionTree(n_points=n, levels=tuple(levels))


def _reference_chain_bound(ts, tree, model):
    """Chain sums in Python floats, one level at a time.

    Each block that moved its representative contributes the norm of
    ``x[max] - x[min]`` of the two representatives.  Monte Carlo norms of a
    level share one stream, keyed by that level's increments in block
    order; every other model takes one one-row ``model.norms`` call per increment.
    """
    sums = [0.0] * len(ts)
    prev_rep = {i: tree.levels[0][0].rep for i in range(len(ts))}
    for lvl in range(1, len(tree.levels)):
        level = tree.levels[lvl]
        ends = [(prev_rep[block.members[0]], block.rep) for block in level]
        moved = [(min(a, b), max(a, b)) for a, b in ends if a != b]
        rows = np.array([ts.matrix[hi] - ts.matrix[lo] for lo, hi in moved]).reshape(-1, ts.dim)
        if isinstance(model, MonteCarloModel):
            values = [est for est, _ in reference_shared_stream_norms(
                model.process, rows, 1 << lvl, model.samples, model.seed)]
        else:
            values = [model.norms(row[None, :], 1 << lvl)[0] for row in rows]
        steps = iter(values)
        for block, (a, b) in zip(level, ends):
            step = next(steps) if a != b else 0.0
            for i in block.members:
                sums[i] += step
                prev_rep[i] = block.rep
    return max(sums), tuple(sums)


@st.composite
def _tree_inputs(draw):
    """Grid sets with many tied distances, magnitudes from 1e-5 to 1e5, or a cluster plus outliers."""
    dim = draw(st.integers(1, 5))
    count = draw(st.integers(1, 80))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    style = draw(st.sampled_from(["grid", "magnitudes", "skewed"]))
    if style == "grid":
        rows = gen.integers(-2, 3, (count, dim)) * draw(st.sampled_from([1.0, 0.5, 1e-4, 1e4]))
    elif style == "magnitudes":
        rows = gen.standard_normal((count, dim)) * 10.0 ** gen.uniform(-5, 5, (count, 1))
    else:
        rows = np.concatenate([gen.standard_normal((count, dim)) * 1e-3,
                               gen.standard_normal((1 + count // 8, dim)) * 10.0])
    first, _ = distinct_rows(rows)
    return FiniteSet(name=style, points=rows[np.sort(first)])


_MODELS = (
    MomentModel.GAUSSIAN_EXACT,
    MomentModel.BERNOULLI_EXACT,
    MomentModel.BERNOULLI_PROXY,
    MonteCarloModel(ProcessKind.BERNOULLI, 16, Seed(3)),
)


@given(_tree_inputs())
def test_level_batched_build_and_bound_match_the_originals(ts):
    tree = build_partition_greedy(ts)
    assert tree == _reference_build(ts)
    for model in _MODELS:
        got = chain_bound(ts, tree, model)
        value, per_point = _reference_chain_bound(ts, tree, model)
        assert np.array(got.per_point).tobytes() == np.array(per_point).tobytes()
        assert np.float64(got.value).tobytes() == np.float64(value).tobytes()


@pytest.mark.parametrize("dim, side", [(1, 9), (2, 5), (3, 3), (4, 3)])
def test_level_batched_build_matches_the_original_on_full_grids(dim, side):
    # every grid point has many equidistant neighbours, so every tie rule is exercised
    rows = np.array(list(itertools.product(range(side), repeat=dim)), dtype=float)
    ts = FiniteSet(name="full-grid", points=rows)
    assert build_partition_greedy(ts) == _reference_build(ts)


@pytest.mark.parametrize("seed", range(3))
def test_level_batched_build_matches_the_original_at_d8_and_d17(seed):
    # from d = 8 the reference's row-major norms sum in another order than the split; without ties the trees agree
    for dim in (8, 17):
        ts = _random_set(seed, 300, dim, "batched-wide")
        tree = build_partition_greedy(ts)
        assert tree == _reference_build(ts)
        got = chain_bound(ts, tree, MomentModel.GAUSSIAN_EXACT)
        assert got.per_point == _reference_chain_bound(ts, tree, MomentModel.GAUSSIAN_EXACT)[1]


def _allocate_one(budget, sizes):
    """The one-tree forest's allocation, as a list."""
    return _allocate_children(budget, np.array(sizes), np.zeros(len(sizes), dtype=np.intp)).tolist()


@pytest.mark.parametrize(
    "budget, sizes",
    [
        (16, [4, 4, 4, 4]),  # equal ratios: earliest parent first, round after round
        (10, [6, 3, 6, 3, 2]),  # 6/2 == 3/1: the earlier parent wins the tie
        (7, [1, 1, 1]),  # nobody can split
        (12, [5, 1, 5]),  # budget == sum(sizes)
        (40, [5, 1, 5, 2]),  # budget > sum(sizes): everyone splits fully, the rest is unused
        (3, [9, 9, 9]),  # no spare slots
        (1000, [1000]),
        (25, [7, 14, 21, 28, 3]),
    ],
)
def test_heap_allocation_matches_the_linear_scan(budget, sizes):
    # the name predates the one-sort allocator, which replaced a heap with the same allocations
    assert _allocate_one(budget, sizes) == _reference_allocate(budget, sizes)


@given(st.lists(st.integers(1, 12), min_size=1, max_size=12), st.integers(0, 200))
def test_heap_allocation_matches_the_linear_scan_everywhere(sizes, extra):
    budget = len(sizes) + extra
    assert _allocate_one(budget, sizes) == _reference_allocate(budget, sizes)


@given(st.lists(st.integers(1, 40), min_size=1, max_size=12), st.integers(0, 300), st.integers(1, 300))
def test_allocation_closed_forms_match_the_heap(sizes, extra, budget):
    # a lone block takes the budget, and a budget covering every point splits every block fully
    assert _allocate_one(budget, sizes[:1]) == [min(budget, sizes[0])]
    assert _allocate_one(sum(sizes) + extra, sizes) == sizes


@st.composite
def _forests(draw):
    """1-12 trees of 1-8 blocks each, and a budget below, at or above one tree's size."""
    trees = draw(st.lists(st.lists(st.integers(1, 12), min_size=1, max_size=8), min_size=1, max_size=12))
    size = sum(draw(st.sampled_from(trees)))
    budget = draw(st.sampled_from([max(size - 1, 1), size, size + 1, max(size // 2, 1), 2 * size]))
    return trees, budget


@given(_forests())
def test_forest_allocation_matches_the_linear_scan_tree_by_tree(forest):
    trees, budget = forest
    sizes = np.array(list(itertools.chain.from_iterable(trees)))
    tree = np.repeat(np.arange(len(trees)), [len(t) for t in trees])
    alloc = _allocate_children(budget, sizes, tree)
    bounds = np.cumsum([0] + [len(t) for t in trees])
    for t, blocks in enumerate(trees):
        assert alloc[bounds[t] : bounds[t + 1]].tolist() == _reference_allocate(budget, blocks)


def test_greedy_tree_splits_points_whose_distance_underflows():
    # |1e-200 - 0|^2 underflows to 0, so both points look like the first center
    ts = FiniteSet(name="tiny", points=[(0.0,), (1e-200,)])
    tree = build_partition_greedy(ts)
    assert [[b.members for b in level] for level in tree.levels] == [[(0, 1)], [(0,), (1,)]]
    close = FiniteSet(name="tiny-grid", points=[(k * 1e-200,) for k in range(6)] + [(1.0,)])
    assert all(len(b.members) == 1 for b in build_partition_greedy(close).levels[-1])


def test_greedy_build_memory_stays_flat_when_one_parent_holds_most_points():
    # A tight cluster plus outliers: the farthest-point budget goes to the outliers, so one
    # level-3 block keeps ~3 000 points and level 4 splits it fully.  A members x centers x d
    # distance tensor for it would take ~580 MB.
    gen = rng.stream(7, "memory-cliff")
    rows = np.concatenate([rng.standard_normal(gen, (3000, 8)) * 1e-3,
                           rng.standard_normal(gen, (600, 8)) * 10.0])
    ts = FiniteSet(name="cliff", points=rows)
    tracemalloc.start()
    try:
        tree = build_partition_greedy(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(len(b.members) for b in tree.levels[3]) > 2900
    assert tree.depth == 4
    assert peak < 64 << 20


# --- the forest: many greedy trees grown level by level in one set of arrays ---


@st.composite
def _forest_sets(draw):
    """Sets of one dimension: single points, repeated magnitudes with +-0.0, underflowing distances."""
    dim = draw(st.integers(1, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = []
    for _ in range(draw(st.integers(1, 6))):
        count = draw(st.integers(1, 24))
        style = draw(st.sampled_from(["one", "grid", "tiny", "normal"]))
        if style == "one":
            rows = gen.standard_normal((1, dim))
        elif style == "grid":
            rows = gen.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], (count, dim))
        elif style == "tiny":  # squared distances underflow to 0
            rows = gen.integers(-3, 4, (count, dim)) * 1e-200
        else:
            rows = gen.standard_normal((count, dim)) * 10.0 ** gen.uniform(-3, 3, (count, 1))
        first, _ = distinct_rows(rows)
        sets.append(rows[first])
    return sets


@given(_forest_sets())
def test_forest_matches_one_greedy_tree_and_chain_bound_per_set(sets):
    counts = [len(rows) for rows in sets]
    starts = np.cumsum(counts) - counts
    coords = np.concatenate(sets)
    trees = [build_partition_greedy(FiniteSet(name="s", points=rows)) for rows in sets]
    for lvl, level in enumerate(_grow(coords, counts)):
        tree_of = np.searchsorted(starts, level.order[np.cumsum(level.sizes) - level.sizes], side="right") - 1
        blocks = list(zip(tree_of.tolist(), np.split(level.order, np.cumsum(level.sizes)[:-1]),
                          level.reps.tolist()))
        for t, tree in enumerate(trees):
            want = [(b.members, b.rep) for b in tree.levels[min(lvl, tree.depth)]]
            got = [(tuple((m - starts[t]).tolist()), r - starts[t]) for k, m, r in blocks if k == t]
            assert got == want
    assert lvl == max(tree.depth for tree in trees)
    for model in (MomentModel.GAUSSIAN_EXACT, MomentModel.BERNOULLI_PROXY):
        values, sums = greedy_forest_bounds(coords, counts, model)
        for t, (rows, tree) in enumerate(zip(sets, trees)):
            bound = chain_bound(FiniteSet(name="s", points=rows), tree, model)
            assert values[t].tobytes() == np.float64(bound.value).tobytes()
            assert sums[starts[t] : starts[t] + counts[t]].tobytes() == np.array(bound.per_point).tobytes()


def _grown(coords, counts, block_bytes=None):
    """The bytes of ``_grow``'s level arrays, with the split's run budget patched to ``block_bytes``."""
    with pytest.MonkeyPatch.context() as patch:
        if block_bytes is not None:
            patch.setattr(chaining, "_BLOCK_BYTES", block_bytes)
        return [a.tobytes() for level in _grow(coords, counts) for a in level]


@given(_tree_inputs())
def test_a_split_in_many_runs_builds_the_one_run_tree(ts):
    # 8 bytes put each parent in a run of its own; 56*d and 2400*d bytes gather a few or many
    want = _grown(ts.matrix, [len(ts)])
    for block_bytes in (8, 56 * ts.dim, 2400 * ts.dim):
        assert _grown(ts.matrix, [len(ts)], block_bytes) == want


@given(_forest_sets())
def test_a_forest_split_in_many_runs_grows_the_one_run_forest(sets):
    coords, counts = np.concatenate(sets), [len(rows) for rows in sets]
    want = _grown(coords, counts)
    for block_bytes in (8, 56 * coords.shape[1], 2400 * coords.shape[1]):
        assert _grown(coords, counts, block_bytes) == want


# --- the column-major split against the row-major one it replaced ---


def test_squared_distances_sum_coordinates_in_index_order():
    # against a running sum of each row-major row, at every d up to 300 and at 2 and 9 columns;
    # a numpy release that reorders an axis-0 reduce fails here, naming d
    gen = np.random.default_rng(5)
    for d in range(1, 301):
        x = gen.standard_normal((9, d)) * 10.0 ** gen.uniform(-6, 6, (9, d))
        x[gen.random((9, d)) < 0.2] = 0.0
        for centers, counts in (([0], [2]), ([0, 4], [4, 5])):
            rows = x[: sum(counts)]
            want = np.cumsum((rows - np.repeat(rows[centers], counts, axis=0)) ** 2, axis=-1)[:, -1]
            got = chaining._squared_distances(np.ascontiguousarray(rows.T), np.array(centers), np.array(counts))
            assert got.tobytes() == want.tobytes(), d


def _sum_or_overflow(total):
    with np.errstate(over="raise"):
        try:
            return total().tobytes()
        except FloatingPointError:
            return "overflow"


@pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 16, 17, 128, 129, 136, 300])
def test_squared_distances_overflow_where_an_index_order_sum_does(d):
    # squares near float64's largest value / d: whether a sum overflows turns on its rounding order
    gen = np.random.default_rng(d)
    outcomes = set()
    for _ in range(40):
        far = np.sqrt(np.minimum(gen.uniform(0.5, 1.5, d), d) * (np.finfo(float).max / d))
        xt = np.stack([np.zeros(d), far], axis=1)  # the origin and the far point, as columns
        want = _sum_or_overflow(lambda: np.cumsum(far * far)[-1:])
        assert _sum_or_overflow(lambda: chaining._squared_distances(xt, np.array([0]), np.array([2]))[1:]) == want
        outcomes.add(want == "overflow")
    assert outcomes == {True, False} or d == 1


@st.composite
def _split_forests(draw):
    """Forests at d in {1, 2, 7, 8, 9, 16, 129}: normal, integer or 0.1 grids, underflowing or overflowing squares."""
    dim = draw(st.sampled_from([1, 2, 7, 8, 9, 16, 129]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = []
    for _ in range(draw(st.integers(1, 4))):
        count = draw(st.integers(1, 30))
        style = draw(st.sampled_from(["normal", "grid", "decimal", "tiny", "huge"]))
        if style == "normal":
            rows = gen.standard_normal((count, dim)) * 10.0 ** gen.uniform(-3, 3, (count, 1))
        elif style == "grid":  # exact distance ties
            rows = gen.integers(-2, 3, (count, dim)).astype(float)
        elif style == "decimal":  # inexact ties: the summation order picks the last bit
            rows = np.round(gen.standard_normal((count, dim)), 1)
        elif style == "tiny":  # every squared difference underflows to 0
            rows = gen.integers(-3, 4, (count, dim)) * 1e-170
        else:  # some squared distances overflow, some do not
            rows = gen.integers(-3, 4, (count, dim)) * 1e154 / np.sqrt(dim)
        first, _ = distinct_rows(rows)
        sets.append(rows[first])
    return sets, draw(st.sampled_from([None, 8, 64 * dim]))


def _split_outcome(split, coords, level, alloc):
    try:
        return [a.tobytes() for a in split(coords, *level, alloc)]
    except chaining.DistanceOverflow as exc:
        return exc.rows


@given(_split_forests())
def test_the_column_major_split_matches_the_row_major_reference(forest):
    sets, block_bytes = forest
    coords = np.concatenate(sets)
    coords_t = np.ascontiguousarray(coords.T)
    counts = np.array([len(rows) for rows in sets])
    level, tree = TreeLevel(np.arange(len(coords)), counts, np.cumsum(counts) - counts), np.arange(len(counts))
    lvl = 0
    with pytest.MonkeyPatch.context() as patch:
        if block_bytes is not None:
            patch.setattr(chaining, "_BLOCK_BYTES", block_bytes)
        while level.sizes.max() > 1:
            lvl += 1
            alloc = _allocate_children(level_budget(lvl, len(coords)), level.sizes, tree)
            want = _split_outcome(reference_split_level, coords, level, alloc)
            assert _split_outcome(chaining._split_level, coords_t, level, alloc) == want
            if isinstance(want, tuple):  # the same DistanceOverflow.rows
                break
            level = TreeLevel(*reference_split_level(coords, *level, alloc))
            tree = np.repeat(tree, alloc)


def _forest_levels():
    gen = np.random.default_rng(11)
    counts = np.array([1, 9, 20, 3])
    coords = gen.standard_normal((counts.sum(), 3))
    return counts, list(_grow(coords, counts))


def _with_arrays(level, **arrays):
    return level._replace(**{k: np.asarray(v) for k, v in arrays.items()})


def test_forest_levels_pass_their_checks():
    counts, levels = _forest_levels()
    assert len(levels) == 4 and (levels[-1].sizes == 1).all()
    for lvl, level in enumerate(levels):
        _check_level(lvl, levels[lvl - 1] if lvl else None, level, counts)


def _corruptions(counts, levels):
    """Corrupted copies of level 2, each breaking exactly one rule, with the rule's message."""
    parent, level = levels[1], levels[2]
    order, sizes, reps = (a.copy() for a in level)
    starts = np.cumsum(counts) - counts
    tree = np.searchsorted(starts, order[np.cumsum(sizes) - sizes], side="right") - 1
    repeated = order.copy()
    repeated[1] = repeated[0]
    yield "two blocks", _with_arrays(level, order=repeated)
    yield "sizes", _with_arrays(level, order=np.append(order, 0))
    outside = order.copy()
    outside[3] = counts.sum()
    yield "out of range", _with_arrays(level, order=outside)
    yield "sizes", _with_arrays(level, sizes=np.insert(sizes, 1, 0), reps=np.insert(reps, 1, reps[1]))
    moved_rep = reps.copy()
    moved_rep[5] = reps[6]
    yield "representative", _with_arrays(level, reps=moved_rep)
    # move a non-representative point of tree 2 to the end of tree 1's last block, in another tree
    block = np.repeat(np.arange(len(sizes)), sizes)
    free = [j for j in range(len(order)) if order[j] not in reps and tree[block[j]] == 2]
    last_of_1 = np.flatnonzero(tree == 1)[-1]
    moved, grown = sizes.copy(), np.cumsum(sizes)[last_of_1]
    moved[block[free[0]]] -= 1
    moved[last_of_1] += 1
    yield "straddles parent blocks", _with_arrays(
        level, order=np.insert(np.delete(order, free[0]), grown, order[free[0]]), sizes=moved)
    # swap two non-representative points of one tree between blocks under different parents
    up = np.empty(len(order), dtype=np.intp)
    up[parent.order] = np.repeat(np.arange(len(parent.sizes)), parent.sizes)
    a, b = next((a, b) for a in free for b in free if up[order[a]] != up[order[b]])
    swapped = order.copy()
    swapped[a], swapped[b] = order[b], order[a]
    yield "parent blocks", _with_arrays(level, order=swapped)


def test_each_forest_level_check_fires_on_corrupted_arrays():
    counts, levels = _forest_levels()
    for message, bad in _corruptions(counts, levels):
        with pytest.raises(ValidationError, match=message):
            _check_level(2, levels[1], bad, counts)
    # level 2's sixteen blocks per tree are over level 1's budget of four
    with pytest.raises(ValidationError, match="budget"):
        _check_level(1, levels[0], levels[2], counts)
    # the root holds one block per tree
    root = levels[0]
    split_root = TreeLevel(root.order, np.array([1, 4, 5, 20, 3]), np.array([0, 1, 5, 10, 30]))
    with pytest.raises(ValidationError, match="level 0 must be"):
        _check_level(0, None, split_root, counts)


def test_forest_growth_rejects_over_budget_and_unfinished_trees(monkeypatch):
    counts = [20, 3]
    coords = np.random.default_rng(4).standard_normal((23, 2))
    monkeypatch.setattr(chaining, "_allocate_children", lambda budget, sizes, tree: sizes.copy())
    with pytest.raises(ValidationError, match="budget"):
        list(_grow(coords, counts))
    # the last level's budget covers every tree, so no allocator can leave it unfinished;
    # growth checks it with last=True, which rejects a level that is not all singletons
    monkeypatch.undo()
    counts, levels = _forest_levels()
    with pytest.raises(ValidationError, match="singletons"):
        _check_level(2, levels[1], levels[2], counts, last=True)


@pytest.mark.parametrize("counts", [[], [0, 3], [2, 2]])
def test_forest_needs_nonempty_trees_covering_the_rows(counts):
    with pytest.raises(ParameterError):
        list(_grow(np.zeros((3, 2)), counts))


# --- squared distances that leave float64 ---


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows, pair", [
    ([[1.0, 0.0], [1e308, 1e308]], (0, 1)),  # a norm that overflows
    ([[-1e308, 0.0], [1e308, 0.0]], (0, 1)),  # finite norms, an overflowing difference
    ([[0.0, 0.0], [1.0, 0.0], [1.3e154, 0.0], [-1.3e154, 0.0]], (2, 3)),  # only a later center's square
])
def test_an_overflowing_squared_distance_names_its_points_without_a_warning(rows, pair):
    ts = FiniteSet(name="huge", points=rows)
    message = f"^the squared l2 distance between points {pair[0]} and {pair[1]} overflows float64$"
    with pytest.raises(chaining.DistanceOverflow, match=message) as info:
        build_partition_greedy(ts)
    assert info.value.rows == pair
    with pytest.raises(ParameterError, match=message):
        greedy_forest_bounds(ts.matrix, [len(ts)], MomentModel.GAUSSIAN_EXACT)


_LATE = [[0.0, 0.0], [1.0, 0.0], [1.3e154, 0.0], [-1.3e154, 0.0]]  # overflows at the second center only
_EARLY = [[1.0, 0.0], [1e308, 1e308]]  # overflows at the first center
_SAFE = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("block_bytes", [None, 8], ids=["one-run", "a-run-per-parent"])
@pytest.mark.parametrize("sets, pair", [
    ((_LATE, _EARLY), (2, 3)),  # the first parent in split order wins, though the second overflows at an earlier step
    ((_EARLY, _LATE), (4, 5)),  # four children split before two
    ((_LATE, _LATE), (2, 3)),  # equal allocations split in tree order
    ((_SAFE, _EARLY), (4, 5)),  # a parent that splits cleanly names nothing
])
def test_a_forest_names_the_first_overflowing_parent_in_split_order(sets, pair, block_bytes):
    message = f"^the squared l2 distance between points {pair[0]} and {pair[1]} overflows float64$"
    with pytest.raises(chaining.DistanceOverflow, match=message) as info:
        _grown(np.concatenate(sets), [len(rows) for rows in sets], block_bytes)
    assert info.value.rows == pair


_OVERFLOW_MODELS = [
    MomentModel.BERNOULLI_PROXY,
    MomentModel.BERNOULLI_EXACT,
    MomentModel.GAUSSIAN_EXACT,
    MonteCarloModel(ProcessKind.GAUSSIAN, 100, Seed(1)),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", _OVERFLOW_MODELS, ids=lambda m: m.label.partition("[")[0])
@pytest.mark.parametrize("rows, pair", [
    ([[1.0, 0.0], [1e308, 1e308]], (0, 1)),  # a norm that overflows
    ([[-1e308, 0.0], [1e308, 0.0]], (0, 1)),  # finite norms, an overflowing difference
    ([[0.0, 0.0], [1.0, 0.0], [1.3e154, 0.0], [-1.3e154, 0.0]], (2, 3)),  # only the last pair's square
])
def test_exhaustive_search_names_an_overflowing_pair_before_any_norm(monkeypatch, rows, pair, model):
    calls = []
    monkeypatch.setattr(MomentModel, "norms", lambda self, ts, p: calls.append(p))
    monkeypatch.setattr(MonteCarloModel, "norms", lambda self, ts, p: calls.append(p))
    message = f"^the squared l2 distance between points {pair[0]} and {pair[1]} overflows float64$"
    with pytest.raises(chaining.DistanceOverflow, match=message) as info:
        exhaustive_gamma(FiniteSet(name="huge", points=rows), model)
    assert info.value.rows == pair and calls == []


@pytest.mark.filterwarnings("error")
def test_huge_points_a_short_distance_apart_still_build():
    # no norm check: only the distances the traversal takes must square finitely
    ts = FiniteSet(name="far-off", points=[[1e200, 0.0], [1e200, 1.0], [1e200, 3.0]])
    tree = build_partition_greedy(ts)
    assert tree == _reference_build(ts)
    model = MomentModel.GAUSSIAN_EXACT
    assert chain_bound(ts, tree, model).value == 3.0 * model.norms(np.array([[0.0, 1.0]]), 2)[0]


@given(_tree_inputs(), st.integers(440, 520))
def test_greedy_trees_keep_their_bits_until_a_squared_distance_overflows(ts, exponent):
    scaled = FiniteSet(name="scaled", points=np.ldexp(ts.matrix, exponent))  # exact: no subnormal, no overflow
    with np.errstate(over="ignore"):
        squares = ((scaled.matrix[:, None, :] - scaled.matrix[None, :, :]) ** 2).sum(axis=-1)
        want = _reference_build(scaled)
    try:
        got = build_partition_greedy(scaled)
    except chaining.DistanceOverflow as exc:
        assert squares[exc.rows] == np.inf  # so a set whose squares all fit always builds
    else:
        assert got == want == build_partition_greedy(ts)
