"""Byte-for-byte golden reports: the partition tree's outputs and every verb's result records.

Each fixture under ``tests/golden/`` is rebuilt here and compared byte for
byte: ``gamma`` reports (tree included) for a 60-point d=8 sphere under two
exact models, an exhaustive ``gamma`` report on 5 points, the tree
:func:`~procsup.chaining.combine_sum_set` builds on two pairs of small sets
(one generic, one with colliding sums; written from its level arrays and
read back to the same tree), exact ``sup`` reports on both sides
of the sign enumerator's block layout switch (64 points at d=20, 2 000
points at d=12), and ``oleszkiewicz`` reports for 20-term systems under the
sup norm (d=6) and the euclidean norm (d=9).  The result records each verb
writes through :func:`~procsup.reports.record` are pinned too, in JSON and
in CSV (whose rows keep each section's field order, which sorted JSON keys
would hide): ``contract --check-at`` (d=6), ``decompose --per-point``
(d=6), ``verify-t2`` (d=6) and ``suite --only 1 2 4 5 7``; so are the
``moments`` rows :func:`~procsup.moments.moment_sandwich` computes, on a
d=12 sphere at orders 1 2 3 4 8 1024 (JSON and CSV) and, in JSON, on a
d=21 set past the exact cap, whose rows carry no exact keys.  Every set
whose supremum is taken has d <= 20, so each reference supremum is
exact.  Regenerate a fixture only when a change is meant to move these
bytes::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from procsup import cli
from procsup.chaining import build_partition_greedy, combine_sum_set, tree_from_dict
from procsup.core import FiniteSet, Seed, generate_set
from procsup.reports import dumps

GOLDEN = Path(__file__).parent / "golden"


def _cli_report(tmp: Path, gen: list[str], args: list[str], verb: str = "gamma", fmt: str = "json",
                set_flag: str = "--set") -> bytes:
    set_path, out = tmp / "golden.set", tmp / f"golden.{fmt}"
    assert cli.run(["gen", *gen, "--out", str(set_path)]) == 0
    assert cli.run([verb, set_flag, str(set_path), *args, "--format", fmt, "--out", str(out)]) == 0
    return out.read_bytes()


def _suite_report(tmp: Path, fmt: str) -> bytes:
    out = tmp / f"golden.{fmt}"
    assert cli.run(["suite", "--only", "1", "2", "4", "5", "7", "--format", fmt, "--out", str(out)]) == 0
    return out.read_bytes()


def _oleszkiewicz_report(tmp: Path, norm: str, dim: str) -> bytes:
    paths, out = (tmp / "x.set", tmp / "y.set"), tmp / "golden.json"
    for path, seed in zip(paths, ("11", "12")):
        gen = ["gen", "--kind", "sphere", "--dim", dim, "--count", "20", "--seed", seed, "--out", str(path)]
        assert cli.run(gen) == 0
    argv = ["oleszkiewicz", "--x", str(paths[0]), "--y", str(paths[1]), "--norm", norm, "--out", str(out)]
    assert cli.run(argv) == 0
    return out.read_bytes()


def _combined_tree(set_a: FiniteSet, set_b: FiniteSet) -> bytes:
    _, tree = combine_sum_set(set_a, build_partition_greedy(set_a), set_b, build_partition_greedy(set_b))
    text = dumps(tree.columns())
    assert tree_from_dict(json.loads(text)) == tree
    return text.encode() + b"\n"


_SPHERE = ["--kind", "sphere", "--dim", "8", "--count", "60", "--seed", "1"]
_FIVE = ["--kind", "sphere", "--dim", "12", "--count", "5", "--seed", "4"]
_SUP_64 = ["--kind", "sphere", "--dim", "20", "--count", "64", "--seed", "6"]
_SUP_2000 = ["--kind", "sphere", "--dim", "12", "--count", "2000", "--seed", "6"]
_CONTRACT = ["--kind", "sphere", "--dim", "6", "--count", "12", "--seed", "21"]
_CHECK_AT = ["--map", "scale", "--map-params", "1.5", "--p-max", "3", "--check-at", "2"]
_DECOMPOSE = ["--kind", "sphere", "--dim", "6", "--count", "6", "--seed", "2"]
_MOMENTS_12 = ["--kind", "sphere", "--dim", "12", "--count", "6", "--seed", "3"]
_MOMENTS_21 = ["--kind", "sphere", "--dim", "21", "--count", "4", "--seed", "3"]
_ORDERS = ["--p", "1", "2", "3", "4", "8", "1024"]
_GRID_A = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
_GRID_B = np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 0.0], [0.0, 2.0], [1.0, 0.0]])

CASES = {
    "gamma-sphere-gaussian-exact.json":
        lambda tmp: _cli_report(tmp, _SPHERE, ["--model", "gaussian-exact"]),
    "gamma-sphere-bernoulli-exact.json":
        lambda tmp: _cli_report(tmp, _SPHERE, ["--model", "bernoulli-exact"]),
    "gamma-exhaustive-bernoulli-proxy.json":
        lambda tmp: _cli_report(tmp, _FIVE, ["--exhaustive", "--model", "bernoulli-proxy"]),
    "sup-exact-sphere-64-d20.json":  # point-major blocks
        lambda tmp: _cli_report(tmp, _SUP_64, ["--exact"], verb="sup"),
    "sup-exact-sphere-2000-d12.json":  # row-major blocks
        lambda tmp: _cli_report(tmp, _SUP_2000, ["--exact"], verb="sup"),
    "oleszkiewicz-sup-d6.json":
        lambda tmp: _oleszkiewicz_report(tmp, "sup", "6"),
    "oleszkiewicz-euclidean-d9.json":
        lambda tmp: _oleszkiewicz_report(tmp, "euclidean", "9"),
    "contract-scale-check.json":
        lambda tmp: _cli_report(tmp, _CONTRACT, _CHECK_AT, verb="contract", set_flag="--source"),
    "contract-scale-check.csv":
        lambda tmp: _cli_report(tmp, _CONTRACT, _CHECK_AT, verb="contract", fmt="csv", set_flag="--source"),
    "decompose-per-point.json":
        lambda tmp: _cli_report(tmp, _DECOMPOSE, ["--per-point"], verb="decompose"),
    "decompose-per-point.csv":
        lambda tmp: _cli_report(tmp, _DECOMPOSE, ["--per-point"], verb="decompose", fmt="csv"),
    "moments-sphere-d12.json":
        lambda tmp: _cli_report(tmp, _MOMENTS_12, _ORDERS, verb="moments"),
    "moments-sphere-d12.csv":
        lambda tmp: _cli_report(tmp, _MOMENTS_12, _ORDERS, verb="moments", fmt="csv"),
    "moments-sphere-d21.json":  # past the exact cap: no exact keys
        lambda tmp: _cli_report(tmp, _MOMENTS_21, [], verb="moments"),
    "verify-t2-bernoulli.json":
        lambda tmp: _cli_report(tmp, _CONTRACT, ["--kind", "bernoulli"], verb="verify-t2"),
    "suite-1-2-4-5-7.json":
        lambda tmp: _suite_report(tmp, "json"),
    "suite-1-2-4-5-7.csv":
        lambda tmp: _suite_report(tmp, "csv"),
    "combine-sphere-tree.json":
        lambda tmp: _combined_tree(generate_set("random_sphere", 3, 4, Seed(7)),
                                   generate_set("random_sphere", 3, 5, Seed(8))),
    "combine-grid-tree.json":  # sums collide, so some blocks fall back to their lowest member
        lambda tmp: _combined_tree(FiniteSet(name="grid-a", points=_GRID_A),
                                   FiniteSet(name="grid-b", points=_GRID_B)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path):
    assert CASES[name](tmp_path) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name, make in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / name).write_bytes(make(Path(tmp)))
