"""Byte-for-byte golden reports for the partition tree's outputs.

Each fixture under ``tests/golden/`` is rebuilt here and compared byte for
byte: ``gamma`` reports (tree included) for a 60-point d=8 sphere under two
exact models, an exhaustive ``gamma`` report on 5 points, and the tree
:func:`~procsup.chaining.combine_sum_set` builds on two pairs of small sets
(one generic, one with colliding sums).  Regenerate a fixture only when a
change is meant to move these bytes::

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import numpy as np
import pytest

from procsup import cli
from procsup.chaining import build_partition_greedy, combine_sum_set
from procsup.core import FiniteSet, Seed, generate_set
from procsup.reports import dumps

GOLDEN = Path(__file__).parent / "golden"


def _cli_report(tmp: Path, gen: list[str], gamma: list[str]) -> bytes:
    set_path, out = tmp / "golden.set", tmp / "golden.json"
    assert cli.run(["gen", *gen, "--out", str(set_path)]) == 0
    assert cli.run(["gamma", "--set", str(set_path), *gamma, "--out", str(out)]) == 0
    return out.read_bytes()


def _combined_tree(set_a: FiniteSet, set_b: FiniteSet) -> bytes:
    _, tree = combine_sum_set(set_a, build_partition_greedy(set_a), set_b, build_partition_greedy(set_b))
    return dumps(tree.to_dict()).encode() + b"\n"


_SPHERE = ["--kind", "sphere", "--dim", "8", "--count", "60", "--seed", "1"]
_FIVE = ["--kind", "sphere", "--dim", "12", "--count", "5", "--seed", "4"]
_GRID_A = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
_GRID_B = np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 0.0], [0.0, 2.0], [1.0, 0.0]])

CASES = {
    "gamma-sphere-gaussian-exact.json":
        lambda tmp: _cli_report(tmp, _SPHERE, ["--model", "gaussian-exact"]),
    "gamma-sphere-bernoulli-exact.json":
        lambda tmp: _cli_report(tmp, _SPHERE, ["--model", "bernoulli-exact"]),
    "gamma-exhaustive-bernoulli-proxy.json":
        lambda tmp: _cli_report(tmp, _FIVE, ["--exhaustive", "--model", "bernoulli-proxy"]),
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
