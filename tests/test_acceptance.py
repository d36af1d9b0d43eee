"""The package's acceptance gate: one test per verification criterion, plus README's quick tour.

Each criterion prints its own ``[PASS]``/``[FAIL]`` line with the measured
numbers available in the assertion message on failure.  Everything is pinned
to the suite's default seed, so the whole gate is deterministic.
"""

import re
from pathlib import Path

import pytest

from procsup import acceptance


@pytest.mark.parametrize(
    "criterion", acceptance.ALL_CRITERIA, ids=lambda c: c.__name__.removeprefix("criterion_")
)
def test_criterion(criterion):
    result = criterion(acceptance.DEFAULT_SEED)
    print(result.line)
    assert result.passed, (result.line, result.details)


def test_results_carry_numbered_lines():
    result = acceptance.criterion_2_moment_regularity(acceptance.DEFAULT_SEED)
    assert result.line.startswith("[PASS] criterion 2:")
    assert result.to_dict()["number"] == 2


def test_readme_quick_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
