"""The package's acceptance gate: one test per verification criterion, plus README's quick tour.

Each criterion prints its own ``[PASS]``/``[FAIL]`` line with the measured
numbers available in the assertion message on failure.  Everything is pinned
to the suite's default seed, so every verdict is deterministic.  The
wall-clock budgets live here, not in the criteria: criterion 1 must finish
within 60 s and criterion 3 within 300 s.
"""

import re
import time
from pathlib import Path

import pytest

from procsup import acceptance
from procsup.reports import record

#: Wall-clock budget, in seconds, of each timed criterion by number.
BUDGETS_S = {1: 60.0, 3: 300.0}


@pytest.mark.parametrize(
    "criterion", acceptance.ALL_CRITERIA, ids=lambda c: c.__name__.removeprefix("criterion_")
)
def test_criterion(criterion):
    start = time.perf_counter()
    result = criterion(acceptance.DEFAULT_SEED)
    runtime = time.perf_counter() - start
    print(result.line)
    assert result.passed, (result.line, result.details)
    budget = BUDGETS_S.get(result.number)
    assert budget is None or runtime < budget, f"criterion {result.number} took {runtime:.1f} s, budget {budget} s"


def test_results_carry_numbered_lines():
    result = acceptance.criterion_2_moment_regularity(acceptance.DEFAULT_SEED)
    assert result.line.startswith("[PASS] criterion 2:")
    assert record(result)["number"] == 2


def test_readme_quick_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
