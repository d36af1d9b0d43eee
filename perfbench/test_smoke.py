"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from procsup import core, suprema  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_spec_matches_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, workloads.WHY[name]) for name in workloads.NAMES
    ]
    assert tuple(m["name"] for m in SPEC["end_to_end"]) == run.END_TO_END
    layers = {name: unit for name, (unit, _) in tracer.LAYER_METRICS.items()}
    layers["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    record = run.run(name, seed=7, seconds=1, trace=trace, tiny=True)
    assert record["correct"], record["problems"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    for metric in SPEC["per_layer" if trace else "end_to_end"]:
        assert record["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        for verb in workloads.get(name).verbs:
            assert record["metrics"][verb[0].replace("-", "_") + "_s"]["unit"] == "s"


def _traced(call):
    t = tracer.Tracer()
    t.install()
    try:
        t.active = True
        call()
    finally:
        t.active = False
        t.uninstall()
    return tracer.layer_metrics(t)


def test_enum_patterns_count_every_sign_pattern():
    ts = core.generate_set("random_sphere", 4, 5, 1)
    original = suprema.brute_force_bernoulli_sup
    layers = _traced(lambda: suprema.brute_force_bernoulli_sup(ts))
    assert layers["suprema.enum_calls"] == (1, "count")
    assert layers["suprema.enum_patterns"] == (2**4, "count")
    assert suprema.brute_force_bernoulli_sup is original


def test_rng_variates_count_samples_times_dim():
    ts = core.generate_set("random_sphere", 3, 5, 1)
    layers = _traced(lambda: suprema.mc_sup(core.ProcessKind.GAUSSIAN, ts, 1000, core.Seed(1)))
    assert layers["suprema.mc_samples"] == (1000, "count")
    assert layers["rng.variates"] == (1000 * 3, "count")
