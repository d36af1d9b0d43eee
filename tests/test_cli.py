import argparse
import csv
import io
import json
import os
import re

import pytest

from json_reference import report_csv, report_json
from procsup import cli, reports
from procsup.chaining import tree_from_dict
from procsup.core import FiniteSet, SetKind, load_set, save_set
from procsup.oleszkiewicz import NormKind, VectorSystem, save_vector_system


def _run(argv):
    return cli.run(argv)


def _gen(tmp_path, name="s.set", kind="random_sphere", dim=6, count=5, seed=1):
    path = tmp_path / name
    code = _run(["gen", "--kind", kind, "--dim", str(dim), "--count", str(count),
                 "--seed", str(seed), "--out", str(path)])
    assert code == 0
    return path


def _report(tmp_path, argv, name="r.json", expect=0):
    out = tmp_path / name
    code = _run(argv + ["--out", str(out)])
    assert code == expect, out.read_text() if out.exists() else "no report written"
    return json.loads(out.read_text())


def test_gen_writes_loadable_deterministic_sets(tmp_path):
    a = _gen(tmp_path, "a.set")
    b = _gen(tmp_path, "b.set")
    assert a.read_bytes() == b.read_bytes()
    ts = load_set(a)
    assert len(ts) == 5 and ts.dim == 6


def test_gen_accepts_friendly_aliases(tmp_path):
    path = tmp_path / "simplex.set"
    assert _run(["gen", "--kind", "simplex", "--dim", "3", "--count", "3",
                 "--out", str(path)]) == 0
    assert load_set(path).matrix[0].tolist() == [1.0, 0.0, 0.0]


def test_sup_exact_simplex_value(tmp_path):
    path = tmp_path / "simplex.set"
    _run(["gen", "--kind", "simplex", "--dim", "3", "--count", "3", "--out", str(path)])
    doc = _report(tmp_path, ["sup", "--set", str(path), "--exact"])
    assert doc["results"]["value"] == 0.75
    assert doc["results"]["method"] == "exact"
    assert doc["command"] == "sup"
    assert doc["inputs"]["set"] == load_set(path).content_hash()


def test_sup_monte_carlo_results_keys(tmp_path):
    set_path = _gen(tmp_path)
    doc = _report(tmp_path, ["sup", "--set", str(set_path), "--kind", "gaussian", "--samples", "200"])
    assert sorted(doc["results"]) == ["dim", "method", "points", "samples", "set", "stderr", "value"]
    assert (doc["results"]["method"], doc["results"]["samples"]) == ("monte-carlo", 200)


def test_moments_reports_sandwich(tmp_path):
    set_path = _gen(tmp_path)
    doc = _report(tmp_path, ["moments", "--set", str(set_path), "--p", "1", "2", "4"])
    assert doc["results"]["sandwich"] == {"checked": True, "violations": 0}
    rows = doc["results"]["rows"]
    assert len(rows) == 5 * 3
    for row in rows:
        assert row["bernoulli_exact"] <= row["proxy"] * (1 + 1e-9)


def test_moments_on_a_set_with_the_origin_keeps_the_sandwich(tmp_path):
    set_path = tmp_path / "origin.set"
    save_set(FiniteSet(name="origin", points=[[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]]), set_path)
    doc = _report(tmp_path, ["moments", "--set", str(set_path), "--p", "1", "2", "3"])
    assert doc["results"]["sandwich"] == {"checked": True, "violations": 0}
    origin = [row for row in doc["results"]["rows"] if row["point"] == 0]
    assert [(row["bernoulli_exact"], row["proxy"], row["sandwich_ratio"]) for row in origin] == [(0.0, 0.0, 0.0)] * 3


@pytest.mark.parametrize("orders", [["0"], ["2", "0"]])
def test_moments_rejects_order_zero_with_the_proxy_message(tmp_path, capsys, orders):
    set_path = _gen(tmp_path)
    out = tmp_path / "r.json"
    assert _run(["moments", "--set", str(set_path), "--p", *orders, "--out", str(out)]) == 2
    assert "proxy needs p >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_moments_rows_name_their_exact_route(tmp_path, capsys):
    set_path = _gen(tmp_path)
    doc = _report(tmp_path, ["moments", "--set", str(set_path), "--p", "1", "2", "3", "4", "33", "1024"])
    routes = {row["p"]: row["bernoulli_route"] for row in doc["results"]["rows"]}
    assert routes == {1: "meet-in-the-middle", 2: "cosh-series", 3: "meet-in-the-middle", 4: "cosh-series",
                      33: "meet-in-the-middle", 1024: "cosh-series"}
    out = tmp_path / "over.json"  # no exact route serves an order above 1024
    assert _run(["moments", "--set", str(set_path), "--p", "2", "1026", "--out", str(out)]) == 2
    assert "exact Bernoulli norms need an integer moment order 1 <= p <= 1024, got 1026" in capsys.readouterr().err
    assert not out.exists()
    wide = _gen(tmp_path, "wide.set", dim=21, count=2)
    doc = _report(tmp_path, ["moments", "--set", str(wide), "--p", "2"], "wide.json")
    assert all("bernoulli_exact" not in row and "bernoulli_route" not in row for row in doc["results"]["rows"])


def test_moments_on_an_overflowing_l1_norm_exits_2_without_a_report(tmp_path, capsys):
    set_path = tmp_path / "huge.set"
    save_set(FiniteSet(name="huge", points=[[1.0, 0.0], [1e308, 1e308]]), set_path)
    out = tmp_path / "r.json"
    assert _run(["moments", "--set", str(set_path), "--p", "1", "2", "3", "--out", str(out)]) == 2
    assert "error: the l1 norm of row 1 overflows float64" in capsys.readouterr().err
    assert not out.exists()


def test_moments_on_an_overflowing_l2_norm_exits_2_without_a_report(tmp_path, capsys):
    # d = 21 skips the exact norms; the Gaussian norm of row 1 squares 1e200
    set_path = tmp_path / "huge21.set"
    save_set(FiniteSet(name="huge21", points=[[0.0] * 21, [1e200] + [0.0] * 20]), set_path)
    out = tmp_path / "r.json"
    assert _run(["moments", "--set", str(set_path), "--p", "1", "2", "--out", str(out)]) == 2
    assert "error: the l2 norm of row 1 overflows float64" in capsys.readouterr().err
    assert not out.exists()


def test_gamma_greedy_vs_exhaustive(tmp_path):
    set_path = _gen(tmp_path, count=4)
    greedy = _report(tmp_path, ["gamma", "--set", str(set_path)], "g.json")
    exhaustive = _report(
        tmp_path, ["gamma", "--set", str(set_path), "--exhaustive"], "e.json"
    )
    assert exhaustive["results"]["value"] <= greedy["results"]["value"] * (1 + 1e-12)
    assert greedy["results"]["model"] == "gaussian-exact"
    assert greedy["results"]["tree"]["levels"][0][0]["members"] == [0, 1, 2, 3]


def test_gamma_model_choices_are_the_exact_and_proxy_routes_then_monte_carlo():
    verbs = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    model = next(a for a in verbs.choices["gamma"]._actions if a.dest == "model")
    assert model.choices == ["bernoulli-proxy", "bernoulli-exact", "gaussian-exact", "monte-carlo"]


def test_gamma_monte_carlo_reports_its_sampling_label(tmp_path):
    # the other three labels are pinned by the gamma goldens
    argv = ["gamma", "--set", str(_gen(tmp_path, dim=4, count=5)), "--model", "monte-carlo"]
    doc = _report(tmp_path, argv + ["--samples", "500", "--seed", "7"])
    assert doc["config"]["model"] == "monte-carlo"
    assert doc["results"]["model"] == "monte-carlo[bernoulli,n=500,seed=7]"


@pytest.mark.parametrize("extra", [[], ["--exhaustive"]])
def test_gamma_writes_its_json_tree_from_the_level_arrays(tmp_path, extra):
    argv = ["gamma", "--set", str(_gen(tmp_path, count=4)), *extra]
    tree = _report(tmp_path, argv)["results"]["tree"]
    assert _run(argv + ["--format", "csv", "--out", str(tmp_path / "r.csv")]) == 0
    columns = tree_from_dict(tree).columns()
    assert json.loads(reports.dumps(columns)) == tree
    rows = lambda text: [row for row in text.splitlines() if row.startswith("results.tree.")]
    want = rows(reports.to_csv({"results": {"tree": columns}}))
    assert want and rows((tmp_path / "r.csv").read_text()) == want


def test_gamma_exhaustive_over_the_cap_exits_2_without_a_report(tmp_path, capsys):
    set_path = _gen(tmp_path, count=6)
    out = tmp_path / "e.json"
    assert _run(["gamma", "--set", str(set_path), "--exhaustive", "--out", str(out)]) == 2
    assert "exhaustive search capped at 5 points, got 6" in capsys.readouterr().err
    assert not out.exists()


def test_gamma_exhaustive_past_the_sequence_cap_exits_2_without_a_report(tmp_path, capsys):
    set_path = _gen(tmp_path, dim=512, count=5)
    out = tmp_path / "e.json"
    argv = ["gamma", "--set", str(set_path), "--exhaustive", "--model", "bernoulli-proxy", "--out", str(out)]
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: exhaustive search capped at 32768 partition sequences, got more at depth 9 over 5 points\n"
    assert not out.exists()


def test_decompose_past_the_row_cap_exits_2_without_a_report(tmp_path, capsys):
    set_path = _gen(tmp_path, dim=16, count=300)
    out = tmp_path / "d.json"
    assert _run(["decompose", "--set", str(set_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: decomposition capped at 1048576 tail tree rows, got 1445101\n"
    assert not out.exists()


def test_gen_over_the_coordinate_cap_exits_2_without_a_file(tmp_path, capsys):
    out = tmp_path / "huge.set"
    argv = ["gen", "--kind", "sphere", "--dim", "1000", "--count", "100000000", "--out", str(out)]
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: set generation capped at 4194304 coordinates, got 100000000 points of dim 1000\n"
    assert not out.exists()


def test_contract_with_one_clamp_param_exits_2_without_a_report(tmp_path, capsys):
    set_path = _gen(tmp_path)
    out = tmp_path / "c.json"
    argv = ["contract", "--source", str(set_path), "--map", "clamp", "--map-params", "0.5", "--out", str(out)]
    assert _run(argv) == 2
    assert capsys.readouterr().err == "error: map 'clamp' takes 0 or 2 params (lo, hi), got 1\n"
    assert not out.exists()


def test_verify_t2_passes_on_generated_set(tmp_path):
    set_path = _gen(tmp_path)
    doc = _report(tmp_path, ["verify-t2", "--set", str(set_path), "--kind", "bernoulli"])
    assert doc["results"]["violation"] is False
    assert doc["results"]["bound_factor"] == 4.0


def test_contract_abs_reports_constant_one(tmp_path):
    set_path = _gen(tmp_path)
    doc = _report(
        tmp_path,
        ["contract", "--source", str(set_path), "--map", "abs", "--check-at", "1.0"],
    )
    assert doc["results"]["fit"]["c_star"] == pytest.approx(1.0, abs=1e-4)
    assert doc["results"]["check"]["satisfied"] is True
    assert doc["results"]["suprema"]["ratio"] <= 1.0 + 1e-12


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
def test_decompose_rejects_a_non_finite_or_negative_k(tmp_path, capsys, value):
    set_path = _gen(tmp_path, dim=3, count=4)
    out = tmp_path / "d.json"
    assert _run(["decompose", "--set", str(set_path), "--samples", "200", "--k", value,
                 "--out", str(out)]) == 2
    assert "error: k constant must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["1e17", "1e200", "1.7976931348623157e308"])
def test_decompose_reports_the_exact_order_for_a_huge_k(tmp_path, value):
    # the least order lies above 2**53, where float64 no longer tells orders apart
    set_path = _gen(tmp_path, dim=6, count=5)
    argv = ["decompose", "--set", str(set_path), "--samples", "200", "--k", value]
    pick = _report(tmp_path, argv)["results"]["decomposition"]["extras"]["choose_p"]
    assert isinstance(pick, int) and pick > 2**53
    assert _run(argv + ["--format", "csv", "--out", str(tmp_path / "d.csv")]) == 0
    assert f"results.decomposition.extras.choose_p,{pick}\n" in (tmp_path / "d.csv").read_text()


def test_decompose_and_oleszkiewicz_run(tmp_path):
    set_path = _gen(tmp_path)
    dec = _report(tmp_path, ["decompose", "--set", str(set_path), "--samples", "2000",
                             "--seed", "4"], "d.json")
    assert dec["results"]["decomposition"]["k_emp"] > 0
    ole = _report(tmp_path, ["oleszkiewicz", "--x", str(set_path), "--y", str(set_path),
                             "--extra-functionals", "2", "--seed", "5",
                             "--samples", "2000"], "o.json")
    assert ole["results"]["weak"]["value"] == pytest.approx(1.0, rel=1e-12)
    assert ole["results"]["strong"]["ratio"] == pytest.approx(1.0, rel=1e-12)


def test_oleszkiewicz_rejects_coerced_set_files(tmp_path, capsys):
    good = _gen(tmp_path)
    bad = tmp_path / "bad.set"
    bad.write_text(json.dumps(
        {"format": "finite-set", "version": 1, "dim": 1, "points": [["1e3"], [True]]}
    ))
    assert _run(["oleszkiewicz", "--x", str(bad), "--y", str(good),
                 "--out", str(tmp_path / "o.json")]) == 2
    assert "point 0" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def _euclidean_systems(tmp_path):
    paths = tmp_path / "x.sys", tmp_path / "y.sys"
    for path, seed in zip(paths, (1, 2)):
        vectors = load_set(_gen(tmp_path, f"{path.stem}.set", dim=4, count=6, seed=seed)).matrix
        save_vector_system(VectorSystem(path.stem, vectors, NormKind.EUCLIDEAN), path)
    return [str(path) for path in paths]


def test_oleszkiewicz_refuses_a_system_tagged_with_another_norm(tmp_path, capsys):
    x, y = _euclidean_systems(tmp_path)
    out = tmp_path / "o.json"
    assert _run(["oleszkiewicz", "--x", x, "--y", y, "--norm", "sup", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {x}: vector system tagged euclidean, but the sup norm was requested\n"
    assert not out.exists()


def test_oleszkiewicz_reports_the_norm_it_computed(tmp_path):
    x, y = _euclidean_systems(tmp_path)
    doc = _report(tmp_path, ["oleszkiewicz", "--x", x, "--y", y, "--norm", "euclidean", "--extra-functionals", "2"])
    assert doc["config"]["norm"] == doc["results"]["norm"] == "euclidean"


def test_decompose_has_no_process_kind(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert _run(["decompose", "--set", str(_gen(tmp_path)), "--kind", "gaussian", "--out", str(out)]) == 2
    assert "unrecognized arguments: --kind gaussian" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_oleszkiewicz_on_an_overflowing_coefficient_exits_2_without_a_warning_or_report(tmp_path, capsys):
    x, y = tmp_path / "x.set", tmp_path / "y.set"
    save_set(FiniteSet(name="x", points=[[1.7e308, 1.7e308], [0.0, 1.0]]), x)
    save_set(FiniteSet(name="y", points=[[1.0, 1.0], [1.0, 0.0]]), y)
    out = tmp_path / "o.json"
    assert _run(["oleszkiewicz", "--norm", "euclidean", "--x", str(x), "--y", str(y), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: coefficient <w_\d+, X> of system 'x' overflows float64\n", err), err
    assert not out.exists()


def test_reports_are_byte_identical_across_directories(tmp_path):
    docs = []
    for sub in ("one", "two"):
        d = tmp_path / sub
        d.mkdir()
        set_path = _gen(d)
        out = d / "r.json"
        assert _run(["verify-t2", "--set", str(set_path), "--out", str(out)]) == 0
        docs.append(out.read_bytes())
    assert docs[0] == docs[1]


def test_csv_format(tmp_path):
    set_path = _gen(tmp_path)
    out = tmp_path / "r.csv"
    assert _run(["sup", "--set", str(set_path), "--exact", "--format", "csv",
                 "--out", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["key", "value"]
    assert any(k == "results.value" for k, _ in rows[1:])


def test_stamp_breaks_stability_only_when_given(tmp_path):
    set_path = _gen(tmp_path)
    a = _report(tmp_path, ["sup", "--set", str(set_path), "--exact"], "a.json")
    assert "stamp" not in a
    b = _report(tmp_path, ["sup", "--set", str(set_path), "--exact", "--stamp", "tag-7"],
                "b.json")
    assert b["stamp"] == "tag-7"


def test_exit_codes(tmp_path, capsys):
    assert _run(["sup", "--set", str(tmp_path / "ghost.set")]) == 2
    assert "no such file" in capsys.readouterr().err
    set_path = _gen(tmp_path)
    assert _run(["sup", "--set", str(set_path), "--kind", "gaussian", "--exact"]) == 2
    assert "no exact supremum oracle" in capsys.readouterr().err
    assert _run(["no-such-verb"]) == 2
    assert _run(["sup", "--bogus-flag"]) == 2
    assert _run(["--help"]) == 0
    capsys.readouterr()  # swallow help and usage text


def test_suite_subset_runs_and_reports(tmp_path, capsys):
    out = tmp_path / "suite.json"
    code = _run(["suite", "--only", "2", "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    assert "[PASS] criterion 2" in printed
    doc = json.loads(out.read_text())
    assert doc["results"]["all_passed"] is True
    assert [c["number"] for c in doc["results"]["criteria"]] == [2]
    assert _run(["suite", "--only", "99"]) == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("kind", [k.value for k in SetKind])
def test_gen_rejects_non_finite_params(tmp_path, capsys, kind, value):
    out = tmp_path / "s.set"
    argv = ["gen", "--kind", kind, "--dim", "4", "--count", "2", "--params", value, "--out", str(out)]
    assert _run(argv) == 2
    assert f"param 0 must be finite, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value, factor", [("-1e3", -1000.0), ("-2.5e-1", -0.25), ("-2.5", -2.5)])
def test_contract_reads_negative_map_params_in_exponent_form(tmp_path, value, factor):
    set_path = _gen(tmp_path, dim=3, count=4)
    doc = _report(tmp_path, ["contract", "--source", str(set_path), "--map", "scale",
                             "--map-params", value, "--samples", "2000"])
    assert doc["config"]["map"] == f"scale({factor!r})"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_contract_rejects_a_non_finite_check_constant(tmp_path, capsys, value):
    set_path = _gen(tmp_path, dim=3, count=4)
    out = tmp_path / "c.json"
    assert _run(["contract", "--source", str(set_path), "--map", "scale", "--map-params", "3.0",
                 "--check-at", value, "--out", str(out)]) == 2
    assert f"error: C must be finite, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_contract_rejects_overflowing_distances(tmp_path, capsys):
    set_path = tmp_path / "huge.set"
    save_set(FiniteSet(name="huge", points=[(0.0, 0.0), (1e200, 3e199), (-1e200, 1.0)]), set_path)
    out = tmp_path / "c.json"
    assert _run(["contract", "--source", str(set_path), "--map", "abs", "--check-at", "1.0",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: squared distance of source pair (0, 1) overflows: inf exceeds")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "1"])
def test_gamma_monte_carlo_needs_two_samples(tmp_path, capsys, samples):
    set_path = _gen(tmp_path, dim=4, count=6)
    out = tmp_path / "g.json"
    assert _run(["gamma", "--set", str(set_path), "--model", "monte-carlo", "--samples", samples,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: Monte Carlo needs samples >= 2, got {samples}\n"
    assert not out.exists()


def test_sup_monte_carlo_needs_two_samples(tmp_path, capsys):
    set_path = _gen(tmp_path, dim=4, count=6)
    out = tmp_path / "s.json"
    assert _run(["sup", "--set", str(set_path), "--kind", "gaussian", "--samples", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: Monte Carlo needs samples >= 2, got 1\n"
    assert not out.exists()


@pytest.mark.parametrize("verb", [
    ["sup"],
    ["gamma", "--model", "gaussian-exact"],
    ["contract", "--map", "abs"],
    ["verify-t2"],
    ["decompose"],
    ["oleszkiewicz"],
], ids=lambda verb: verb[0])
def test_every_verb_taking_samples_checks_them_before_any_work(tmp_path, capsys, monkeypatch, verb):
    # the set is enumerable, so every verb's suprema would be exact and draw nothing
    set_path = _gen(tmp_path, dim=4, count=6)
    inputs = {"contract": ["--source", str(set_path)], "oleszkiewicz": ["--x", str(set_path), "--y", str(set_path)]}
    out = tmp_path / "r.json"

    def no_work(*args):
        raise AssertionError("an input was read")

    monkeypatch.setattr(cli, "load_set", no_work)
    monkeypatch.setattr(cli, "load_vector_system", no_work)
    argv = [verb[0], *inputs.get(verb[0], ["--set", str(set_path)]), *verb[1:], "--samples", "1", "--out", str(out)]
    assert _run(argv) == 2
    assert capsys.readouterr().err == "error: Monte Carlo needs samples >= 2, got 1\n"
    assert not out.exists()


def test_gamma_monte_carlo_reports_are_byte_identical(tmp_path):
    set_path = _gen(tmp_path, dim=8, count=20)
    argv = ["gamma", "--set", str(set_path), "--model", "monte-carlo", "--process", "gaussian",
            "--samples", "3001"]
    assert _run(argv + ["--out", str(tmp_path / "a.json")]) == 0
    assert _run(argv + ["--out", str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize("verb", ["contract", "oleszkiewicz"])
def test_fit_tolerance_flag_is_gone(tmp_path, capsys, verb):
    set_path = _gen(tmp_path, dim=3, count=4)
    inputs = (["--source", str(set_path), "--map", "abs"] if verb == "contract"
              else ["--x", str(set_path), "--y", str(set_path)])
    assert _run([verb, *inputs, "--tol", "1e-6"]) == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_contract_rejects_a_negative_infinite_map_param(tmp_path, capsys):
    set_path = _gen(tmp_path, dim=3, count=4)
    assert _run(["contract", "--source", str(set_path), "--map", "scale", "--map-params", "-inf"]) == 2
    assert "error: param 0 must be finite, got -inf" in capsys.readouterr().err


@pytest.mark.parametrize("value, message", [
    ("-1e3", "radius must be positive, got -1000.0"),
    ("-2.5e-1", "radius must be positive, got -0.25"),
    ("-2.5", "radius must be positive, got -2.5"),
    ("-inf", "param 0 must be finite, got -inf"),
])
def test_gen_reads_negative_params_as_values(tmp_path, capsys, value, message):
    # procsup, not argparse, rejects them: argparse would say "unrecognized arguments"
    out = tmp_path / "s.set"
    argv = ["gen", "--kind", "random_sphere", "--dim", "3", "--count", "2", "--params", value,
            "--out", str(out)]
    assert _run(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_decompose_monte_carlo_reference_keys(tmp_path):
    set_path = _gen(tmp_path, dim=24, count=4)  # above the enumeration cap: a Monte Carlo reference
    dec = _report(tmp_path, ["decompose", "--set", str(set_path), "--samples", "200"], "d.json")
    reference = dec["results"]["decomposition"]["s_b_reference"]
    assert sorted(reference) == ["method", "stderr", "value"] and reference["method"] == "monte-carlo"


_VERBS = [
    ["sup", "--set", "{s}", "--exact"],
    ["moments", "--set", "{s}", "--p", "1", "2", "3"],
    ["gamma", "--set", "{s}"],
    ["gamma", "--set", "{s}", "--model", "monte-carlo", "--samples", "500"],
    ["verify-t2", "--set", "{s}"],
    ["contract", "--source", "{s}", "--map", "abs"],
    ["decompose", "--set", "{s}", "--samples", "2000"],
    ["oleszkiewicz", "--x", "{s}", "--y", "{s}", "--extra-functionals", "2", "--samples", "2000"],
]


@pytest.mark.parametrize("verb", _VERBS, ids=lambda argv: " ".join(argv[:1] + argv[3:]))
def test_report_bytes_equal_the_earlier_route(tmp_path, monkeypatch, verb):
    # Every report document a verb builds, streamed to --out by the JSON and
    # CSV writers, is the text encode + json.dumps (and the earlier CSV
    # flattening) gives for that document.
    seen = []

    def checked(write, reference):
        def wrapper(doc, fp):
            write(doc, fp)
            seen.append(reference(doc))
        return wrapper

    monkeypatch.setattr(cli, "dump", checked(reports.dump, report_json))
    monkeypatch.setattr(cli, "dump_csv", checked(reports.dump_csv, report_csv))
    set_path = _gen(tmp_path)
    argv = [str(set_path) if a == "{s}" else a for a in verb]
    for fmt in ("json", "csv"):
        assert _run(argv + ["--format", fmt, "--out", str(tmp_path / f"r.{fmt}")]) == 0
        assert (tmp_path / f"r.{fmt}").read_text() == seen[-1]
    text = (tmp_path / "r.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert len(seen) == 2


def test_a_failed_report_write_leaves_no_file(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    sizes = []

    def dump(doc, fp):
        try:
            reports.dump(doc, fp)
        except TypeError:
            fp.flush()
            sizes.append(os.path.getsize(out))
            raise

    monkeypatch.setattr(cli, "dump", dump)
    args = argparse.Namespace(command="demo", format="json", out=str(out), stamp=None)
    results = {"a": list(range(200_000)), "z": object()}  # the long list streams out before the object fails
    with pytest.raises(TypeError):
        cli._write_report(args, {}, results)
    assert sizes[0] > 1 << 20 and not out.exists()


def test_gen_file_bytes_equal_json_dumps(tmp_path):
    text = _gen(tmp_path, count=40).read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", [[[1.0, 0.0], [1e308, 1e308]], [[-1e308, 0.0], [1e308, 0.0]]])
@pytest.mark.parametrize("argv", [["gamma"], ["gamma", "--model", "gaussian-exact"],
                                  ["gamma", "--model", "monte-carlo", "--samples", "100"], ["decompose"]])
def test_overflowing_distances_exit_2_naming_a_point_without_a_report(tmp_path, capsys, rows, argv):
    set_path, out = tmp_path / "huge.set", tmp_path / "r.json"
    save_set(FiniteSet(name="huge", points=rows), set_path)
    assert _run([*argv, "--set", str(set_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the ") and "point" in err and err.endswith(" overflows float64\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", [[[1.0, 0.0], [1e308, 1e308]], [[-1e308, 0.0], [1e308, 0.0]]])
@pytest.mark.parametrize("model", [["bernoulli-proxy"], ["bernoulli-exact"], ["gaussian-exact"],
                                   ["monte-carlo", "--samples", "100"]])
def test_exhaustive_search_on_an_overflowing_pair_exits_2_without_a_report(tmp_path, capsys, rows, model):
    set_path, out = tmp_path / "huge.set", tmp_path / "r.json"
    save_set(FiniteSet(name="huge", points=rows), set_path)
    argv = ["gamma", "--exhaustive", "--model", *model, "--set", str(set_path), "--out", str(out)]
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: the squared l2 distance between points 0 and 1 overflows float64\n"
    assert not out.exists()


# A report's config is every option of its verb, in the order the verb declares
# them, except its input paths, --out and --stamp (and contract's --map-params,
# which its resolved map label carries).  These lists are the config keys every
# verb reported before that rule was written down once.
_CONFIG_KEYS = [
    (["moments", "--set", "{s}", "--p", "1", "2"], ["p", "format"]),
    (["sup", "--set", "{s}", "--exact"], ["kind", "exact", "samples", "seed", "format"]),
    (["gamma", "--set", "{s}"], ["model", "exhaustive", "process", "samples", "seed", "format"]),
    (["verify-t2", "--set", "{s}", "--samples", "500"], ["kind", "exact", "samples", "seed", "format"]),
    (["contract", "--source", "{s}", "--map", "scale", "--map-params", "0.5", "--samples", "500"],
     ["map", "p_max", "check_at", "samples", "seed", "format"]),
    (["decompose", "--set", "{s}", "--samples", "500"], ["samples", "seed", "per_point", "k", "format"]),
    (["oleszkiewicz", "--x", "{s}", "--y", "{s}", "--extra-functionals", "2", "--samples", "500"],
     ["norm", "extra_functionals", "p_max", "samples", "seed", "format"]),
    (["suite", "--only", "2", "2"], ["seed", "only", "format"]),
]


@pytest.mark.parametrize("argv, keys", _CONFIG_KEYS, ids=[argv[0] for argv, _ in _CONFIG_KEYS])
def test_config_keys_keep_their_order_and_leave_out_every_path(tmp_path, capsys, argv, keys):
    set_path = _gen(tmp_path, "input-path-marker.set")
    argv = [str(set_path) if a == "{s}" else a for a in argv]
    texts = {}
    for fmt in ("json", "csv"):
        out = tmp_path / f"r.{fmt}"
        assert _run(argv + ["--format", fmt, "--out", str(out)]) == 0
        texts[fmt] = out.read_text()
    if argv[0] != "suite":  # suite writes a report only to --out
        capsys.readouterr()
        assert _run(argv) == 0
        texts["stdout"] = capsys.readouterr().out
    for text in texts.values():
        assert "input-path-marker" not in text and str(tmp_path) not in text
    assert list(json.loads(texts["json"])["config"]) == sorted(keys)  # json sorts its keys
    rows = [k for k, _ in csv.reader(io.StringIO(texts["csv"])) if k.startswith("config.")]
    assert list(dict.fromkeys(k.split(".")[1].split("[")[0] for k in rows)) == keys


def test_config_carries_the_resolved_options(tmp_path):
    set_path = _gen(tmp_path)  # d = 6
    contract = ["contract", "--source", str(set_path), "--map", "clamp", "--map-params", "-0.5", "0.5",
                "--samples", "500"]
    config = _report(tmp_path, contract)["config"]
    assert (config["map"], config["p_max"], config["check_at"]) == ("clamp(-0.5, 0.5)", 6, None)
    config = _report(tmp_path, contract + ["--p-max", "2", "--check-at", "2"])["config"]
    assert (config["map"], config["p_max"], config["check_at"]) == ("clamp(-0.5, 0.5)", 2, 2.0)
    assert _report(tmp_path, ["suite", "--only", "4", "2", "4"])["config"]["only"] == [2, 4]
    assert _report(tmp_path, ["suite", "--only", "2"])["config"] == {"seed": 20260815, "only": [2], "format": "json"}
