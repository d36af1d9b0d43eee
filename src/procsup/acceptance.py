"""The package's verification suite: ten seeded criteria, run by ``procsup suite`` and the tests.

Each criterion exercises one guaranteed relationship end to end (sandwich
bounds, moment regularity, chaining domination by the ``verify-t2``
verifier, combiner subadditivity, contraction by the ``contract`` verifier
and its calibration, decomposition bookkeeping, Monte Carlo against exact
oracles, and report determinism) at sizes fixed here.  No verdict reads the
clock; the test suite holds the time budgets.  Criterion 3's Gaussian half
and criterion 9 are Monte Carlo checks, reproducible at the pinned seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .chaining import (
    SUP_BOUND_FACTOR,
    build_partition_greedy,
    chain_bound,
    combine_sum_set,
    exhaustive_gamma,
    verify_sup_bound,
)
from .contraction import CoordinateMap, apply_map, check_condition, compare_suprema, fit_min_C
from .core import FiniteSet, ProcessKind, Seed, generate_set
from .decomposition import decompose_by_sweep, split_rows, sweep_objectives, verify_two_sided
from .moments import (
    REL_SLACK,
    MomentModel,
    bernoulli_exact_norms,
    gaussian_moment_constant,
    gaussian_norms,
    mc_norms,
    moment_sandwich,
)
from .suprema import brute_force_bernoulli_sup, mc_sup

#: Seed used when none is given; any u64 works, results stay deterministic.
DEFAULT_SEED = 20260815


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict

    @property
    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] criterion {self.number}: {self.name}"


def _mixed_vectors(seed: int, count: int, dim: int, label: str) -> np.ndarray:
    """A ``(count, dim)`` matrix of coefficient vectors from rotating
    distributions: normal, uniform, sparse, flat-signed, and heavy-tailed."""
    out = np.empty((count, dim))
    for i in range(count):
        gen = rng.stream(seed, f"{label}:vector", index=i)
        style = i % 5
        if style == 0:
            row = rng.standard_normal(gen, dim)
        elif style == 1:
            row = 2.0 * rng.uniform_open(gen, dim) - 1.0
        elif style == 2:
            row = np.zeros(dim)
            support = gen.choice(dim, size=3, replace=False)
            row[support] = rng.standard_normal(gen, 3)
        elif style == 3:
            row = rng.rademacher(gen, dim) / math.sqrt(dim)
        else:
            row = rng.standard_normal(gen, dim) ** 3
        out[i] = row
    return out


def _random_set(seed: int, label: str, index: int, count: int, dim: int) -> FiniteSet:
    gen = rng.stream(seed, f"{label}:set", index=index)
    return FiniteSet(name=f"{label}-{index}", points=rng.standard_normal(gen, (count, dim)))


def criterion_1_moment_sandwich(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Proxy sandwich by :func:`moment_sandwich`: exact <= proxy <= 4 * exact on mixed vectors, d = 12."""
    orders = (1, 2, 3, 4, 8, 16)
    vectors = _mixed_vectors(seed, 50, 12, "c1")
    rows, _, failures = moment_sandwich(vectors, orders)
    ratios = [row.sandwich_ratio for row in rows if row.bernoulli_exact > 0.0]
    return CriterionResult(
        1,
        "moment sandwich (exact <= proxy <= 4*exact)",
        failures == 0,
        {
            "vectors": len(vectors),
            "orders": list(orders),
            "min_ratio": min(ratios, default=math.inf),
            "max_ratio": max(ratios, default=0.0),
            "failures": failures,
        },
    )


def criterion_2_moment_regularity(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Doubling the order costs at most sqrt(3): ||X||_2q <= sqrt(3)||X||_q."""
    vectors = _mixed_vectors(seed, 50, 12, "c1")  # same corpus as criterion 1
    sqrt3 = math.sqrt(3.0)
    worst_bernoulli = 0.0
    failures = 0
    for norms in bernoulli_exact_norms(vectors, (2, 4, 8, 16)).tolist():
        # (low, high) = (||X||_q, ||X||_2q) for q in (2, 4, 8)
        for low, high in itertools.pairwise(norms):
            if low == 0.0:
                continue
            worst_bernoulli = max(worst_bernoulli, high / low)
            if high > sqrt3 * low * (1.0 + REL_SLACK):
                failures += 1
    gaussian_ratios = {q: gaussian_moment_constant(2 * q) / gaussian_moment_constant(q) for q in (2, 4, 8, 16)}
    for q, ratio in gaussian_ratios.items():
        if ratio > sqrt3 * (1.0 + REL_SLACK):
            failures += 1
    return CriterionResult(
        2,
        "moment regularity under order doubling (factor sqrt 3)",
        failures == 0,
        {
            "worst_bernoulli_ratio": worst_bernoulli,
            "gaussian_ratios": {str(q): r for q, r in gaussian_ratios.items()},
            "sqrt3": sqrt3,
            "failures": failures,
        },
    )


def _criterion_3_corpus(seed: int) -> list[FiniteSet]:
    sets = [_random_set(seed, "c3", i, count=32, dim=12) for i in range(20)]
    sets.append(generate_set("simplex_vertices", 12, 12, Seed(seed % 2**64)))
    sets.append(generate_set("cube_vertices", 12, 32, Seed(seed % 2**64)))
    sets.append(generate_set("disjoint_blocks", 12, 4, Seed(seed % 2**64), params=[3]))
    return sets


def criterion_3_sup_vs_chain_bound(seed: int = DEFAULT_SEED) -> CriterionResult:
    """E sup <= 4 * greedy chain bound by :func:`verify_sup_bound`: exact (Bernoulli), within MC noise (Gaussian)."""
    failures = 0
    worst = dict.fromkeys(ProcessKind, 0.0)
    corpus = _criterion_3_corpus(seed)
    for i, ts in enumerate(corpus):
        for kind in ProcessKind:
            report = verify_sup_bound(ts, kind, samples=100_000, seed=Seed((seed + i) % 2**64))
            failures += int(report.violation)
            worst[kind] = max(worst[kind], report.ratio)
    return CriterionResult(
        3,
        "expected supremum within 4x the greedy chain bound",
        failures == 0,
        {
            "sets": len(corpus),
            "worst_bernoulli_ratio": worst[ProcessKind.BERNOULLI],
            "worst_gaussian_ratio": worst[ProcessKind.GAUSSIAN],
            "bound_factor": SUP_BOUND_FACTOR,
            "failures": failures,
        },
    )


def criterion_4_exhaustive_gamma(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Exhaustive tree search never exceeds greedy; two-point value is the l2 gap."""
    model = MomentModel.GAUSSIAN_EXACT
    failures = 0
    worst_gap = 0.0
    two_point_err = 0.0
    sets = [_random_set(seed, "c4", i, count=2 + i % 3, dim=6) for i in range(30)]
    for ts in sets:
        exact = exhaustive_gamma(ts, model).value
        greedy = chain_bound(ts, build_partition_greedy(ts), model).value
        if exact > greedy + 1e-12 * max(1.0, greedy):
            failures += 1
        worst_gap = max(worst_gap, exact - greedy)
        if len(ts) == 2:
            want = float(np.linalg.norm(ts.matrix[1] - ts.matrix[0]))
            err = abs(exact - want) / want
            two_point_err = max(two_point_err, err)
            if err > 1e-12:
                failures += 1
    return CriterionResult(
        4,
        "exhaustive tree search never exceeds greedy (and is exact on pairs)",
        failures == 0,
        {
            "instances": len(sets),
            "worst_exhaustive_minus_greedy": worst_gap,
            "worst_two_point_rel_err": two_point_err,
            "failures": failures,
        },
    )


def criterion_5_sum_set_combiner(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Combined tree bound <= sqrt(3) * (bound_A + bound_B), Gaussian model."""
    model = MomentModel.GAUSSIAN_EXACT
    sqrt3 = math.sqrt(3.0)
    failures = 0
    worst = 0.0
    pairs = 10
    for i in range(pairs):
        na, nb = 3 + i % 6, 8 - i % 6
        set_a = _random_set(seed, "c5a", i, count=na, dim=8)
        set_b = _random_set(seed, "c5b", i, count=nb, dim=8)
        tree_a = build_partition_greedy(set_a)
        tree_b = build_partition_greedy(set_b)
        combined_set, combined_tree = combine_sum_set(set_a, tree_a, set_b, tree_b)
        lhs = chain_bound(combined_set, combined_tree, model).value
        rhs = chain_bound(set_a, tree_a, model).value + chain_bound(set_b, tree_b, model).value
        if lhs > sqrt3 * rhs * (1.0 + REL_SLACK):
            failures += 1
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    return CriterionResult(
        5,
        "sum-set combiner stays within sqrt(3) of the marginal bounds",
        failures == 0,
        {"pairs": pairs, "worst_ratio": worst, "sqrt3": sqrt3, "failures": failures},
    )


def criterion_6_classical_contraction(seed: int = DEFAULT_SEED) -> CriterionResult:
    """1-Lipschitz coordinatewise maps never increase the Bernoulli supremum (:func:`compare_suprema`)."""
    maps = [CoordinateMap("abs"), CoordinateMap("clamp", (-1.0, 1.0)), CoordinateMap("soft_threshold", (0.5,))]
    failures = 0
    worst_ratio = 0.0
    sets = [_random_set(seed, "c6", i, count=16, dim=10) for i in range(20)]
    for ts in sets:
        for cmap in maps:
            pair = apply_map(ts, cmap)
            sups = compare_suprema(pair)
            failures += int(sups.lhs > sups.rhs + 1e-12)
            worst_ratio = max(worst_ratio, sups.ratio)
            failures += int(check_condition(pair, 1.0, p_max=10).margin > 1e-12)
    return CriterionResult(
        6,
        "classical contraction: 1-Lipschitz images, constant one",
        failures == 0,
        {"sets": len(sets), "maps": [m.label for m in maps], "worst_ratio": worst_ratio, "failures": failures},
    )


def criterion_7_fit_calibration(seed: int = DEFAULT_SEED) -> CriterionResult:
    """fit_min_C recovers max(|c|, 1) for scalings; feasibility is monotone in C."""
    base = _random_set(seed, "c7", 0, count=12, dim=10)
    failures = 0
    errs = {}
    for c in (0.5, 1.0, 2.0, 5.0):
        pair = apply_map(base, CoordinateMap("scale", (c,)))
        got = fit_min_C(pair).c_star
        want = max(abs(c), 1.0)
        errs[str(c)] = None if got is None else abs(got - want)
        if got is None or abs(got - want) > 1e-4:
            failures += 1
    inversions = 0
    probes = 100
    for i in range(probes):
        gen = rng.stream(seed, "c7:probe", index=i)
        ts = _random_set(seed, "c7p", i, count=6, dim=8)
        style = i % 4
        if style == 0:
            cmap = CoordinateMap("scale", (float(0.25 + 3.75 * rng.uniform_open(gen, 1)[0]),))
        elif style == 1:
            cmap = CoordinateMap("abs")
        elif style == 2:
            lo = -float(rng.uniform_open(gen, 1)[0])
            cmap = CoordinateMap("clamp", (lo, -lo))
        else:
            cmap = CoordinateMap("soft_threshold", (float(rng.uniform_open(gen, 1)[0]),))
        pair = apply_map(ts, cmap)
        c_lo = 1.0 + 7.0 * float(rng.uniform_open(gen, 1)[0])
        c_hi = c_lo + 7.0 * float(rng.uniform_open(gen, 1)[0])
        ok_lo = check_condition(pair, c_lo, p_max=8).satisfied
        ok_hi = check_condition(pair, c_hi, p_max=8).satisfied
        if ok_lo and not ok_hi:
            inversions += 1
    return CriterionResult(
        7,
        "contraction constant calibration and monotone feasibility",
        failures == 0 and inversions == 0,
        {"calibration_errors": errs, "probes": probes, "inversions": inversions, "failures": failures},
    )


def criterion_8_decomposition(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Threshold sweeps on disjoint-block sets: reconstruction, optimality, finite ratios."""
    failures = 0
    k_emps = []
    lower_ratios = []
    seeds = [(seed + i) % 2**64 for i in range(20)]
    for s in seeds:
        ts = generate_set("disjoint_blocks", 64, 8, Seed(s), params=[8])
        result = decompose_by_sweep(ts, samples=20_000, seed=Seed(s))
        heads, tails = split_rows(ts.matrix, result.split.thresholds)
        rebuilt = heads + tails  # each coordinate sits on one side, the other holds 0.0
        failures += int(not np.array_equal(rebuilt, ts.matrix))
        # Disjointness: no coordinate is nonzero in two points, counted per column.
        failures += int(np.count_nonzero(rebuilt, axis=0).max() > 1)
        best_swept = min(e.objective for e in sweep_objectives(ts))
        if result.objective > best_swept + 1e-12 * max(1.0, best_swept):
            failures += 1
        two_sided = verify_two_sided(ts, result)
        k_emps.append(result.k_emp)
        lower_ratios.append(two_sided.extras["lower_ratio"])
        if not (math.isfinite(result.k_emp) and math.isfinite(two_sided.extras["lower_ratio"])):
            failures += 1
    return CriterionResult(
        8,
        "threshold decomposition: exact rebuild, disjointness, sweep optimality",
        failures == 0,
        {
            "instances": len(seeds),
            "k_emp_min": min(k_emps),
            "k_emp_max": max(k_emps),
            "lower_ratio_min": min(lower_ratios),
            "lower_ratio_max": max(lower_ratios),
            "failures": failures,
        },
    )


def criterion_9_mc_consistency(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Monte Carlo agrees with exact oracles within three standard errors."""
    failures = 0
    norm_misses = 0
    vectors = _mixed_vectors(seed, 10, 12, "c9a")
    orders = (1, 2, 4)
    for i, t in enumerate(vectors):
        for p in orders:
            (est,), (stderr,) = mc_norms(ProcessKind.GAUSSIAN, t[None, :], p, 100_000, Seed((seed + i) % 2**64))
            (want,) = gaussian_norms(t[None, :], p)
            if abs(est - want) > 3.0 * stderr:
                norm_misses += 1
    if norm_misses:
        failures += 1
    sup_misses = 0
    trials = 100
    for i in range(trials):
        ts = _random_set(seed, "c9b", i, count=8, dim=10)
        exact = brute_force_bernoulli_sup(ts).value
        est = mc_sup(ProcessKind.BERNOULLI, ts, 20_000, Seed((seed + i) % 2**64))
        if abs(est.value - exact) > 3.0 * est.stderr:
            sup_misses += 1
    if sup_misses > 1:  # >= 99 of 100 trials must agree
        failures += 1
    return CriterionResult(
        9,
        "Monte Carlo matches exact oracles within noise",
        failures == 0,
        {"norm_checks": len(vectors) * len(orders), "norm_misses": norm_misses, "sup_trials": trials,
         "sup_misses": sup_misses},
    )


def criterion_10_report_determinism(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Every CLI verb, run twice with one seed, emits byte-identical reports."""
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    from . import cli

    def quiet_run(argv: list[str]) -> int:
        # Nested CLI chatter belongs to the verbs, not to the suite transcript.
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run(argv)

    def run_batch(root: Path) -> dict[str, bytes]:
        set_path = root / "set.json"
        x_path = root / "x.json"
        y_path = root / "y.json"
        out: dict[str, bytes] = {}
        commands = {
            "gen": ["gen", "--kind", "random_sphere", "--dim", "6", "--count", "5",
                     "--seed", str(seed % 2**64), "--out", str(set_path)],
            "gen-x": ["gen", "--kind", "ellipsoid_sample", "--dim", "4", "--count", "3",
                       "--seed", str(seed % 2**64), "--out", str(x_path)],
            "gen-y": ["gen", "--kind", "random_sphere", "--dim", "4", "--count", "3",
                       "--seed", str((seed + 1) % 2**64), "--out", str(y_path)],
        }
        for name, argv in commands.items():
            if quiet_run(argv) != 0:
                raise RuntimeError(f"{name} failed")
        reports = {
            "moments": ["moments", "--set", str(set_path), "--p", "1", "2", "4"],
            "sup": ["sup", "--set", str(set_path), "--kind", "gaussian",
                     "--samples", "5000", "--seed", "3"],
            "gamma": ["gamma", "--set", str(set_path), "--model", "gaussian-exact"],
            "verify-t2": ["verify-t2", "--set", str(set_path), "--kind", "bernoulli"],
            "contract": ["contract", "--source", str(set_path), "--map", "abs"],
            "decompose": ["decompose", "--set", str(set_path), "--samples", "5000", "--seed", "4"],
            "oleszkiewicz": ["oleszkiewicz", "--x", str(set_path), "--y", str(set_path),
                              "--extra-functionals", "4", "--seed", "5", "--samples", "5000"],
        }
        for name, argv in reports.items():
            target = root / f"{name}.report.json"
            code = quiet_run(argv + ["--out", str(target)])
            if code not in (0, 3):
                raise RuntimeError(f"{name} exited {code}")
            out[name] = target.read_bytes()
        out["set"] = set_path.read_bytes()
        return out

    with tempfile.TemporaryDirectory() as tmp1, tempfile.TemporaryDirectory() as tmp2:
        first = run_batch(Path(tmp1))
        second = run_batch(Path(tmp2))
    mismatches = [name for name in first if first[name] != second.get(name)]
    return CriterionResult(
        10,
        "repeated runs emit byte-identical artifacts",
        not mismatches,
        {"artifacts": sorted(first), "mismatches": mismatches},
    )


ALL_CRITERIA = (
    criterion_1_moment_sandwich,
    criterion_2_moment_regularity,
    criterion_3_sup_vs_chain_bound,
    criterion_4_exhaustive_gamma,
    criterion_5_sum_set_combiner,
    criterion_6_classical_contraction,
    criterion_7_fit_calibration,
    criterion_8_decomposition,
    criterion_9_mc_consistency,
    criterion_10_report_determinism,
)
