"""The benchmark's workloads: which sets each job generates and which verbs it runs.

A job is a fixed list of ``procsup`` CLI invocations.  Its input sets are
random spheres from ``procsup.core.generate_set``, keyed by the workload
seed, the job's slot in the input pool and the set's role, so one seed
always yields the same inputs.  Every workload has a full size (what the
benchmark measures) and a tiny size (what the smoke test runs).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

#: Input pool per run; job ``j`` uses pool slot ``j % POOL``.
POOL = 3


@dataclass(frozen=True)
class SetSpec:
    role: str
    dim: int
    count: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sets: tuple[SetSpec, ...]
    #: CLI argv per verb; ``{ROLE}`` stands for the path of that role's set file.
    verbs: tuple[tuple[str, ...], ...]


WHY = {
    "exact-enum": "drives all three sign enumerators (sup --exact, exact moments, exact strong "
                  "moments) with odd and even p on tiny trees",
    "monte-carlo": "drives all three Monte Carlo accumulators and rng with no enumeration, "
                   "including the 16384 x |T| block at |T|=4000",
    "large-tree": "one greedy partition tree over 20000 points: allocation, splitting, "
                  "chain_bound and a 4 MB report",
    "sweep-fit": "Point-heavy Python loops: a threshold sweep over ~600 small trees and a "
                 "contraction fit by bisection",
}


def _exact_enum(tiny: bool) -> Workload:
    d, n, small, terms, dim = (4, 6, 4, 4, 3) if tiny else (20, 64, 16, 20, 6)
    extra = "1" if tiny else "4"
    return Workload(
        "exact-enum",
        WHY["exact-enum"],
        (SetSpec("A", d, n), SetSpec("B", d, small), SetSpec("X", dim, terms), SetSpec("Y", dim, terms)),
        (
            ("sup", "--set", "{A}", "--exact"),
            ("verify-t2", "--set", "{A}", "--kind", "bernoulli"),
            ("moments", "--set", "{B}", "--p", "1", "2", "4", "8"),
            ("oleszkiewicz", "--x", "{X}", "--y", "{Y}", "--extra-functionals", extra),
        ),
    )


def _monte_carlo(tiny: bool) -> Workload:
    # d > 20 (21 when tiny) sends verify-t2 and the strong moments down their MC routes.
    (cd, cn), (dd, dn), (ed, en), terms = (
        ((5, 20), (4, 8), (21, 8), 21) if tiny else ((50, 4000), (32, 64), (32, 256), 32)
    )
    samples, gamma_samples = ("2000", "500") if tiny else ("100000", "20000")
    return Workload(
        "monte-carlo",
        WHY["monte-carlo"],
        (
            SetSpec("C", cd, cn),
            SetSpec("D", dd, dn),
            SetSpec("E", ed, en),
            SetSpec("X", 6, terms),
            SetSpec("Y", 6, terms),
        ),
        (
            ("sup", "--set", "{C}", "--kind", "gaussian", "--samples", samples),
            ("gamma", "--set", "{D}", "--model", "monte-carlo", "--process", "gaussian",
             "--samples", gamma_samples),
            ("verify-t2", "--set", "{E}", "--kind", "bernoulli", "--samples", samples),
            ("oleszkiewicz", "--x", "{X}", "--y", "{Y}", "--extra-functionals", "4",
             "--samples", samples),
        ),
    )


def _large_tree(tiny: bool) -> Workload:
    d, n = (3, 40) if tiny else (8, 20000)
    return Workload(
        "large-tree",
        WHY["large-tree"],
        (SetSpec("F", d, n),),
        (("gamma", "--set", "{F}", "--model", "gaussian-exact"),),
    )


def _sweep_fit(tiny: bool) -> Workload:
    # d > 20 (21 when tiny) keeps compare_suprema on Monte Carlo.
    (gd, gn), (hd, hn) = ((3, 5), (21, 6)) if tiny else ((16, 40), (24, 60))
    samples = "2000" if tiny else "100000"
    return Workload(
        "sweep-fit",
        WHY["sweep-fit"],
        (SetSpec("G", gd, gn), SetSpec("H", hd, hn)),
        (
            ("decompose", "--set", "{G}"),
            ("contract", "--source", "{H}", "--map", "scale", "--map-params", "3.0",
             "--samples", samples),
        ),
    )


_FACTORIES = {
    "exact-enum": _exact_enum,
    "monte-carlo": _monte_carlo,
    "large-tree": _large_tree,
    "sweep-fit": _sweep_fit,
}

NAMES = tuple(_FACTORIES)


def get(name: str, tiny: bool = False) -> Workload:
    return _FACTORIES[name](tiny)


def set_seed(workload: str, seed: int, slot: int, role: str) -> int:
    """The generator seed of one input set, derived from (workload seed, pool slot, role)."""
    digest = hashlib.sha256(f"{workload}|{seed}|{slot}|{role}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1
