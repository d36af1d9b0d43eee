"""Command-line front end tying the library into reproducible experiments.

Every report-producing verb emits a self-describing document: the parsed
configuration, the content hashes of the input artifacts, the design
decisions in force, and the results.  A report's configuration is every
option of its verb, in the order the verb declares them, except its input
paths, ``--out`` and ``--stamp``; where a verb resolves an option before it
runs (``contract``'s ``--p-max`` and ``--map`` with its params, ``suite``'s
``--only``), the report carries the resolved value.  Paths never enter the
document, so the same inputs produce byte-identical reports from any
working directory.

Exit codes: 0 success, 2 parameter/validation/parse problem, 3 a verified
assertion failed (a sandwich or bound violation, a failed suite criterion).
"""

from __future__ import annotations

import argparse
import re
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from .chaining import (
    EXHAUSTIVE_MAX_POINTS,
    build_partition_greedy,
    chain_bound,
    exhaustive_gamma,
    verify_sup_bound,
)
from .contraction import (
    _MAP_ARITY,
    CoordinateMap,
    apply_map,
    check_condition,
    compare_suprema,
    fit_min_C,
)
from .core import (
    EXACT_ENUMERATION_MAX_DIM,
    ProcessKind,
    Seed,
    SetKind,
    generate_set,
    load_set,
    save_set,
)
from .decomposition import decompose_by_sweep, verify_two_sided
from .errors import ParameterError, ProcsupError
from .moments import EXACT_MAX_ORDER, EXACT_SUP_MAX_SUMS, ModelKind, MomentModel, moment_sandwich
from .oleszkiewicz import (
    NormKind,
    load_vector_system,
    generate_functionals,
    strong_moment_ratio,
    weak_moment_constant,
    check_weak_contraction,
)
from .reports import build_report, record, safe_ratio, to_csv, to_json
from .suprema import expected_sup

# Friendly aliases accepted by `gen --kind` on top of the canonical names.
_KIND_ALIASES = {
    "sphere": SetKind.RANDOM_SPHERE,
    "simplex": SetKind.SIMPLEX_VERTICES,
    "ellipsoid": SetKind.ELLIPSOID_SAMPLE,
    "cube": SetKind.CUBE_VERTICES,
    "blocks": SetKind.DISJOINT_BLOCKS,
}


def _kind_choices() -> list[str]:
    return sorted({k.value for k in SetKind} | set(_KIND_ALIASES))


def _resolve_set_kind(name: str) -> SetKind:
    return _KIND_ALIASES.get(name) or SetKind(name)


def _values(kinds) -> list[str]:
    return [k.value for k in kinds]


#: Parsed options that stay out of a report's config: argparse's own, the
#: input paths (the report carries their content hashes), where the report
#: goes, and the map params (``contract``'s resolved ``map`` label names them).
_NOT_CONFIG = frozenset({"command", "handler", "set", "source", "x", "y", "out", "stamp", "map_params"})


def _write_report(args: argparse.Namespace, inputs: dict, results) -> None:
    """Build the report of ``args.command`` and write it to ``--out`` or stdout."""
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    stamp = datetime.now(timezone.utc).isoformat() if args.stamp == "now" else args.stamp
    doc = build_report(args.command, config, inputs, results, stamp=stamp)
    text = to_csv(doc) if args.format == "csv" else to_json(doc)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args: argparse.Namespace) -> int:
    kind = _resolve_set_kind(args.kind)
    ts = generate_set(kind, args.dim, args.count, Seed(args.seed), tuple(args.params))
    save_set(ts, args.out)
    print(f"wrote {args.out}: {ts.name} ({len(ts)} points, dim {ts.dim}, hash {ts.content_hash()[:12]})")
    return 0


def cmd_moments(args: argparse.Namespace) -> int:
    """Per-point moment decompositions, with the sandwich asserted when exact."""
    ts = load_set(args.set)
    rows, checked, violations = moment_sandwich(ts.matrix, args.p)
    results = {
        "set": ts.name,
        "rows": [record(row) for row in rows],
        "sandwich": {"checked": checked, "violations": violations},
    }
    _write_report(args, {"set": ts.content_hash()}, results)
    return 3 if violations else 0


def cmd_sup(args: argparse.Namespace) -> int:
    ts = load_set(args.set)
    est = expected_sup(ProcessKind(args.kind), ts, args.samples, Seed(args.seed), exact=args.exact)
    results = {"set": ts.name, "dim": ts.dim, "points": len(ts), **record(est)}
    _write_report(args, {"set": ts.content_hash()}, results)
    return 0


def _model_from_args(args: argparse.Namespace) -> MomentModel:
    kind = ModelKind(args.model)
    if kind is ModelKind.MONTE_CARLO:
        return MomentModel.monte_carlo(ProcessKind(args.process), args.samples, Seed(args.seed))
    return MomentModel(kind)


def cmd_gamma(args: argparse.Namespace) -> int:
    """Chaining functional of a set: greedy tree by default, exhaustive on request."""
    ts = load_set(args.set)
    model = _model_from_args(args)
    if args.exhaustive:
        bound = exhaustive_gamma(ts, model)
        method = "exhaustive"
    else:
        bound = chain_bound(ts, build_partition_greedy(ts), model)
        method = "greedy"
    results = {
        "set": ts.name,
        "method": method,
        "model": model.label,
        "value": bound.value,
        "per_point": list(bound.per_point),
        "tree": bound.tree.columns(),
    }
    _write_report(args, {"set": ts.content_hash()}, results)
    return 0


def cmd_verify_t2(args: argparse.Namespace) -> int:
    ts = load_set(args.set)
    report = verify_sup_bound(ts, ProcessKind(args.kind), samples=args.samples, seed=Seed(args.seed),
                              exact=args.exact)
    _write_report(args, {"set": ts.content_hash()}, record(report))
    return 3 if report.violation else 0


def cmd_contract(args: argparse.Namespace) -> int:
    """Map a set coordinatewise, fit the contraction constant, compare suprema."""
    ts = load_set(args.source)
    cmap = CoordinateMap(args.map, tuple(args.map_params))
    pair = apply_map(ts, cmap)
    args.map = cmap.label  # the report's config carries the resolved map and trim count
    args.p_max = ts.dim if args.p_max is None else args.p_max
    check = None if args.check_at is None else check_condition(pair, args.check_at, args.p_max)
    fit = fit_min_C(pair, p_max=args.p_max)
    suprema = compare_suprema(pair, samples=args.samples, seed=Seed(args.seed))
    results = {
        "source": ts.name,
        "image_points": len(pair.image),
        "fit": fit.to_dict(),
        "suprema": record(suprema),
    }
    code = 0
    if check is not None:
        results["check"] = {"c": args.check_at, **record(check)}
        if not check.satisfied:
            code = 3
    _write_report(args, {"source": ts.content_hash()}, results)
    return code


def cmd_decompose(args: argparse.Namespace) -> int:
    ts = load_set(args.set)
    result = decompose_by_sweep(ts, ProcessKind(args.kind), samples=args.samples, seed=Seed(args.seed),
                                per_point=args.per_point, k_constant=args.k)
    results = {
        "set": ts.name,
        "decomposition": result.to_dict(),
        "two_sided": record(verify_two_sided(ts, result)),
    }
    _write_report(args, {"set": ts.content_hash()}, results)
    return 0


def cmd_oleszkiewicz(args: argparse.Namespace) -> int:
    """Weak/strong moment comparison of two vector systems under one norm."""
    norm = NormKind(args.norm)
    x_sys = load_vector_system(args.x, norm)
    y_sys = load_vector_system(args.y, norm)
    funcs = generate_functionals(x_sys.norm, x_sys.dim, args.extra_functionals, Seed(args.seed))
    weak = weak_moment_constant(x_sys, y_sys, funcs, p_max=args.p_max)
    contraction = check_weak_contraction(x_sys, y_sys, funcs, p_max=args.p_max)
    strong = strong_moment_ratio(x_sys, y_sys, samples=args.samples, seed=Seed(args.seed))
    results = {
        "x": x_sys.name,
        "y": y_sys.name,
        "norm": x_sys.norm.value,
        "functionals": len(funcs),
        "weak": record(weak),
        "contraction": contraction.to_dict(),
        "strong": record(strong),
        "strong_over_weak": safe_ratio(strong.ratio, weak.value),
    }
    _write_report(args, {"x": x_sys.content_hash(), "y": y_sys.content_hash()}, results)
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from . import acceptance

    args.only = sorted(set(args.only)) if args.only else None
    numbers = args.only or range(1, len(acceptance.ALL_CRITERIA) + 1)
    unknown = [n for n in numbers if not 1 <= n <= len(acceptance.ALL_CRITERIA)]
    if unknown:
        raise ParameterError(f"no such criterion: {unknown}")
    criteria = [acceptance.ALL_CRITERIA[n - 1] for n in numbers]
    results = []
    for criterion in criteria:
        outcome = criterion(args.seed)
        print(outcome.line)
        results.append(record(outcome))
    passed = all(r["passed"] for r in results)
    if args.out:
        _write_report(args, {}, {"criteria": results, "all_passed": passed})
    print(f"{sum(r['passed'] for r in results)}/{len(results)} criteria passed")
    return 0 if passed else 3


def _add_report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="PATH", help="write the report to this file instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="report serialization (default: json)")
    p.add_argument("--stamp", nargs="?", const="now", metavar="TEXT",
                   help="embed a run label; bare --stamp uses the current UTC time "
                        "(reports are byte-stable only without it)")


#: Negative numbers with an optional fraction and exponent, and ``-inf``/``-nan``.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads ``-1e3``, ``-2.5e-1`` and ``-inf`` as values.

    Plain argparse takes only forms like ``-2`` and ``-2.5`` for negative
    numbers and rejects the rest as unrecognized options.  Subparsers
    inherit the class.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="procsup",
        description="Suprema of canonical Bernoulli/Gaussian processes over finite sets: "
                    "bounds, decompositions, and verification harnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named family of index sets")
    p.add_argument("--kind", required=True, choices=_kind_choices())
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params", type=float, nargs="*", default=[],
                   help="extra generator parameters (radius, scale, axes, block size)")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("moments", help="moment decompositions and the sandwich check")
    p.add_argument("--set", required=True, metavar="PATH")
    p.add_argument("--p", type=int, nargs="+", default=[1, 2, 4, 8],
                   help=f"moment orders, integers >= 1 (default: 1 2 4 8); integers 1..{EXACT_MAX_ORDER} "
                        f"where exact norms are computed (d <= {EXACT_ENUMERATION_MAX_DIM})")
    _add_report_flags(p)
    p.set_defaults(handler=cmd_moments)

    p = sub.add_parser("sup", help="expected supremum of the canonical process")
    p.add_argument("--set", required=True, metavar="PATH")
    p.add_argument("--kind", choices=_values(ProcessKind), default="bernoulli")
    p.add_argument("--exact", action="store_true",
                   help="force exact enumeration (Bernoulli only, dim <= "
                        f"{EXACT_ENUMERATION_MAX_DIM} and |T|*2^(d-1) <= 2^{EXACT_SUP_MAX_SUMS.bit_length() - 1})")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    _add_report_flags(p)
    p.set_defaults(handler=cmd_sup)

    p = sub.add_parser("gamma", help="chaining functional via admissible partition trees")
    p.add_argument("--set", required=True, metavar="PATH")
    p.add_argument("--model", choices=_values(ModelKind), default="gaussian-exact")
    p.add_argument("--exhaustive", action="store_true",
                   help=f"search all admissible trees (at most {EXHAUSTIVE_MAX_POINTS} points)")
    p.add_argument("--process", choices=_values(ProcessKind), default="bernoulli",
                   help="process for the monte-carlo model")
    p.add_argument("--samples", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    _add_report_flags(p)
    p.set_defaults(handler=cmd_gamma)

    p = sub.add_parser("verify-t2", help="check E sup <= 4 x chain bound on one set")
    p.add_argument("--set", required=True, metavar="PATH")
    p.add_argument("--kind", choices=_values(ProcessKind), default="bernoulli")
    p.add_argument("--exact", action="store_true", help="force the exact supremum route")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    _add_report_flags(p)
    p.set_defaults(handler=cmd_verify_t2)

    p = sub.add_parser("contract", help="coordinatewise maps: fit C and compare suprema")
    p.add_argument("--source", required=True, metavar="PATH")
    p.add_argument("--map", required=True, choices=tuple(_MAP_ARITY))
    p.add_argument("--map-params", type=float, nargs="*", default=[])
    p.add_argument("--p-max", type=int, default=None,
                   help="largest trim count checked (default: the dimension)")
    p.add_argument("--check-at", type=float, default=None, metavar="C",
                   help="also assert the condition at this constant (exit 3 if it fails)")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    _add_report_flags(p)
    p.set_defaults(handler=cmd_contract)

    p = sub.add_parser("decompose", help="best threshold split against the measured supremum")
    p.add_argument("--set", required=True, metavar="PATH")
    p.add_argument("--kind", choices=_values(ProcessKind), default="bernoulli")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-point", action="store_true",
                   help="refine the winning global threshold per point")
    p.add_argument("--k", type=float, default=1.0,
                   help="finite, nonnegative constant used by the moment-order selector (default: 1)")
    _add_report_flags(p)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("oleszkiewicz", help="weak vs strong moment comparison of two systems")
    p.add_argument("--x", required=True, metavar="PATH",
                   help="vector-system file (or a finite-set file; --norm supplies the norm)")
    p.add_argument("--y", required=True, metavar="PATH")
    p.add_argument("--norm", choices=_values(NormKind), default="sup")
    p.add_argument("--extra-functionals", type=int, default=8)
    p.add_argument("--p-max", type=int, default=8)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    _add_report_flags(p)
    p.set_defaults(handler=cmd_oleszkiewicz)

    p = sub.add_parser("suite", help="run the acceptance criteria")
    p.add_argument("--seed", type=int, default=20260815)
    p.add_argument("--only", type=int, nargs="*", default=None, metavar="N",
                   help="criterion numbers to run (default: all)")
    _add_report_flags(p)
    p.set_defaults(handler=cmd_suite)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and execute one invocation; the library's error taxonomy maps to exit 2."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ProcsupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
