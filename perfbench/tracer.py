"""In-memory span tracer installed around procsup's layer boundaries.

The tracer lives entirely in the benchmark: it wraps functions of the
``procsup`` modules from outside, patching every ``procsup.*`` module that
holds a reference to the wrapped function (``cli``, ``chaining``,
``contraction`` and ``decomposition`` import names directly), and methods on
their classes.  Each call records one span (name, start, end, parent) plus
an optional integer amount of work computed from the call's arguments or
result, so counts repeat exactly for identical inputs.  Spans are kept in
flat arrays and summarised into per-layer metrics at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``work`` maps the bound call arguments and the result to an integer
    amount of work; ``peak`` maps them to a value whose maximum is kept.
    """

    span: str
    module: str
    qualname: str
    work: Callable | None = None
    peak: tuple[str, Callable] | None = None


def _size(args, result) -> int:
    return int(result.size)


def _enum_patterns(args, result) -> int:
    return 1 << args["ts"].dim


def _mc_samples(args, result) -> int:
    return int(args["samples"])


def _mc_block_bytes(args, result) -> int:
    from procsup import suprema

    chunk = getattr(suprema, "_CHUNK", args["samples"])
    return min(chunk, args["samples"]) * len(args["ts"]) * 8


def _tree_blocks(args, result) -> int:
    return sum(len(level) for level in result.levels)


def _chain_steps(args, result) -> int:
    return sum(len(level) for level in args["tree"].levels[1:])


def _pair_checks(args, result) -> int:
    return len(args["self"].pairs) * (args["p_max"] + 1)


def _exact_strong_terms(args, result) -> int:
    terms = args["system"].terms
    return (1 << terms) * terms


def _mc_strong_terms(args, result) -> int:
    return args["samples"] * args["system"].terms


def _text_bytes(args, result) -> int:
    return len(result.encode())


TARGETS: tuple[Target, ...] = (
    Target("cli.run", "procsup.cli", "run"),
    Target("core.load_set", "procsup.core", "load_set"),
    Target("core.point_init", "procsup.core", "Point.__post_init__"),
    Target("core.finite_set_init", "procsup.core", "FiniteSet.__post_init__"),
    Target("rng.uniform_open", "procsup.rng", "uniform_open", work=_size),
    Target("rng.standard_normal", "procsup.rng", "standard_normal", work=_size),
    Target("rng.rademacher", "procsup.rng", "rademacher", work=_size),
    Target("moments.exact", "procsup.moments", "bernoulli_norm_exact"),
    Target("moments.signed_sums", "procsup.moments", "_signed_sums", work=_size),
    Target("moments.proxy", "procsup.moments", "bernoulli_norm_proxy"),
    Target("moments.mc_norm", "procsup.moments", "mc_norm"),
    Target("moments.gaussian", "procsup.moments", "gaussian_norm_exact"),
    Target("moments.model_norm", "procsup.moments", "MomentModel.norm"),
    Target("suprema.enum", "procsup.suprema", "brute_force_bernoulli_sup", work=_enum_patterns),
    Target("suprema.mc", "procsup.suprema", "mc_sup", work=_mc_samples,
           peak=("suprema.mc_block_bytes", _mc_block_bytes)),
    Target("chaining.build", "procsup.chaining", "build_partition_greedy", work=_tree_blocks),
    Target("chaining.alloc", "procsup.chaining", "_allocate_children"),
    Target("chaining.split", "procsup.chaining", "_split_farthest_point"),
    Target("chaining.validate", "procsup.chaining", "PartitionTree.validate"),
    Target("chaining.bound", "procsup.chaining", "chain_bound", work=_chain_steps),
    Target("chaining.verify", "procsup.chaining", "verify_sup_bound"),
    Target("contraction.apply_map", "procsup.contraction", "apply_map"),
    Target("contraction.fit", "procsup.contraction", "fit_min_C"),
    Target("contraction.evaluate", "procsup.contraction", "_PairTable.evaluate", work=_pair_checks),
    Target("contraction.compare", "procsup.contraction", "compare_suprema"),
    Target("decomposition.decompose", "procsup.decomposition", "decompose_by_sweep"),
    Target("decomposition.sweep", "procsup.decomposition", "sweep_objectives", work=lambda a, r: len(r)),
    Target("decomposition.objective", "procsup.decomposition", "_objective"),
    Target("decomposition.split", "procsup.decomposition", "threshold_split"),
    Target("decomposition.two_sided", "procsup.decomposition", "verify_two_sided"),
    Target("oleszkiewicz.functionals", "procsup.oleszkiewicz", "generate_functionals"),
    Target("oleszkiewicz.weak", "procsup.oleszkiewicz", "weak_moment_constant"),
    Target("oleszkiewicz.coefficient_norm", "procsup.oleszkiewicz", "_coefficient_norm"),
    Target("oleszkiewicz.weak_contraction", "procsup.oleszkiewicz", "check_weak_contraction"),
    Target("oleszkiewicz.strong", "procsup.oleszkiewicz", "strong_moment_ratio"),
    Target("oleszkiewicz.exact_strong", "procsup.oleszkiewicz", "_exact_strong_moment",
           work=_exact_strong_terms),
    Target("oleszkiewicz.mc_strong", "procsup.oleszkiewicz", "_mc_strong_moment",
           work=_mc_strong_terms),
    Target("reports.build", "procsup.reports", "build_report"),
    Target("reports.to_json", "procsup.reports", "to_json", work=_text_bytes),
)


class Tracer:
    """Records spans while ``active``; wrappers pass calls straight through otherwise."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.peaks: dict[str, int] = {}
        self.missing: list[str] = []
        self.active = False
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        nid = self._intern(target.span)
        signature = inspect.signature(fn) if target.work or target.peak else None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.work.append(0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if target.work:
                    self.work[idx] = target.work(bound.arguments, result)
                if target.peak:
                    name, measure = target.peak
                    self.peaks[name] = max(self.peaks.get(name, 0), measure(bound.arguments, result))
            return result

        return wrapper

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        """Wrap every target; names absent from the program are listed in ``missing``."""
        for target in targets:
            owner: object = importlib.import_module(target.module)
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.missing.append(target.span)
                continue
            wrapper = self._wrap(target, original)
            if path:  # a method: patch the class that defines it
                self._patch(owner, attr, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if name != "procsup" and not name.startswith("procsup."):
                    continue
                for ref, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, ref, wrapper)

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, with derived duration and self time."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "name_id": name_id,
            "parent": parent,
            "start": np.frombuffer(self.start, dtype=np.float64),
            "duration": dur,
            "self_time": dur - covered[: dur.size],
            "work": np.frombuffer(self.work, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write every span (and the name table) to one ``.npz`` file."""
        np.savez(path, names=np.asarray(self.names), **self.spans())


class LayerView:
    """Per-name selections over a tracer's spans, for metric derivation."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.s = tracer.spans()
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        parent = self.s["parent"]
        parent_name = np.full(parent.size, -1, dtype=np.int32)
        parent_name[parent >= 0] = self.s["name_id"][parent[parent >= 0]]
        self.parent_name = parent_name

    def mask(self, span: str, parent: str | None = None) -> np.ndarray:
        nid = self._ids.get(span, -2)
        sel = self.s["name_id"] == nid
        if parent is not None:
            sel &= self.parent_name == self._ids.get(parent, -2)
        return sel

    def outermost(self, prefix: str) -> np.ndarray:
        """Spans named ``prefix...`` whose parent is not one of them."""
        ids = [i for name, i in self._ids.items() if name.startswith(prefix)]
        return np.isin(self.s["name_id"], ids) & ~np.isin(self.parent_name, ids)

    def calls(self, span: str, parent: str | None = None) -> int:
        return int(self.mask(span, parent).sum())

    def seconds(self, span: str) -> float:
        return float(self.s["duration"][self.mask(span)].sum())

    def self_seconds(self, span: str) -> float:
        return float(self.s["self_time"][self.mask(span)].sum())

    def work(self, *spans: str) -> int:
        return int(sum(self.s["work"][self.mask(s)].sum() for s in spans))


def _reuse(view: LayerView) -> float:
    steps = view.work("chaining.bound")
    evals = view.calls("moments.model_norm", parent="chaining.bound")
    return 1.0 - evals / steps if steps else 0.0


#: Per-layer metrics: name -> (unit, function of a LayerView).
LAYER_METRICS: dict[str, tuple[str, Callable[[LayerView], float]]] = {
    "cli.self_s": ("s", lambda v: v.self_seconds("cli.run")),
    "core.load_set_s": ("s", lambda v: v.seconds("core.load_set")),
    "core.point_inits": ("count", lambda v: v.calls("core.point_init")),
    "core.point_init_s": ("s", lambda v: v.seconds("core.point_init")),
    "core.finite_set_inits": ("count", lambda v: v.calls("core.finite_set_init")),
    # Outermost draws only: standard_normal calls uniform_open.
    "rng.variates": ("count", lambda v: int(v.s["work"][v.outermost("rng.")].sum())),
    "rng.draw_s": ("s", lambda v: float(v.s["duration"][v.outermost("rng.")].sum())),
    "moments.exact_calls": ("count", lambda v: v.calls("moments.exact")),
    "moments.exact_patterns": ("count", lambda v: v.work("moments.signed_sums")),
    "moments.exact_s": ("s", lambda v: v.seconds("moments.exact")),
    "moments.proxy_calls": ("count", lambda v: v.calls("moments.proxy")),
    "moments.proxy_s": ("s", lambda v: v.seconds("moments.proxy")),
    "moments.mc_norm_calls": ("count", lambda v: v.calls("moments.mc_norm")),
    "moments.mc_norm_s": ("s", lambda v: v.seconds("moments.mc_norm")),
    "moments.gaussian_calls": ("count", lambda v: v.calls("moments.gaussian")),
    "moments.gaussian_s": ("s", lambda v: v.seconds("moments.gaussian")),
    "suprema.enum_calls": ("count", lambda v: v.calls("suprema.enum")),
    "suprema.enum_patterns": ("count", lambda v: v.work("suprema.enum")),
    "suprema.enum_s": ("s", lambda v: v.seconds("suprema.enum")),
    "suprema.mc_calls": ("count", lambda v: v.calls("suprema.mc")),
    "suprema.mc_samples": ("count", lambda v: v.work("suprema.mc")),
    "suprema.mc_s": ("s", lambda v: v.seconds("suprema.mc")),
    "suprema.mc_block_bytes": ("bytes", lambda v: v.tracer.peaks.get("suprema.mc_block_bytes", 0)),
    "chaining.build_calls": ("count", lambda v: v.calls("chaining.build")),
    "chaining.build_s": ("s", lambda v: v.seconds("chaining.build")),
    "chaining.alloc_s": ("s", lambda v: v.seconds("chaining.alloc")),
    "chaining.split_s": ("s", lambda v: v.seconds("chaining.split")),
    "chaining.validate_s": ("s", lambda v: v.seconds("chaining.validate")),
    "chaining.tree_blocks": ("count", lambda v: v.work("chaining.build")),
    "chaining.bound_calls": ("count", lambda v: v.calls("chaining.bound")),
    "chaining.bound_s": ("s", lambda v: v.self_seconds("chaining.bound")),
    "chaining.norm_evals": ("count", lambda v: v.calls("moments.model_norm", parent="chaining.bound")),
    "chaining.chain_steps": ("count", lambda v: v.work("chaining.bound")),
    "chaining.norm_reuse_ratio": ("ratio", _reuse),
    "contraction.apply_map_s": ("s", lambda v: v.seconds("contraction.apply_map")),
    "contraction.fit_s": ("s", lambda v: v.seconds("contraction.fit")),
    "contraction.evaluations": ("count", lambda v: v.calls("contraction.evaluate")),
    "contraction.evaluate_s": ("s", lambda v: v.seconds("contraction.evaluate")),
    "contraction.pair_checks": ("count", lambda v: v.work("contraction.evaluate")),
    "contraction.compare_s": ("s", lambda v: v.seconds("contraction.compare")),
    "decomposition.sweep_s": ("s", lambda v: v.seconds("decomposition.sweep")),
    "decomposition.candidates": ("count", lambda v: v.work("decomposition.sweep")),
    "decomposition.objective_evals": ("count", lambda v: v.calls("decomposition.objective")),
    "decomposition.split_calls": ("count", lambda v: v.calls("decomposition.split")),
    "decomposition.split_s": ("s", lambda v: v.seconds("decomposition.split")),
    "oleszkiewicz.weak_s": ("s", lambda v: v.seconds("oleszkiewicz.weak")),
    "oleszkiewicz.coefficient_norms": ("count", lambda v: v.calls("oleszkiewicz.coefficient_norm")),
    "oleszkiewicz.weak_contraction_s": ("s", lambda v: v.seconds("oleszkiewicz.weak_contraction")),
    "oleszkiewicz.strong_s": ("s", lambda v: v.seconds("oleszkiewicz.strong")),
    "oleszkiewicz.strong_terms": (
        "count", lambda v: v.work("oleszkiewicz.exact_strong", "oleszkiewicz.mc_strong")),
    "reports.build_s": ("s", lambda v: v.seconds("reports.build")),
    "reports.serialize_s": ("s", lambda v: v.seconds("reports.to_json")),
    "reports.bytes": ("bytes", lambda v: v.work("reports.to_json")),
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    view = LayerView(tracer)
    return {name: (fn(view), unit) for name, (unit, fn) in LAYER_METRICS.items()}
