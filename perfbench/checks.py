"""Correctness gate for one verb invocation's report.

A verb invocation fails when its exit code is not 0, its report lacks the
verb's result fields, any ``violation`` is true or ``sandwich.violations``
is positive, or a ``value`` is not finite.  Two verbs carry stronger checks:
a ``contract`` with ``--map scale s`` (s >= 1) must fit ``c_star`` within
1e-4 of s, and a ``gamma`` report's tree must rebuild through
``tree_from_dict`` with ``value == max(per_point)``.
"""

from __future__ import annotations

import json
import math

from procsup.chaining import tree_from_dict
from procsup.errors import ValidationError

RESULT_FIELDS = {
    "sup": ("value", "stderr", "method", "samples"),
    "verify-t2": ("lhs", "rhs", "ratio", "violation"),
    "moments": ("rows", "sandwich"),
    "gamma": ("value", "per_point", "tree"),
    "contract": ("fit", "suprema"),
    "decompose": ("decomposition", "two_sided"),
    "oleszkiewicz": ("weak", "contraction", "strong", "strong_over_weak"),
}

SCALE_FIT_TOLERANCE = 1e-4


def _walk(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield f"{path}.{key}" if path else key, key, value
            yield from _walk(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _walk(value, f"{path}[{i}]")


def check_report(argv: tuple[str, ...], code: int, text: bytes) -> list[str]:
    """Every reason the invocation ``argv`` failed; empty when it passed."""
    verb = argv[0]
    if code != 0:
        return [f"{verb}: exit code {code}"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"{verb}: report is not JSON ({exc.msg})"]
    results = doc.get("results") if isinstance(doc, dict) else None
    if not isinstance(results, dict) or doc.get("command") != verb:
        return [f"{verb}: report has no results for this verb"]
    problems = [f"{verb}: results lack {key!r}" for key in RESULT_FIELDS[verb] if key not in results]
    for path, key, value in _walk(results):
        if key == "violation" and value is True:
            problems.append(f"{verb}: {path} is true")
        if key == "value" and not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{verb}: {path} = {value!r} is not finite")
    sandwich = results.get("sandwich")
    if isinstance(sandwich, dict) and sandwich.get("violations", 0) > 0:
        problems.append(f"{verb}: sandwich.violations = {sandwich['violations']}")
    if problems:
        return problems
    if verb == "contract":
        problems += _check_scale_fit(argv, results)
    if verb == "gamma":
        problems += _check_tree(results)
    return problems


def _check_scale_fit(argv: tuple[str, ...], results: dict) -> list[str]:
    if argv[argv.index("--map") + 1] != "scale":
        return []
    factor = float(argv[argv.index("--map-params") + 1])
    c_star = results["fit"].get("c_star")
    if abs(factor) < 1.0:
        return []
    if not isinstance(c_star, float) or abs(c_star - abs(factor)) > SCALE_FIT_TOLERANCE:
        return [f"contract: c_star = {c_star!r}, expected {abs(factor)} within {SCALE_FIT_TOLERANCE}"]
    return []


def _check_tree(results: dict) -> list[str]:
    try:
        tree = tree_from_dict(results["tree"])
    except ValidationError as exc:
        return [f"gamma: tree does not validate ({exc})"]
    per_point = results["per_point"]
    if tree.n_points != len(per_point):
        return [f"gamma: tree covers {tree.n_points} points, per_point has {len(per_point)}"]
    if results["value"] != max(per_point):
        return [f"gamma: value {results['value']!r} != max(per_point) {max(per_point)!r}"]
    return []
