"""Serializable outcome records and report assembly.

Every CLI run emits one JSON document built by :func:`build_report`.  The
document carries the full configuration, content hashes of the inputs and
the package-wide design constants in force, so a report is reproducible
from its own header.  Nothing time- or host-dependent is included unless
explicitly requested, which keeps repeated runs byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .core import EXACT_ENUMERATION_MAX_DIM

SCHEMA = "procsup-report"
SCHEMA_VERSION = 1

#: Constants that shape numeric results; echoed into every report.
DESIGN_DECISIONS = {
    "trim_budget_rule": "floor(C*p)",
    "exact_enumeration_max_dim": EXACT_ENUMERATION_MAX_DIM,
    "fit_min_c_cap": 1024.0,
    "greedy_tie_break": "lowest-point-index",
    "partition_depth_rule": "least n with 2^(2^n) >= |F|",
    "random_streams": "philox keyed by (seed, purpose-label, content-hash)",
    "gaussian_draws": "inverse-cdf on 53-bit uniforms",
}


def safe_ratio(num: float, den: float) -> float:
    """num/den with the conventions 0/0 = 0 and x/0 = inf for x > 0."""
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


@dataclass(frozen=True)
class ComparisonReport:
    """Two quantities side by side, their ratio, and an optional verdict.

    ``violation`` is None for report-only comparisons and a boolean when the
    comparison checks a stated inequality (then ``bound_factor`` is the
    constant on the right-hand side).
    """

    quantity: str
    lhs_label: str
    rhs_label: str
    lhs: float
    rhs: float
    ratio: float
    lhs_stderr: float = 0.0
    rhs_stderr: float = 0.0
    bound_factor: float | None = None
    violation: bool | None = None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "quantity": self.quantity,
            "lhs_label": self.lhs_label,
            "rhs_label": self.rhs_label,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": _encode_float(self.ratio),
            "lhs_stderr": self.lhs_stderr,
            "rhs_stderr": self.rhs_stderr,
        }
        if self.bound_factor is not None:
            out["bound_factor"] = self.bound_factor
        if self.violation is not None:
            out["violation"] = self.violation
        if self.extras:
            out["extras"] = _encode(self.extras)
        return out


def _encode_float(x: float) -> float | str:
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _encode(value):
    # Numpy scalars leak into results easily; np.bool_ in particular is not
    # a bool subclass and would break json.dumps.
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _encode_float(float(value))
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_encode(v) for v in value]
    return value


def build_report(
    command: str,
    config: Mapping[str, Any],
    inputs: Mapping[str, str],
    results: Any,
    *,
    stamp: str | None = None,
) -> dict:
    """Assemble the self-describing report document for one CLI run.

    ``inputs`` maps a role name (e.g. "set") to the content hash of the
    artifact that filled it.  ``stamp`` is only set when the caller asked
    for a timestamp; by default reports are byte-stable across runs.
    """
    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": _encode(dict(config)),
        "inputs": dict(inputs),
        "design_decisions": dict(DESIGN_DECISIONS),
        "results": _encode(results),
    }
    if stamp is not None:
        doc["stamp"] = stamp
    return doc


def to_json(doc: Mapping[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _flatten(prefix: str, value, rows: list[tuple[str, Any]]) -> None:
    if isinstance(value, dict):
        for k in sorted(value) if prefix.startswith("design_decisions") else value:
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, value))


def to_csv(doc: Mapping[str, Any]) -> str:
    """Flatten the report into key,value rows (stable order) for plotting tools."""
    rows: list[tuple[str, Any]] = []
    _flatten("", dict(doc), rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    return buf.getvalue()
