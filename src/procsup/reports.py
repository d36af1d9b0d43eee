"""Serializable outcome records and report assembly.

Every CLI run emits one JSON document built by :func:`build_report`.  The
document carries the full configuration, content hashes of the inputs and
the package-wide design constants in force, so a report is reproducible
from its own header.  An input's hash is :func:`~procsup.core.content_digest`
of its fields: SHA-256 over each field in name order, a scalar as the JSON
line ``[name, value]`` and a matrix as the JSON line ``[name, "<f8", shape]``
followed by its C-order little-endian float64 bytes; the rule is echoed as
``design_decisions.content_hash``.  Nothing time- or host-dependent is included unless
explicitly requested, which keeps repeated runs byte-identical.

Result records serialise by :func:`record`, one rule for every verb's
sections: fields in declaration order, None and ``{}`` omitted, enums as
their values, tuples as lists and every other value by :func:`_leaf`.

:func:`to_json` (and the set-file writers, through :func:`dumps`) walks the
document once and writes it: the bytes are those of stdlib
``json.dumps(doc, indent=2, sort_keys=True) + "\n"`` after the leaf rules of
:func:`_leaf` (numpy scalars made plain, ±inf as ``"inf"``/``"-inf"``,
tuples and arrays as lists).  ``build_report`` does not copy the results;
whatever json cannot write raises ``TypeError`` when the report is written.

A :class:`TreeLevel` is one level of a partition tree given by its arrays;
``PartitionTree.columns()`` puts one per level into a ``gamma`` report.
:func:`dumps` writes it in one pass over the arrays and :func:`to_csv`
flattens it straight into rows, with no dict per block; both give what its
plain list of blocks ``[{"members": [...], "rep": r}, ...]`` gives.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator, Mapping, NamedTuple

import numpy as np

from .core import CONTENT_HASH_RULE, EXACT_ENUMERATION_MAX_DIM, FIT_CAP

SCHEMA = "procsup-report"
SCHEMA_VERSION = 1

#: Constants that shape numeric results; echoed into every report.
DESIGN_DECISIONS = {
    "trim_budget_rule": "floor(C*p)",
    "exact_enumeration_max_dim": EXACT_ENUMERATION_MAX_DIM,
    "fit_min_c_cap": FIT_CAP,
    "greedy_tie_break": "lowest-point-index",
    "partition_depth_rule": "least n with 2^(2^n) >= |F|",
    "random_streams": "philox keyed by (seed, purpose-label, content-hash)",
    "gaussian_draws": "inverse-cdf on 53-bit uniforms",
    "content_hash": CONTENT_HASH_RULE,
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


def _leaf(value):
    """A scalar as reports write it; containers and other objects come back unchanged.

    Numpy scalars leak into results easily (``np.bool_`` in particular is
    not a bool subclass): they become plain bools, ints and floats.  Every
    float goes through ``float()``, and ±inf becomes ``"inf"``/``"-inf"``;
    NaN stays NaN.
    """
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return ("inf" if value > 0 else "-inf") if math.isinf(value) else value
    return value


def record(obj, **overrides) -> dict:
    """The result dataclass ``obj`` as a report section.

    Fields come in declaration order, each replaced by its entry in
    ``overrides`` if it has one.  A field whose value is None or ``{}`` is
    left out, so an override of None drops it.  An enum gives its value, a
    tuple a list, and every other value goes through :func:`_leaf`.
    """
    out: dict[str, Any] = {}
    for f in fields(obj):
        value = overrides.get(f.name, getattr(obj, f.name))
        if value is None or (isinstance(value, dict) and not value):
            continue
        if isinstance(value, Enum):
            value = value.value
        out[f.name] = list(value) if isinstance(value, tuple) else _leaf(value)
    return out


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return float.__repr__(x)


#: JSON text of the plain scalar types, keyed by exact type.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _key_text(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):  # bool is an int
        return '"' + json.dumps(key) + '"'  # json's key rules: no leaf rules, inf is "Infinity"
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


class TreeLevel(NamedTuple):
    """One level of a partition tree: a list of blocks ``{"members": [...], "rep": r}`` given by int arrays.

    ``order`` holds every block's members end to end, each block ascending,
    ``sizes`` each block's count (at least 1) and ``reps`` each block's
    representative.  :func:`dumps` writes it with :func:`_write_blocks`.
    """

    order: np.ndarray
    sizes: np.ndarray
    reps: np.ndarray

    def blocks(self) -> Iterator[tuple[list[int], int]]:
        """Each block as its member list and representative."""
        members, ends = self.order.tolist(), np.cumsum(self.sizes).tolist()
        return zip(map(members.__getitem__, map(slice, [0, *ends], ends)), self.reps.tolist())


def _write_blocks(level: TreeLevel, pad: str, out: list[str]) -> None:
    """Append the text ``_write`` gives for ``level``'s list of blocks, indented from ``pad``.

    Each member and representative is written once; a block of more than
    one member adds one join, and the rest is a single list over the level.
    """
    n = len(level.sizes)
    if not n:
        out.append("[]")
        return
    i1, i2, i3 = pad + "  ", pad + "    ", pad + "      "
    head = "{\n" + i2 + '"members": [\n' + i3
    members = list(map(int.__repr__, level.order.tolist()))
    if len(members) > n:  # runs of members joined block by block
        ends = np.cumsum(level.sizes).tolist()
        members = list(map((",\n" + i3).join, map(members.__getitem__, map(slice, [0, *ends], ends))))
    text = [None, "\n" + i2 + "],\n" + i2 + '"rep": ', None, "\n" + i1 + "},\n" + i1 + head] * n
    text[0::4] = members
    text[2::4] = map(int.__repr__, level.reps.tolist())
    text[-1] = "\n" + i1 + "}"
    out.append("[\n" + i1 + head)
    out.extend(text)
    out.append("\n" + pad + "]")


def _write(value, pad: str, out: list[str], sort_keys: bool) -> None:
    """Append the JSON text of ``value``, indented from ``pad``, to ``out``."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
        return
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n" + inner)
        for n, (k, v) in enumerate(sorted(value.items()) if sort_keys else value.items()):
            out.append((sep if n else "") + _key_text(k) + ": ")
            _write(v, inner, out, sort_keys)
        out.append("\n" + pad + "}")
        return
    if isinstance(value, np.ndarray):
        if not value.ndim:
            raise TypeError("iteration over a 0-d array")
        value = value.tolist()
    elif isinstance(value, TreeLevel):  # a tuple, written as its list of blocks
        _write_blocks(value, pad, out)
        return
    elif not isinstance(value, (list, tuple)):
        leaf = _leaf(value)
        scalar = _SCALAR_TEXT.get(type(leaf))
        # json writes subclasses of the plain types and raises TypeError for the rest
        out.append(scalar(leaf) if scalar is not None else json.dumps(leaf))
        return
    if not value:
        out.append("[]")
        return
    kinds = set(map(type, value))
    if kinds == {int} or kinds == {float}:
        text = sep.join(map(int.__repr__ if int in kinds else float.__repr__, value))
        if "n" not in text:  # finite floats never spell "inf" or "nan"
            out.append("[\n" + inner + text + "\n" + pad + "]")
            return
    out.append("[\n" + inner)
    for n, v in enumerate(value):
        if n:
            out.append(sep)
        _write(v, inner, out, sort_keys)
    out.append("\n" + pad + "]")


def dumps(doc, *, sort_keys: bool = True) -> str:
    """``doc`` as indented JSON text, newline-terminated, in one pass.

    The bytes are those of ``json.dumps(doc, indent=2, sort_keys=sort_keys)
    + "\\n"`` after the leaf rules of :func:`_leaf` (tuples and arrays are
    written as lists), with each :class:`TreeLevel` written as its list of
    blocks; anything else json cannot write raises ``TypeError``.
    """
    out: list[str] = []
    _write(doc, "", out, sort_keys)
    out.append("\n")
    return "".join(out)


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
        "config": dict(config),
        "inputs": dict(inputs),
        "design_decisions": dict(DESIGN_DECISIONS),
        "results": results,
    }
    if stamp is not None:
        doc["stamp"] = stamp
    return doc


def to_json(doc: Mapping[str, Any]) -> str:
    return dumps(doc)


def _flatten(prefix: str, value, rows: list[tuple[str, Any]]) -> None:
    if isinstance(value, dict):
        for k in sorted(value) if prefix.startswith("design_decisions") else value:
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, TreeLevel):  # the rows of its list of blocks
        for b, (members, rep) in enumerate(value.blocks()):
            rows.extend((f"{prefix}[{b}].members[{j}]", m) for j, m in enumerate(members))
            rows.append((f"{prefix}[{b}].rep", rep))
    elif isinstance(value, (list, tuple, np.ndarray)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, _leaf(value)))


def to_csv(doc: Mapping[str, Any]) -> str:
    """Flatten the report into key,value rows (stable order) for plotting tools."""
    rows: list[tuple[str, Any]] = []
    _flatten("", dict(doc), rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    return buf.getvalue()
