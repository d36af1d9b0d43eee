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

:func:`to_json` (and the set-file writers, through :func:`dumps`) walks the
document once and writes it: the bytes are those of stdlib
``json.dumps(doc, indent=2, sort_keys=True) + "\n"`` after the leaf rules of
:func:`_leaf` (numpy scalars made plain, ±inf as ``"inf"``/``"-inf"``,
tuples and arrays as lists).  ``build_report`` does not copy the results;
whatever json cannot write raises ``TypeError`` when the report is written.

A :class:`Columnar` value (the partition tree of a ``gamma`` report) is
written from its columns: ``columns()`` gives its document with each list
of blocks as a :class:`BlockColumns` (a flat members array, block sizes and
representatives), and that level is written in one pass over its arrays,
with no dict per block.  The bytes are those of its ``to_dict()``, which is
also what :func:`to_csv` flattens.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping

import numpy as np

from .core import CONTENT_HASH_RULE, EXACT_ENUMERATION_MAX_DIM

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
            out["extras"] = self.extras
        return out


def _encode_float(x: float) -> float | str:
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


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
        return _encode_float(float(value))
    return value


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


@dataclass(frozen=True, eq=False)
class BlockColumns:
    """A list of blocks ``{"members": [...], "rep": r}`` given column by column.

    ``members`` holds every block's members end to end and ``sizes`` each
    block's count (at least 1), so the members column is ragged; ``rep`` is
    each block's representative.  All three are int arrays.  It stands in a
    :meth:`Columnar.columns` document, where :func:`dumps` writes it with
    :func:`_write_blocks`.
    """

    members: np.ndarray
    sizes: np.ndarray
    rep: np.ndarray


class Columnar:
    """A value that reports write from its columns.

    :func:`dumps` writes ``columns()``, a document whose block lists may be
    :class:`BlockColumns`; :func:`to_csv` flattens ``to_dict()``, the same
    document in plain values, block lists as lists of dicts.
    """

    __slots__ = ()

    def columns(self) -> Any:
        raise NotImplementedError

    def to_dict(self) -> Any:
        raise NotImplementedError


def _write_blocks(level: BlockColumns, pad: str, out: list[str]) -> None:
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
    members = list(map(int.__repr__, level.members.tolist()))
    if len(members) > n:  # runs of members joined block by block
        ends = np.cumsum(level.sizes).tolist()
        members = list(map((",\n" + i3).join, map(members.__getitem__, map(slice, [0, *ends], ends))))
    text = [None, "\n" + i2 + "],\n" + i2 + '"rep": ', None, "\n" + i1 + "},\n" + i1 + head] * n
    text[0::4] = members
    text[2::4] = map(int.__repr__, level.rep.tolist())
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
    elif not isinstance(value, (list, tuple)):
        if isinstance(value, BlockColumns):
            _write_blocks(value, pad, out)
            return
        if isinstance(value, Columnar):
            _write(value.columns(), pad, out, sort_keys)
            return
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
    written as lists), with each :class:`Columnar` value replaced by its
    ``to_dict()``; anything else json cannot write raises ``TypeError``.
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
    elif isinstance(value, (list, tuple, np.ndarray)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    elif isinstance(value, Columnar):
        _flatten(prefix, value.to_dict(), rows)
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
