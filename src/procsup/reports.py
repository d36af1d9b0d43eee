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

:func:`dump` (behind :func:`dumps` and the set-file writers) walks the
document once and writes it to a text file about 64 KiB at a time, so a
long list, an array or a tree level is never held whole as text: the bytes
are those of stdlib
``json.dumps(doc, indent=2, sort_keys=True) + "\n"`` after the leaf rules of
:func:`_leaf` (numpy scalars made plain, ±inf as ``"inf"``/``"-inf"``,
tuples and arrays as lists).  ``build_report`` does not copy the results;
whatever json cannot write raises ``TypeError`` when the report is written.

A :class:`TreeLevel` is one level of a partition tree given by its arrays;
``PartitionTree.columns()`` puts one per level into a ``gamma`` report.
:func:`dump` writes it in batches of members and :func:`dump_csv` flattens
it straight into rows, with no dict per block; both give what its plain
list of blocks ``[{"members": [...], "rep": r}, ...]`` gives.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterator, Mapping, NamedTuple

import numpy as np

from .core import CONTENT_HASH_RULE, EXACT_ENUMERATION_MAX_DIM, FIT_CAP

SCHEMA = "procsup-report"
SCHEMA_VERSION = 1

#: Constants that shape numeric results; echoed into every report, in sorted key order.
DESIGN_DECISIONS = {
    "content_hash": CONTENT_HASH_RULE,
    "exact_enumeration_max_dim": EXACT_ENUMERATION_MAX_DIM,
    "fit_min_c_cap": FIT_CAP,
    "gaussian_draws": "inverse-cdf on 53-bit uniforms",
    "greedy_tie_break": "lowest-point-index",
    "partition_depth_rule": "least n with 2^(2^n) >= |F|",
    "random_streams": "philox keyed by (seed, purpose-label, content-hash)",
    "trim_budget_rule": "floor(C*p)",
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
    representative.  :func:`dump` writes it with :func:`_write_blocks`.
    """

    order: np.ndarray
    sizes: np.ndarray
    reps: np.ndarray

    def blocks(self) -> Iterator[tuple[list[int], int]]:
        """Each block as its member list and representative."""
        members, ends = self.order.tolist(), np.cumsum(self.sizes).tolist()
        return zip(map(members.__getitem__, map(slice, [0, *ends], ends)), self.reps.tolist())


#: Text gathered before one write to the file (characters; the text is ASCII).
#: Below glibc's default 128 KiB mmap threshold: freed 256 KiB pieces raised the
#: threshold, and the heap then grew unevenly under the next set file's parse
#: (the peak RSS of repeated 20000-point gamma jobs varied by 5 MB).
_BATCH_CHARS = 1 << 16
#: Entries of a list, or coordinates of an array's rows, formatted at once.
_BATCH_ITEMS = 1 << 11


class _Sink:
    """Text pieces written to ``fp`` at most ``_BATCH_CHARS`` at a time, or one longer piece alone."""

    def __init__(self, fp) -> None:
        self.fp, self.parts, self.size = fp, [], 0

    def write(self, text: str) -> None:
        if self.parts and self.size + len(text) > _BATCH_CHARS:
            self.flush()
        self.parts.append(text)
        self.size += len(text)

    def flush(self) -> None:
        self.fp.write("".join(self.parts))
        self.parts.clear()
        self.size = 0


def _write_blocks(level: TreeLevel, pad: str, out: _Sink) -> None:
    """Write the text ``_write`` gives for ``level``'s list of blocks, indented from ``pad``.

    The blocks are written in runs of about ``_BATCH_CHARS`` of text,
    reckoning 8 characters to a number.  In a run each member and
    representative is formatted once, a block of more than one member adds
    one join, and the rest is a single list; a block longer than a run is
    a run of its own, whose members are joined a run's worth at a time.
    """
    n = len(level.sizes)
    if not n:
        out.write("[]")
        return
    i1, i2, i3 = pad + "  ", pad + "    ", pad + "      "
    head = "{\n" + i2 + '"members": [\n' + i3
    sep, rep_key, between = ",\n" + i3, "\n" + i2 + "],\n" + i2 + '"rep": ', "\n" + i1 + "},\n" + i1 + head
    ends = np.cumsum(level.sizes)
    run = max(1, _BATCH_CHARS // (len(sep) + 8))  # members in a run of one block
    text_ends = ends * (len(sep) + 8) + np.arange(1, n + 1) * (len(rep_key) + len(between) + 8)
    out.write("[\n" + i1 + head)
    b0 = 0
    while b0 < n:
        m0, t0 = (int(ends[b0 - 1]), int(text_ends[b0 - 1])) if b0 else (0, 0)
        b1 = max(b0 + 1, int(np.searchsorted(text_ends, t0 + _BATCH_CHARS, side="right")))
        m1 = int(ends[b1 - 1])
        if m1 - m0 > run:  # one long block, its members in runs
            for lo in range(m0, m1, run):
                chunk = level.order[lo : min(lo + run, m1)].tolist()
                out.write((sep if lo > m0 else "") + sep.join(map(int.__repr__, chunk)))
            members = [""]
        else:
            members = list(map(int.__repr__, level.order[m0:m1].tolist()))
            if m1 - m0 > b1 - b0:  # runs of members joined block by block
                cuts = (ends[b0:b1] - m0).tolist()
                members = list(map(sep.join, map(members.__getitem__, map(slice, [0, *cuts], cuts))))
        text = [None, rep_key, None, between] * (b1 - b0)
        text[0::4] = members
        text[2::4] = map(int.__repr__, level.reps[b0:b1].tolist())
        if b1 == n:
            text[-1] = "\n" + i1 + "}"
        out.write("".join(text))
        b0 = b1
    out.write("\n" + pad + "]")


def _scalars_text(items: list, sep: str) -> str | None:
    """``items`` joined by ``sep`` when all are plain ints or all plain floats, else None.

    Finite floats never spell "inf" or "nan", so only a text holding an
    "n" is formatted again by the float rule.
    """
    kinds = set(map(type, items))
    if kinds == {int}:
        return sep.join(map(int.__repr__, items))
    if kinds != {float}:
        return None
    text = sep.join(map(float.__repr__, items))
    return sep.join(map(_float_text, items)) if "n" in text else text


def _write_list(value, pad: str, out: _Sink, sort_keys: bool) -> None:
    """Write a list, tuple or array (of one or more dimensions) as a JSON list, a batch at a time.

    A batch is ``_BATCH_ITEMS`` entries, or for an array of rows whole rows
    of about ``_BATCH_ITEMS`` coordinates, converted by ``tolist()`` one
    batch at a time.  A batch of plain ints or floats, or of rows of them,
    is joined as one text.
    """
    n = len(value)
    if not n:
        out.write("[]")
        return
    inner = pad + "  "
    sep = ",\n" + inner
    row_sep, row_open, row_close = ",\n" + inner + "  ", "[\n" + inner + "  ", "\n" + inner + "]"
    step = _BATCH_ITEMS
    if isinstance(value, np.ndarray) and value.ndim > 1:
        step = max(1, _BATCH_ITEMS // max(1, value[0].size))
    out.write("[\n" + inner)
    for lo in range(0, n, step):
        batch = value[lo : lo + step]
        if isinstance(batch, np.ndarray):
            batch = batch.tolist()
        if lo:
            out.write(sep)
        text = _scalars_text(batch, sep)
        if text is None and set(map(type, batch)) == {list}:
            rows = [_scalars_text(row, row_sep) for row in batch]
            if None not in rows:
                text = sep.join([row_open + row + row_close for row in rows])
        if text is not None:
            out.write(text)
            continue
        for i, v in enumerate(batch):
            if i:
                out.write(sep)
            _write(v, inner, out, sort_keys)
    out.write("\n" + pad + "]")


def _write(value, pad: str, out: _Sink, sort_keys: bool) -> None:
    """Write the JSON text of ``value``, indented from ``pad``, to ``out``."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        out.write(scalar(value))
        return
    if isinstance(value, dict):
        if not value:
            out.write("{}")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        out.write("{\n" + inner)
        for n, (k, v) in enumerate(sorted(value.items()) if sort_keys else value.items()):
            out.write((sep if n else "") + _key_text(k) + ": ")
            _write(v, inner, out, sort_keys)
        out.write("\n" + pad + "}")
    elif isinstance(value, TreeLevel):  # a tuple, written as its list of blocks
        _write_blocks(value, pad, out)
    elif isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim:
        _write_list(value, pad, out, sort_keys)
    elif isinstance(value, np.ndarray):
        raise TypeError("iteration over a 0-d array")
    else:
        leaf = _leaf(value)
        scalar = _SCALAR_TEXT.get(type(leaf))
        # json writes subclasses of the plain types and raises TypeError for the rest
        out.write(scalar(leaf) if scalar is not None else json.dumps(leaf))


def dump(doc, fp, *, sort_keys: bool = True) -> None:
    """Write ``doc`` to the text file ``fp`` as indented JSON, newline-terminated, about 64 KiB at a time.

    The bytes are those of ``json.dumps(doc, indent=2, sort_keys=sort_keys)
    + "\\n"`` after the leaf rules of :func:`_leaf` (tuples and arrays are
    written as lists), with each :class:`TreeLevel` written as its list of
    blocks; anything else json cannot write raises ``TypeError``, with the
    text before it already written.
    """
    out = _Sink(fp)
    _write(doc, "", out, sort_keys)
    out.write("\n")
    out.flush()


def dumps(doc, *, sort_keys: bool = True) -> str:
    """The text :func:`dump` writes, as a string."""
    buf = io.StringIO()
    dump(doc, buf, sort_keys=sort_keys)
    return buf.getvalue()


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


def _flatten(prefix: str, value, row: Callable[[tuple[str, Any]], Any]) -> None:
    if isinstance(value, dict):
        for k in value:
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], row)
    elif isinstance(value, TreeLevel):  # the rows of its list of blocks
        for b, (members, rep) in enumerate(value.blocks()):
            for j, m in enumerate(members):
                row((f"{prefix}[{b}].members[{j}]", m))
            row((f"{prefix}[{b}].rep", rep))
    elif isinstance(value, (list, tuple, np.ndarray)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, row)
    else:
        row((prefix, _leaf(value)))


def dump_csv(doc: Mapping[str, Any], fp) -> None:
    """Write the report to the text file ``fp`` as key,value rows (stable order) for plotting tools.

    Each row goes to a ``csv.writer`` on ``fp`` as it is flattened.
    """
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["key", "value"])
    _flatten("", dict(doc), writer.writerow)


def to_csv(doc: Mapping[str, Any]) -> str:
    """The text :func:`dump_csv` writes, as a string."""
    buf = io.StringIO()
    dump_csv(doc, buf)
    return buf.getvalue()
