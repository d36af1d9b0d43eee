"""The earlier report, set-file and loader routes, kept as test references.

Reports were written by deep-copying the document through ``encode`` and
then calling ``json.dumps(indent=2, sort_keys=True)``; CSV flattened that
same copy; a partition tree's level, given by its arrays, was its list of
block dicts; set files were ``json.dumps(doc, indent=2)``; and the loader
checked rows one at a time before building the matrix row by row.
``procsup.reports.dumps``, ``to_csv``, ``core.save_set`` and
``core.read_points_file`` must give the same bytes and the same errors.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

from procsup.core import FILE_VERSION, _ROWS_KEY
from procsup.errors import ParseError, ValidationError
from procsup.reports import TreeLevel


def _encode_float(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def encode(value):
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _encode_float(float(value))
    if isinstance(value, TreeLevel):
        members, sizes, reps = (a.tolist() for a in value)
        ends = list(itertools.accumulate(sizes))
        return [{"members": members[end - size : end], "rep": rep} for end, size, rep in zip(ends, sizes, reps)]
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [encode(v) for v in value]
    return value


def report_json(doc) -> str:
    return json.dumps(encode(doc), indent=2, sort_keys=True) + "\n"


def set_file_json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _flatten(prefix, value, rows):
    if isinstance(value, dict):
        for k in sorted(value) if prefix.startswith("design_decisions") else value:
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, value))


def report_csv(doc) -> str:
    rows = []
    _flatten("", encode(dict(doc)), rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    return buf.getvalue()


def _point_matrix(rows, owner, noun="point"):
    if not isinstance(rows, np.ndarray):
        arrays = []
        for i, row in enumerate(rows):
            try:
                arrays.append(np.asarray(row, dtype=np.float64))
            except OverflowError as exc:
                raise ValidationError(f"{owner}: {noun} {i}: {exc}") from None
        if len({a.shape for a in arrays}) > 1:
            raise ValidationError(f"{owner} mixes dimensions {sorted({a.size for a in arrays})}")
        rows = arrays
    m = np.array(rows, dtype=np.float64)
    if m.ndim and not m.shape[0]:
        raise ValidationError(f"{owner} has no {noun}s")
    if m.ndim != 2 or not m.shape[1]:
        raise ValidationError(f"{owner}: {noun}s must be rows of one or more coordinates")
    bad = ~np.isfinite(m)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValidationError(f"{owner}: {noun} {i}: coordinate {j} is not finite: {m[i, j]}")
    m.setflags(write=False)
    return m


def read_points_file(path, formats):
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ParseError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt not in formats:
        raise ParseError(f"{path}: not a {' or '.join(formats)} file")
    if doc.get("version") != FILE_VERSION:
        raise ParseError(f"{path}: unsupported version {doc.get('version')!r}")
    key = _ROWS_KEY[fmt]
    noun = key[:-1]
    dim = doc.get("dim")
    rows = doc.get(key)
    if type(dim) is not int or dim < 1 or not isinstance(rows, list):
        raise ParseError(f"{path}: missing or malformed 'dim'/'{key}'")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ValidationError(f"{path}: {noun} {i} does not have {dim} coordinates")
        if any(type(x) not in (int, float) for x in row):
            raise ValidationError(f"{path}: {noun} {i} has a coordinate that is not a number")
    name = str(doc.get("name") or path.stem)
    return doc, name, _point_matrix(rows, str(path), noun)
