"""Domain types: finite index sets, process kinds, seeds, generators, files.

A canonical process over a finite index set ``T ⊂ R^d`` attaches to each
point ``t`` the random variable ``X_t = sum_i t_i xi_i`` where the ``xi_i``
are i.i.d. signs (Bernoulli case) or standard normals (Gaussian case).
Everything else in the package consumes the :class:`FiniteSet` defined here.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import CapacityError, ParameterError, ParseError, ProcsupError, ValidationError
from . import rng

#: Largest coordinate dimension for which exact sign enumeration (2^d terms)
#: is allowed.  Shared by the exact Bernoulli moment and supremum oracles.
EXACT_ENUMERATION_MAX_DIM = 20

#: Most coordinates (count x dim) :func:`generate_set` draws: 32 MiB of float64.
GENERATE_MAX_COORDINATES = 2**22

SET_FORMAT = "finite-set"
SYSTEM_FORMAT = "vector-system"
FILE_VERSION = 1
#: The key that holds each file format's rows.
_ROWS_KEY = {SET_FORMAT: "points", SYSTEM_FORMAT: "vectors"}


class ProcessKind(enum.Enum):
    BERNOULLI = "bernoulli"
    GAUSSIAN = "gaussian"


class SetKind(enum.Enum):
    RANDOM_SPHERE = "random_sphere"
    SIMPLEX_VERTICES = "simplex_vertices"
    ELLIPSOID_SAMPLE = "ellipsoid_sample"
    CUBE_VERTICES = "cube_vertices"
    DISJOINT_BLOCKS = "disjoint_blocks"


@dataclass(frozen=True)
class Seed:
    """A 64-bit seed; all randomness in the package is keyed off one of these."""

    value: int

    def __post_init__(self) -> None:
        if not isinstance(self.value, int) or isinstance(self.value, bool):
            raise ParameterError(f"seed value must be an int, got {type(self.value).__name__}")
        if not 0 <= self.value < 2**64:
            raise ParameterError(f"seed value must lie in [0, 2^64), got {self.value}")


def integer_types(values) -> bool:
    """Whether every one of ``values`` is an integer, numpy's included and a bool not; each type is tested once."""
    return all(issubclass(t, numbers.Integral) and not issubclass(t, bool) for t in set(map(type, values)))


def check_integers(values: Sequence, what: str, error: type[ProcsupError] = ParameterError) -> None:
    """Raise ``error`` naming the first of ``values`` that :func:`integer_types` rejects.

    The message is ``"{what} must be an integer, got {value!r}"``.
    """
    if not integer_types(values):
        bad = next(v for v in values if not integer_types((v,)))
        raise error(f"{what} must be an integer, got {bad!r}")


def point_matrix(rows, owner: str, noun: str = "point") -> np.ndarray:
    """``rows`` as a validated, read-only ``(n, d)`` float64 matrix (always a copy).

    ``rows`` is an array or a sequence of coordinate sequences, converted by
    one ``np.array``; only when that fails are the rows looked at one by one.
    There must be at least one row, every row must have the same ``d >= 1``
    coordinates and every coordinate must be finite; the messages name
    ``owner`` and the offending row.
    """
    try:
        m = np.array(rows, dtype=np.float64)
    except (OverflowError, ValueError):
        if isinstance(rows, np.ndarray):
            raise
        arrays = []
        for i, row in enumerate(rows):  # name the first row that overflows, or the mixed dimensions
            try:
                arrays.append(np.asarray(row, dtype=np.float64))
            except OverflowError as exc:
                raise ValidationError(f"{owner}: {noun} {i}: {exc}") from None
        if len({a.shape for a in arrays}) > 1:
            raise ValidationError(f"{owner} mixes dimensions {sorted({a.size for a in arrays})}")
        raise
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


def distinct_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate the rows of ``m`` by value (``-0.0 == 0.0``), in first-occurrence order.

    Returns ``first``, each distinct row's first index, and ``slot``, each
    row's position in ``first``, so that ``m[first][slot]`` equals ``m``.
    Each row is sorted as one opaque element of its bytes, after ``+ 0.0``
    folds ``-0.0`` into ``0.0``, so equal bytes are equal rows; the sort is
    stable, so each run of equal rows starts at its first index.
    """
    key = np.ascontiguousarray(m + 0.0)
    rows = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).reshape(len(key))
    order = rows.argsort(kind="stable")
    ranked = rows[order]
    starts = np.ones(len(m), dtype=bool)
    starts[1:] = ranked[1:] != ranked[:-1]
    run_first = order[starts]
    slot = np.empty(len(m), dtype=np.intp)
    slot[order] = np.argsort(np.argsort(run_first))[np.cumsum(starts) - 1]
    return np.sort(run_first), slot


#: How :func:`content_digest` lays out its input; echoed into every report.
CONTENT_HASH_RULE = (
    "sha256 over the fields in name order: a scalar as the JSON line [name, value], "
    'an array as the JSON line [name, "<f8", shape] then its C-order little-endian float64 bytes'
)


def content_digest(**fields) -> str:
    """SHA-256 hex digest of ``fields``, taken field by field in name order.

    A scalar field adds the UTF-8 of ``json.dumps([name, value]) + "\\n"``.
    An array field adds ``json.dumps([name, "<f8", list(shape)]) + "\\n"``
    and then the bytes of ``np.ascontiguousarray(a, dtype="<f8")``, so the
    digest depends on the values bit for bit (``-0.0`` differs from
    ``0.0``), never on the array's memory order or byte order.
    """
    h = hashlib.sha256()
    for name, value in sorted(fields.items()):
        if isinstance(value, np.ndarray):
            h.update(f"{json.dumps([name, '<f8', list(value.shape)])}\n".encode())
            h.update(np.ascontiguousarray(value, dtype="<f8"))
        else:
            h.update(f"{json.dumps([name, value])}\n".encode())
    return h.hexdigest()


class FiniteSet:
    """A named, duplicate-free, finite family of points of one dimension.

    ``FiniteSet(name=..., points=...)`` takes an ``(n, d)`` array or a
    sequence of coordinate sequences.  The data is ``matrix``, one
    validated, read-only ``(n, d)`` float64 array.
    """

    def __init__(self, name: str, points) -> None:
        self._adopt(name, point_matrix(points, f"set {name!r}"))

    @classmethod
    def _of_matrix(cls, name: str, matrix: np.ndarray) -> "FiniteSet":
        """A set over ``matrix``, which :func:`point_matrix` has already returned."""
        ts = cls.__new__(cls)
        ts._adopt(name, matrix)
        return ts

    def _adopt(self, name: str, matrix: np.ndarray) -> None:
        self.name = name
        self.matrix = matrix
        first, slot = distinct_rows(self.matrix)
        firsts = first[slot]  # each row's first occurrence
        repeats = np.flatnonzero(firsts != np.arange(len(slot)))
        if repeats.size:
            i = repeats[0]
            raise ValidationError(f"set {name!r} has duplicate points at indices {firsts[i]} and {i}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def content_hash(self) -> str:
        """SHA-256 over the coordinate data (name excluded)."""
        return content_digest(dim=self.dim, points=self.matrix)


def has_disjoint_supports(ts: FiniteSet) -> bool:
    """True when no coordinate is nonzero in two different points of ``ts``."""
    return bool(np.count_nonzero(ts.matrix, axis=0).max() <= 1)


def center_at_zero(ts: FiniteSet) -> FiniteSet:
    """Translate the whole set by minus its first point.

    Pairwise differences (hence every canonical-process increment) are
    untouched; the resulting set contains the zero point at index 0.
    """
    return FiniteSet(name=f"{ts.name}-centered", points=ts.matrix - ts.matrix[0])


def _gen_random_sphere(dim: int, count: int, seed: Seed, params: Sequence[float]) -> np.ndarray:
    if len(params) > 1:
        raise ParameterError("random_sphere takes at most one param (radius)")
    radius = float(params[0]) if params else 1.0
    if radius <= 0:
        raise ParameterError(f"radius must be positive, got {radius}")
    gen = rng.stream(seed.value, "gen:random_sphere")
    raw = rng.standard_normal(gen, (count, dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    return radius * raw / norms


def _gen_simplex_vertices(dim: int, count: int, seed: Seed, params: Sequence[float]) -> np.ndarray:
    if count > dim:
        raise ParameterError(f"simplex_vertices needs count <= dim, got count={count} dim={dim}")
    if len(params) > 1:
        raise ParameterError("simplex_vertices takes at most one param (scale)")
    scale = float(params[0]) if params else 1.0
    if scale == 0:
        raise ParameterError("scale must be nonzero")
    return scale * np.eye(dim)[:count]


def _gen_ellipsoid_sample(dim: int, count: int, seed: Seed, params: Sequence[float]) -> np.ndarray:
    if params and len(params) != dim:
        raise ParameterError(
            f"ellipsoid_sample params must be empty or one semi-axis per coordinate "
            f"(got {len(params)} for dim={dim})"
        )
    axes = np.asarray(params, dtype=np.float64) if params else 1.0 / np.arange(1, dim + 1)
    if np.any(axes <= 0):
        raise ParameterError("all semi-axes must be positive")
    gen = rng.stream(seed.value, "gen:ellipsoid_sample")
    raw = rng.standard_normal(gen, (count, dim))
    sphere = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return sphere * axes


def _gen_cube_vertices(dim: int, count: int, seed: Seed, params: Sequence[float]) -> np.ndarray:
    if dim < 63 and count > 2**dim:
        raise ParameterError(f"cube has only {2**dim} vertices in dim {dim}, asked for {count}")
    if len(params) > 1:
        raise ParameterError("cube_vertices takes at most one param (scale)")
    scale = float(params[0]) if params else 1.0
    if scale == 0:
        raise ParameterError("scale must be nonzero")
    if dim < 63 and count == 2**dim:
        codes = np.arange(count, dtype=np.uint64)
        bits = (codes[:, None] >> np.arange(dim, dtype=np.uint64)[None, :]) & 1
        return scale * (1.0 - 2.0 * bits.astype(np.float64))
    gen = rng.stream(seed.value, "gen:cube_vertices")
    chosen: list[np.ndarray] = []
    seen: set[bytes] = set()
    while len(chosen) < count:
        row = rng.rademacher(gen, dim)
        key = row.tobytes()
        if key not in seen:
            seen.add(key)
            chosen.append(scale * row)
    return np.asarray(chosen)


def _gen_disjoint_blocks(dim: int, count: int, seed: Seed, params: Sequence[float]) -> np.ndarray:
    if not params:
        raise ParameterError("disjoint_blocks needs params=[block_length]")
    block = int(params[0])
    if block != params[0] or block < 1:
        raise ParameterError(f"block length must be a positive integer, got {params[0]}")
    if block * count > dim:
        raise ParameterError(
            f"disjoint_blocks needs block*count <= dim, got {block}*{count} > {dim}"
        )
    rows = np.zeros((count, dim))
    for i in range(count):
        gen = rng.stream(seed.value, "gen:disjoint_blocks", index=i)
        rows[i, i * block : (i + 1) * block] = rng.standard_normal(gen, block)
    return rows


_GENERATORS = {
    SetKind.RANDOM_SPHERE: _gen_random_sphere,
    SetKind.SIMPLEX_VERTICES: _gen_simplex_vertices,
    SetKind.ELLIPSOID_SAMPLE: _gen_ellipsoid_sample,
    SetKind.CUBE_VERTICES: _gen_cube_vertices,
    SetKind.DISJOINT_BLOCKS: _gen_disjoint_blocks,
}


def generate_set(
    kind: SetKind | str,
    dim: int,
    count: int,
    seed: Seed | int,
    params: Sequence[float] = (),
) -> FiniteSet:
    """Deterministically generate one of the named set families.

    The same ``(kind, dim, count, seed, params)`` always yields the same set,
    coordinate for coordinate.  A set of more than ``GENERATE_MAX_COORDINATES``
    coordinates raises :class:`CapacityError` before any draw.
    """
    if isinstance(kind, str):
        try:
            kind = SetKind(kind)
        except ValueError:
            valid = ", ".join(k.value for k in SetKind)
            raise ParameterError(f"unknown set kind {kind!r}; expected one of: {valid}") from None
    if isinstance(seed, int):
        seed = Seed(seed)
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    if count * dim > GENERATE_MAX_COORDINATES:
        raise CapacityError(f"set generation capped at {GENERATE_MAX_COORDINATES} coordinates, "
                            f"got {count} points of dim {dim}")
    for i, x in enumerate(params):
        if not math.isfinite(x):
            raise ParameterError(f"param {i} must be finite, got {x!r}")
    rows = _GENERATORS[kind](dim, count, seed, params)
    name = f"{kind.value}-d{dim}-n{count}-seed{seed.value}"
    return FiniteSet(name=name, points=rows)


def write_points_file(path: str | Path, fmt: str, name: str, matrix: np.ndarray, **fields) -> None:
    """Write a set or vector-system file: ``json.dumps(doc, indent=2)`` bytes, keys in insertion order.

    The keys are ``format``, ``version``, ``name``, then ``fields`` in their
    order, then ``dim`` and the rows of ``matrix`` under the format's key.
    """
    from .reports import dumps  # reports imports this module

    doc = {"format": fmt, "version": FILE_VERSION, "name": name, **fields,
           "dim": matrix.shape[1], _ROWS_KEY[fmt]: matrix.tolist()}
    Path(path).write_text(dumps(doc, sort_keys=False))


def save_set(ts: FiniteSet, path: str | Path) -> None:
    """Write ``ts`` as a set file (:func:`write_points_file`)."""
    write_points_file(path, SET_FORMAT, ts.name, ts.matrix)


def read_points_file(path: str | Path, formats: Sequence[str]) -> tuple[dict, str, np.ndarray]:
    """Parse a set or vector-system file once and validate it strictly.

    ``formats`` lists the accepted ``format`` tags.  Returns the document,
    its name (the file stem when it has none) and its rows as one matrix
    checked by :func:`point_matrix`.
    Coordinates must be JSON numbers: strings, booleans and nulls are
    rejected, never coerced.  A number beyond float64 fails in
    :func:`point_matrix`, which names its row.
    """
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
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {dim}
            and set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}):
        for i, row in enumerate(rows):  # name the first bad row
            if not isinstance(row, list) or len(row) != dim:
                raise ValidationError(f"{path}: {noun} {i} does not have {dim} coordinates")
            if any(type(x) not in (int, float) for x in row):
                raise ValidationError(f"{path}: {noun} {i} has a coordinate that is not a number")
    name = str(doc.get("name") or path.stem)
    return doc, name, point_matrix(rows, str(path), noun)


def load_set(path: str | Path) -> FiniteSet:
    """Load a set file; the exact float values written by :func:`save_set` come back."""
    _, name, matrix = read_points_file(path, (SET_FORMAT,))
    return FiniteSet._of_matrix(name, matrix)
