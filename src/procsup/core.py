"""Domain types: points, finite index sets, process kinds, seeds, generators, files.

A canonical process over a finite index set ``T ⊂ R^d`` attaches to each
point ``t`` the random variable ``X_t = sum_i t_i xi_i`` where the ``xi_i``
are i.i.d. signs (Bernoulli case) or standard normals (Gaussian case).
Everything else in the package consumes the :class:`FiniteSet` defined here.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParameterError, ParseError, ValidationError
from . import rng

#: Largest coordinate dimension for which exact sign enumeration (2^d terms)
#: is allowed.  Shared by the exact Bernoulli moment and supremum oracles.
EXACT_ENUMERATION_MAX_DIM = 20

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


@dataclass(frozen=True)
class Point:
    """A point of the index set, i.e. a coefficient vector in R^d."""

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coords) == 0:
            raise ValidationError("a point needs at least one coordinate")
        clean = []
        for i, c in enumerate(self.coords):
            x = float(c)
            if not math.isfinite(x):
                raise ValidationError(f"coordinate {i} is not finite: {c!r}")
            clean.append(x)
        object.__setattr__(self, "coords", tuple(clean))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=np.float64)

    def __sub__(self, other: "Point") -> "Point":
        if self.dim != other.dim:
            raise ParameterError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return Point(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __add__(self, other: "Point") -> "Point":
        if self.dim != other.dim:
            raise ParameterError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return Point(tuple(a + b for a, b in zip(self.coords, other.coords)))

    @staticmethod
    def zero(dim: int) -> "Point":
        return Point((0.0,) * dim)


@dataclass(frozen=True)
class FiniteSet:
    """A named, duplicate-free, finite family of points of one dimension."""

    name: str
    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValidationError(f"set {self.name!r} has no points")
        dims = {p.dim for p in self.points}
        if len(dims) != 1:
            raise ValidationError(f"set {self.name!r} mixes dimensions {sorted(dims)}")
        seen: dict[tuple[float, ...], int] = {}
        for i, p in enumerate(self.points):
            j = seen.setdefault(p.coords, i)
            if j != i:
                raise ValidationError(f"set {self.name!r} has duplicate points at indices {j} and {i}")

    @property
    def dim(self) -> int:
        return self.points[0].dim

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def matrix(self) -> np.ndarray:
        """All points stacked into a (len, dim) array."""
        m = np.asarray([p.coords for p in self.points], dtype=np.float64)
        m.setflags(write=False)
        return m

    def content_hash(self) -> str:
        """SHA-256 over the coordinate data (name excluded)."""
        payload = json.dumps({"dim": self.dim, "points": [list(p.coords) for p in self.points]})
        return hashlib.sha256(payload.encode()).hexdigest()


def has_disjoint_supports(ts: FiniteSet) -> bool:
    """True when no coordinate is nonzero in two different points of ``ts``."""
    taken: set[int] = set()
    for p in ts.points:
        support = {i for i, c in enumerate(p.coords) if c != 0.0}
        if support & taken:
            return False
        taken |= support
    return True


def center_at_zero(ts: FiniteSet) -> FiniteSet:
    """Translate the whole set by minus its first point.

    Pairwise differences (hence every canonical-process increment) are
    untouched; the resulting set contains the zero point at index 0.
    """
    anchor = ts.points[0]
    moved = tuple(p - anchor for p in ts.points)
    return FiniteSet(name=f"{ts.name}-centered", points=moved)


def _points_from_rows(rows: np.ndarray) -> tuple[Point, ...]:
    return tuple(Point(tuple(float(x) for x in row)) for row in rows)


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
    chosen: list[tuple[float, ...]] = []
    seen: set[bytes] = set()
    while len(chosen) < count:
        row = rng.rademacher(gen, dim)
        key = row.tobytes()
        if key not in seen:
            seen.add(key)
            chosen.append(tuple(scale * row))
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
    coordinate for coordinate.
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
    rows = _GENERATORS[kind](dim, count, seed, params)
    name = f"{kind.value}-d{dim}-n{count}-seed{seed.value}"
    return FiniteSet(name=name, points=_points_from_rows(rows))


def save_set(ts: FiniteSet, path: str | Path) -> None:
    doc = {
        "format": SET_FORMAT,
        "version": FILE_VERSION,
        "name": ts.name,
        "dim": ts.dim,
        "points": [list(p.coords) for p in ts.points],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_points_file(path: str | Path, formats: Sequence[str]) -> tuple[dict, str, tuple[Point, ...]]:
    """Parse a set or vector-system file once and validate it strictly.

    ``formats`` lists the accepted ``format`` tags.  Returns the document,
    its name (the file stem when it has none) and its rows as points.
    Coordinates must be JSON numbers: strings, booleans and nulls are
    rejected, never coerced.
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
    points = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ValidationError(f"{path}: {noun} {i} does not have {dim} coordinates")
        if any(type(x) not in (int, float) for x in row):
            raise ValidationError(f"{path}: {noun} {i} has a coordinate that is not a number")
        try:
            points.append(Point(tuple(row)))
        except (ValidationError, OverflowError) as exc:
            raise ValidationError(f"{path}: {noun} {i}: {exc}") from None
    return doc, str(doc.get("name") or path.stem), tuple(points)


def load_set(path: str | Path) -> FiniteSet:
    """Load a set file; the exact float values written by :func:`save_set` come back."""
    _, name, points = read_points_file(path, (SET_FORMAT,))
    return FiniteSet(name=name, points=points)
