"""The one-vector moment routes that the row-matrix routes replaced, kept as a reference.

``reference_ell1_part``, ``reference_tail_l2`` and
``reference_bernoulli_norm_proxy`` are the proxy,
``reference_gaussian_norm_exact`` the Gaussian norm and
``reference_bernoulli_norms_exact`` the exact Bernoulli norms (the cosh
series, which both share, at even orders; one sign enumeration for the
others), each for one vector ``t``, a 1-D float64 array.  The row-matrix
routes must give every row these bits wherever the reference returns a
finite value, except at odd exact orders: meet in the middle matches the
enumeration to 1e-13 relative.
"""

import math

import numpy as np

from procsup import moments
from procsup.core import EXACT_ENUMERATION_MAX_DIM
from procsup.errors import CapacityError, ParameterError
from procsup.moments import (
    _check_moment_order,
    _cosh_norms,
    check_proxy_order,
    gaussian_moment_constant,
)


def reference_ell1_part(t: np.ndarray, p: int) -> float:
    """Sum of the ``p`` largest absolute coordinates (all of them if p >= dim)."""
    p = check_proxy_order(p)
    a = np.abs(t)
    if p >= a.size:
        return float(a.sum())
    return float(np.partition(a, a.size - p)[a.size - p :].sum())


def reference_tail_l2(t: np.ndarray, p: int) -> float:
    """l2 norm of what remains after deleting the ``p`` largest absolute coordinates."""
    p = check_proxy_order(p)
    a = np.abs(t)
    if p >= a.size:
        return 0.0
    rest = np.partition(a, a.size - p)[: a.size - p]
    return float(np.linalg.norm(rest))


def reference_bernoulli_norm_proxy(t: np.ndarray, p: int) -> tuple[float, float, float]:
    """Closed-form stand-in for ``||B_t||_p``: (l1 head, l2 tail, head plus sqrt(p) times tail)."""
    p = check_proxy_order(p)
    head = reference_ell1_part(t, p)
    tail = reference_tail_l2(t, p)
    return head, tail, head + math.sqrt(p) * tail


def reference_gaussian_norm_exact(t: np.ndarray, p) -> float:
    """``||G_t||_p``, which is the l2 norm of t times :func:`gaussian_moment_constant`."""
    return float(np.linalg.norm(t)) * gaussian_moment_constant(p)


def _l1_scales(rows: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        scales = np.abs(rows).sum(axis=1)
    if not np.isfinite(scales).all():
        k = int(np.isinf(scales).argmax())
        raise ParameterError(f"the l1 norm of row {k} overflows float64")
    return scales


def _is_cosh_order(q: float) -> bool:
    """Whether the cosh series serves the checked order ``q``: an even integer up to 1024."""
    return q <= 1024 and q % 2.0 == 0.0


def reference_bernoulli_norms_exact(t: np.ndarray, ps) -> list[float]:
    """``||B_t||_p`` for every order in ``ps``: one cosh-series pass, one shared enumeration."""
    qs = [_check_moment_order(p) for p in ps]
    if t.size > EXACT_ENUMERATION_MAX_DIM:
        raise CapacityError(f"exact Bernoulli norm needs dim <= {EXACT_ENUMERATION_MAX_DIM}, got {t.size}")
    row = t[None, :]
    scales = _l1_scales(row)
    norms = [0.0] * len(qs)
    even = [i for i, q in enumerate(qs) if _is_cosh_order(q)]
    if even:
        for i, value in zip(even, _cosh_norms(row, scales, [int(qs[i]) for i in even])[0].tolist()):
            norms[i] = value
    rest = [i for i, q in enumerate(qs) if not _is_cosh_order(q)]
    scale = float(scales[0])
    if not rest or scale == 0.0:
        return norms
    parts: list[list[float]] = [[] for _ in rest]
    for s in moments.signed_row_sums(t[:, None]):
        a = np.abs(s) / scale
        for part, i in zip(parts, rest):
            part.append(float((a ** qs[i]).sum()))
    patterns = 1 << (t.size - 1)
    for part, i in zip(parts, rest):
        norms[i] = scale * (sum(part) / patterns) ** (1.0 / qs[i])
    return norms
