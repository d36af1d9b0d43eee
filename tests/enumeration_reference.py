"""The sign-enumeration reductions as they stood before blocks took a layout, kept as a reference.

``reference_signed_row_sums`` yields every block row-major, ``(rows, n)``
C-ordered.  ``reference_bernoulli_sup`` is the exact supremum's reduction
and ``reference_strong_moment`` the exact strong moment's (with the
ambient norms it used), with unchanged bodies, except that the block
budget is read from :mod:`procsup.moments` at call time, so a test that
patches ``moments._BLOCK_BYTES`` moves both enumerators' block partition.
``reference_enumerated_norm`` is the exact Bernoulli norm's per-row loop
at one order, which meet in the middle must match to 1e-13 relative.  The
current code must give the other references' bits wherever they are finite.
"""

import numpy as np

from procsup import moments


def reference_signed_row_sums(m: np.ndarray):
    k, n = m.shape
    rows = max(1, moments._BLOCK_BYTES // (8 * n))
    low_rows = min(k // 2 + 1, rows.bit_length())
    low = m[:1]
    for row in m[1:low_rows]:
        low = np.concatenate([low + row, low - row])
    high_rows = k - low_rows
    shifts = np.arange(high_rows, dtype=np.uint64)
    step = max(1, rows // len(low))
    for start in range(0, 1 << high_rows, step):
        codes = np.arange(start, min(start + step, 1 << high_rows), dtype=np.uint64)
        signs = 1.0 - 2.0 * ((codes[:, None] >> shifts) & 1).astype(np.float64)
        high = signs @ m[low_rows:]
        yield (high[:, None, :] + low[None, :, :]).reshape(-1, n)


def reference_bernoulli_sup(points: np.ndarray) -> float:
    """``E max_t <eps, t>`` over the rows ``t`` of the ``(n, d)`` matrix ``points``."""
    d = points.shape[1]
    total = sum(float((s.max(axis=1) - s.min(axis=1)).sum()) for s in reference_signed_row_sums(points.T))
    return total / (1 << d)


def reference_norm_of(norm: str, xs: np.ndarray) -> np.ndarray:
    if norm == "sup":
        return np.abs(xs).max(axis=-1)
    return np.linalg.norm(xs, axis=-1)


def reference_strong_moment(vectors: np.ndarray, norm: str) -> float:
    """``E ||sum_i eps_i x_i||`` over the rows ``x_i`` of ``vectors`` under ``"sup"`` or ``"euclidean"``."""
    sums = reference_signed_row_sums(vectors)  # eps_0 = +1; the norm is even
    return sum(float(reference_norm_of(norm, s).sum()) for s in sums) / (1 << (vectors.shape[0] - 1))


def reference_enumerated_norm(t: np.ndarray, q: float) -> float:
    """``||B_t||_q`` of the nonzero vector ``t`` by one enumeration of its sign patterns."""
    scale = float(np.abs(t[None, :]).sum(axis=1)[0])
    part = []
    for s in reference_signed_row_sums(t[:, None]):
        a = np.abs(s) / scale
        part.append(float((a ** q).sum()))
    return scale * (sum(part) / (1 << (len(t) - 1))) ** (1.0 / q)
