"""Scalar Monte Carlo references: one statistic, one stream per norm.

These are the accumulator and the norm estimator as they stood before the
Monte Carlo routes were batched.  The batched code must reproduce them bit
for bit wherever it claims to: a one-column statistic, a one-row norm, and
each column of a shared-stream level.  The chunk rule is ``mc_mean``'s: a
chunk's draws and products together fit ``_BLOCK_BYTES``.

:func:`reference_one_sided_mc_sup` is the supremum estimator as it stood
before the antithetic one: one evaluation ``max_t <xi, t>`` per draw.
"""

import hashlib
import math

import numpy as np

from procsup import moments, rng


def reference_mc_mean(kind, gen, m, samples, statistic):
    """Mean and stderr of one scalar statistic, chunked and merged as ``mc_mean`` does."""
    width = m.shape[1] if m.ndim == 2 else 1  # a vector m is one column
    rows = max(4, moments._BLOCK_BYTES // (8 * (m.shape[0] + width)) // 4 * 4)
    shift = None
    count, mean, m2 = 0, 0.0, 0.0
    while count < samples:
        k = min(rows, samples - count)
        ys = statistic(moments._draw(kind, gen, (k, m.shape[0])) @ m)
        if shift is None:
            shift = float(ys.mean())
        ys = ys - shift
        chunk_mean = float(ys.mean())
        delta = chunk_mean - mean
        total = count + k
        mean += delta * k / total
        m2 += float(((ys - chunk_mean) ** 2).sum()) + delta * delta * count * k / total
        count = total
    return shift + mean, math.sqrt(m2 / (samples - 1) / samples)


def reference_one_sided_mc_sup(kind, ts, samples, seed):
    """Mean and stderr of ``max_t <xi, t>`` over ``samples`` draws, from ``mc_sup``'s stream."""
    gen = rng.content_stream(seed.value, "mc-sup", ts.matrix, kind.value)
    return reference_mc_mean(kind, gen, ts.matrix.T, samples, lambda ys: ys.max(axis=1))


def _finish(scale, q, mean, se_mean):
    if mean == 0.0:
        return 0.0, 0.0
    return scale * mean ** (1.0 / q), scale * ((1.0 / q) * mean ** (1.0 / q - 1.0) * se_mean)


def reference_mc_norm(kind, t, p, samples, seed):
    """``||X_t||_p`` of the vector ``t`` from a stream of its own, keyed by the content of ``t``."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    q = float(p)
    scale = float(np.linalg.norm(t))
    if scale == 0.0:
        return 0.0, 0.0
    digest = hashlib.sha256(t.tobytes() + f"|{kind.value}|{q!r}".encode()).hexdigest()
    gen = rng.stream(seed.value, f"mc-norm:{digest}")
    mean, se_mean = reference_mc_mean(kind, gen, t / scale, samples, lambda ys: np.abs(ys) ** q)
    return _finish(scale, q, mean, se_mean)


def reference_shared_stream_norms(kind, rows, p, samples, seed):
    """Norms of the nonzero rows of ``rows`` against one stream keyed by the whole matrix.

    Each column is reduced on its own by :func:`reference_mc_mean`, from a
    fresh copy of the shared stream, so every column sees the same draws.
    """
    q = float(p)
    digest = hashlib.sha256(rows.tobytes() + f"|{kind.value}|{q!r}".encode()).hexdigest()
    scales = [float(np.linalg.norm(r)) for r in rows]
    live = [i for i, s in enumerate(scales) if s > 0.0]
    m = (rows[live] / np.array([scales[i] for i in live])[:, None]).T
    out = [(0.0, 0.0)] * len(rows)
    for j, i in enumerate(live):
        gen = rng.stream(seed.value, f"mc-norm:{digest}")
        mean, se_mean = reference_mc_mean(kind, gen, m, samples, lambda ys, j=j: np.abs(ys[:, j]) ** q)
        out[i] = _finish(scales[i], q, mean, se_mean)
    return out
