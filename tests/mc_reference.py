"""Scalar Monte Carlo references: one statistic, one stream per norm.

These are the accumulator and the norm estimator as they stood before the
Monte Carlo routes were batched.  The batched code must reproduce them bit
for bit wherever it claims to: a one-column statistic, a one-row norm, and
each column of a shared-stream level.
"""

import hashlib
import math

import numpy as np

from procsup import moments, rng


def reference_mc_mean(kind, gen, m, samples, statistic):
    """Mean and stderr of one scalar statistic, chunked and merged as ``mc_mean`` does."""
    rows = max(4, moments._BLOCK_BYTES // (8 * max(m.shape)) // 4 * 4)
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


def _finish(scale, q, mean, se_mean):
    if mean == 0.0:
        return 0.0, 0.0
    return scale * mean ** (1.0 / q), scale * ((1.0 / q) * mean ** (1.0 / q - 1.0) * se_mean)


def reference_mc_norm(kind, t, p, samples, seed):
    """``||X_t||_p`` from a stream of its own, keyed by the content of ``t``."""
    q = float(p)
    scale = float(np.linalg.norm(t.array))
    if scale == 0.0:
        return 0.0, 0.0
    digest = hashlib.sha256(t.array.tobytes() + f"|{kind.value}|{q!r}".encode()).hexdigest()
    gen = rng.stream(seed.value, f"mc-norm:{digest}")
    mean, se_mean = reference_mc_mean(kind, gen, t.array / scale, samples, lambda ys: np.abs(ys) ** q)
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
