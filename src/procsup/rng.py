"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox (counter-based)
generator whose key is derived from ``(seed, label, index)``.  Two
consequences we rely on throughout:

* results are reproducible bit-for-bit for a given seed, and
* streams for different purposes are independent of each other and of the
  order in which they are consumed, so refactoring a loop or parallelising
  it cannot change any reported number.

Gaussian variates are produced by inverse-CDF applied to 53-bit uniforms
taken from the counter stream (rather than a rejection sampler), which keeps
the mapping from counters to variates fixed across platforms.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.special import ndtri

_KEY_BYTES = 16  # Philox-4x64 key width


def stream(seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Return the Philox generator keyed by ``(seed, label, index)``."""
    material = f"{seed}|{label}|{index}".encode()
    digest = hashlib.sha256(material).digest()[:_KEY_BYTES]
    key = int.from_bytes(digest, "little")
    return np.random.Generator(np.random.Philox(key=key))


def content_stream(seed: int, prefix: str, m: np.ndarray, tag: str) -> np.random.Generator:
    """The stream labelled ``prefix:`` plus the SHA-256 hex digest of ``m``'s bytes and ``tag``.

    Keyed by content, so a computation's draws depend only on its inputs.
    """
    digest = hashlib.sha256(m.tobytes() + tag.encode()).hexdigest()
    return stream(seed, f"{prefix}:{digest}")


def uniform_open(gen: np.random.Generator, size) -> np.ndarray:
    """Uniforms on the open interval (0, 1): (k + 0.5) / 2**53 for a 53-bit k."""
    high = gen.integers(0, 1 << 53, size=size, dtype=np.uint64)
    return (high.astype(np.float64) + 0.5) * (2.0**-53)


def standard_normal(gen: np.random.Generator, size) -> np.ndarray:
    """Standard normals via inverse-CDF on :func:`uniform_open` draws."""
    return ndtri(uniform_open(gen, size))


def rademacher(gen: np.random.Generator, size) -> np.ndarray:
    """Independent uniform signs, returned as float64 ±1."""
    bits = gen.integers(0, 2, size=size, dtype=np.int8)
    return bits.astype(np.float64) * 2.0 - 1.0
