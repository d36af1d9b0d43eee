"""A background probe of the host's momentary speed, for normalising timings.

On a shared host the same code runs up to ~1.8x slower for tens of seconds
at a time while neighbours load the physical cores, and CPU time slows with
wall time, so neither clock alone gives repeatable numbers.  The probe runs
four tiny fixed kernels (an interpreter loop, frozen-dataclass creation,
small NumPy calls and a small matrix product) from a ``SIGALRM`` handler ten
times a second, in the benchmark process itself, and logs how long each took.

A timed interval is then reported at *reference speed*: its wall time, minus
the probe's own time inside it, divided by the interval's slowdown factor,
the geometric mean over kernels of (mean kernel time in the interval /
kernel reference time).  The kernels share no code with procsup, so a change
to the program moves the normalised time exactly as it moves the raw time.
"""

from __future__ import annotations

import math
import signal
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import perf_counter

import numpy as np

#: Seconds between probe ticks.
PERIOD = 0.1


@dataclass(frozen=True)
class _Item:
    coords: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(float(x) for x in self.coords))


_SMALL = np.arange(16.0)
_MATRIX = np.linspace(-1.0, 1.0, 256 * 256).reshape(256, 256)


def _interpreter() -> None:
    table = {}
    for i in range(2000):
        table[i & 255] = (i, i * 0.5)


def _objects() -> None:
    for i in range(150):
        _Item((i, 1.0, 2.0, 3.0))


def _small_numpy() -> None:
    for i in range(60):
        np.linalg.norm(_SMALL - i)


def _matrix() -> None:
    (_MATRIX @ _MATRIX[:, :32]).max(axis=1)


#: (kernel, its duration in seconds on an unloaded 2-vCPU host of the benchmark machine).
KERNELS = (
    (_interpreter, 0.30e-3),
    (_objects, 0.26e-3),
    (_small_numpy, 0.22e-3),
    (_matrix, 0.32e-3),
)


class SpeedProbe:
    """Logs probe ticks while started; converts intervals to reference-speed seconds."""

    def __init__(self) -> None:
        self.ticks: list[float] = []  # start time of each tick
        self.spent: list[float] = []  # wall time of each tick, all kernels
        self.kernel_s: list[tuple[float, ...]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        times = []
        for kernel, _ in KERNELS:
            t = perf_counter()
            kernel()
            times.append(perf_counter() - t)
        self.ticks.append(start)
        self.kernel_s.append(tuple(times))
        self.spent.append(perf_counter() - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def slowdown(self, start: float, end: float) -> float:
        """Geometric-mean slowdown of the ticks in [start, end], widened to at least two ticks."""
        lo, hi = bisect_left(self.ticks, start), bisect_right(self.ticks, end)
        while hi - lo < 2 and (lo > 0 or hi < len(self.ticks)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.ticks))
        if hi == lo:
            return 1.0
        window = self.kernel_s[lo:hi]
        logs = [math.log(sum(col) / len(col) / ref) for col, (_, ref) in zip(zip(*window), KERNELS)]
        return math.exp(sum(logs) / len(logs))

    def normalise(self, start: float, end: float) -> float:
        """Reference-speed seconds of the interval [start, end] of ``perf_counter`` time."""
        lo, hi = bisect_left(self.ticks, start), bisect_right(self.ticks, end)
        own = sum(self.spent[lo:hi])
        return (end - start - own) / self.slowdown(start, end)
