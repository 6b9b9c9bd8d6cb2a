"""Host speed reference: a fixed kernel timed next to the measured ops.

This benchmark runs on shared 2-vCPU VMs whose cores run up to 1.8x slower
for seconds to minutes at a time, and slow every kind of code alike.  A
timing `t` measured where the kernel took `ref` seconds is reported as
`t * REF_SECONDS / ref`, the time it would have taken at a fixed host
speed.  The kernel has two parts, a dict loop and an O(n^3) einsum, and its
time is their geometric mean.  In a 7-minute trace of 13 recognize, color
and cwd ops from 3 ms to 0.4 s, each op with the kernel timed before it,
the median time of one op over a 30-s window spread (IQR / median over the
windows) 0.13-0.27 unscaled, 0.015-0.08 scaled by the dict loop part alone,
0.02-0.11 by the einsum part alone and 0.014-0.10 by both; for the 0.4-s
op, 0.06, 0.03 and 0.04.

The kernel depends on nothing but Python and numpy, so no change to the
program under test changes its time.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# About the time of `reference_seconds` on the 2-vCPU Intel Xeon host the
# benchmark was tuned on (Python 3.11, numpy 2.4), where it took 1.9-3.3 ms
# as the host's speed varied.  It only sets the scale: figures read as wall
# times on that host at the speed where the kernel takes this long.
REF_SECONDS = 0.0022
# The kernel runs before an op when this long has passed since it last ran,
# and an op is scaled by the median kernel time within WINDOW of it.
SAMPLE_EVERY = 0.05
WINDOW = 0.25

_rng = np.random.default_rng(0)
_SMALL = _rng.random((70, 70)) < 0.5
_SMALL = (_SMALL | _SMALL.T).astype(np.int64)
_LARGE = _rng.random((150, 150)) < 0.5
_LARGE = (_LARGE | _LARGE.T).astype(np.int64)


def reference_seconds() -> float:
    """Geometric mean of the wall times of the kernel's two parts."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 977] = counts.get(i % 977, 0) + i
    np.einsum("ij,jk,ki->i", _SMALL, _SMALL, _SMALL)
    middle = time.perf_counter()
    np.einsum("ij,jk,ki->i", _LARGE, _LARGE, _LARGE)
    return math.sqrt((middle - start) * (time.perf_counter() - middle))


class Sampler:
    """Reference samples, (time taken, kernel seconds), at least every
    SAMPLE_EVERY seconds while `tick` is called before each op."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._last = -math.inf

    def tick(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= SAMPLE_EVERY:
            self.samples.append((time.perf_counter(), reference_seconds()))
            self._last = time.perf_counter()


def scaled(starts: list[float], times: list[float],
           samples: list[tuple[float, float]]) -> list[float]:
    """Each op, started at starts[i] and lasting times[i], scaled to
    REF_SECONDS by the median kernel time within WINDOW of it.  The caller
    samples before the first op and after the last, so no window is empty."""
    at = [s[0] for s in samples]
    out = []
    for start, t in zip(starts, times):
        lo = bisect.bisect_left(at, start - WINDOW)
        hi = bisect.bisect_right(at, start + t + WINDOW)
        near = [s[1] for s in samples[lo:hi]]
        out.append(t * REF_SECONDS / statistics.median(near))
    return out
