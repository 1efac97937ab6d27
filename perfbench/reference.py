"""Reference kernel: a fixed unit of host work timed between the ops.

The benchmark's host is shared, and its speed moves by up to 1.7x from
one stretch of seconds to the next; both the library's pure-Python and
its numpy/scipy stages slow down by the same factor (CPU time follows
wall time). Wall-clock figures of one run therefore spread by 17-30%
between runs of the same code, whatever the statistic or the run
length. The kernel below does the same kinds of work as the library
(a Gaussian blur, small-array gradient histograms, one ``cdist`` and a
pure-Python loop) with fixed inputs and without importing graphsift,
so no change to the library changes it. Timing it right before and
right after each op gives the host's speed at that moment; an op's
cost is its wall time divided by the mean of those two samples, in
``ref`` units (run.OpTimer). In two sets of ten runs on ten seeds per
workload on a 2-core x86_64 host, the op costs spread by at most 8%
(interquartile range over median) where the same runs' wall-clock
figures spread by up to 29%; much of what remains is the seeds' own
corpora.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from scipy import ndimage
from scipy.spatial.distance import cdist

REPEATS = 3


class Reference:
    """Times the kernel on demand and keeps every sample."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._image = rng.random((96, 96), dtype=np.float32)
        self._a = rng.random((96, 128))
        self._b = rng.random((96, 128))
        self.samples: list[float] = []
        self._kernel()  # warm-up, not recorded

    def _kernel(self) -> float:
        blurred = ndimage.gaussian_filter(self._image, 1.6, truncate=4.0)
        total = 0.0
        for y in range(8, 88, 4):
            patch = blurred[y - 8 : y + 8, 88 - y : 104 - y]
            dy, dx = np.gradient(patch)
            bins = np.rint(np.arctan2(dy, dx) * (36 / (2 * np.pi))).astype(np.int64) % 36
            total += float(np.bincount(bins.ravel(), weights=np.hypot(dx, dy).ravel(), minlength=36).max())
        total += float(cdist(self._a, self._b).min())
        acc = 0
        for i in range(12000):
            acc = (acc * 31 + i) % 1000003
        return total + acc

    def sample(self) -> float:
        """Seconds of one kernel run: median of ``REPEATS`` back to back."""
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        s = statistics.median(times)
        self.samples.append(s)
        return s
