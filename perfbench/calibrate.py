"""A fixed kernel, timed between units, that tracks this machine's speed.

On a shared virtual machine the same code runs 10-25% slower for seconds to
minutes at a time. The kernel mixes, in roughly equal time, the kinds of
work evhybrid does: a float32 matmul and transcendental elementwise maths as
in the convolutions and neurons, a gather and a bincount scatter as in
deformable sampling, an int64 matmul as in the fixed-point convolution, a
strided im2col copy, and plain interpreted Python as in the tape engine. A
slowdown that hits the program hits the kernel too. It uses no evhybrid code,
so no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


REPEATS = 3


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(20240315)
        self.a = rng.standard_normal((32, 288)).astype(np.float32)
        self.b = rng.standard_normal((288, 3200)).astype(np.float32)
        self.idx = rng.integers(0, 32 * 3200, size=200_000)
        self.ia = rng.integers(-127, 128, size=(16, 72))
        self.ib = rng.integers(0, 2, size=(72, 2400))
        self.src = rng.standard_normal((10, 8, 80, 64))
        self.cols = np.empty((10, 8, 3, 3, 39, 31))
        self.at: list[float] = []  # perf_counter() after each timing
        self.ms: list[float] = []

    def _once(self) -> float:
        t0 = time.perf_counter()
        c = self.a @ self.b
        d = np.tanh(c) * np.float32(0.5) + c * c
        e = d.reshape(-1)[self.idx]
        np.bincount(self.idx, weights=e, minlength=d.size)
        self.ia @ self.ib
        for ky in range(3):
            for kx in range(3):
                self.cols[:, :, ky, kx] = self.src[:, :, ky : ky + 78 : 2, kx : kx + 62 : 2]
        acc = 0
        for i in range(15_000):
            acc += (i * 7) & 15
        return (time.perf_counter() - t0) * 1e3

    def __call__(self) -> float:
        """Time the kernel: the fastest of ``REPEATS`` back-to-back runs, so
        that caches left cold by the unit before do not count."""
        ms = min(self._once() for _ in range(REPEATS))
        self.at.append(time.perf_counter())
        self.ms.append(ms)
        return ms

    def around(self, start: float, end: float, runs: int) -> float:
        """Median time of the ``runs`` kernel runs nearest to [start, end]."""
        mid = (start + end) / 2
        nearest = sorted(range(len(self.at)), key=lambda i: abs(self.at[i] - mid))[:runs]
        return statistics.median(self.ms[i] for i in nearest)
