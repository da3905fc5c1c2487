"""Host speed, sampled by a fixed reference kernel while a cell runs.

The machines this benchmark runs on are shared: the same pass can take
30-50% longer a few minutes later, with the process on the CPU the whole
time, because neighbours load the host's caches and memory.  Longer runs
cannot average that out, the slow phases last minutes.  So every cell
runs on a :class:`HostClock`: it times a fixed reference kernel, written
out here and independent of the program under test, between cells and
in the program's gaps (between learning iterations or agreement
sub-rounds, at most every ``INTERVAL_S``).  The kernel's time is left
out of the cell's times, and the benchmark reports each cell's times
scaled to the speed the host has when the kernel takes ``NOMINAL_S``:

    corrected = measured * NOMINAL_S / mean(kernel samples of the cell)

The kernel mixes the kinds of work the workloads do, in about equal
parts: a Weiszfeld step over a few megabytes of float64 (memory
traffic), small MLP forwards/backwards (GEMMs) and a pure-Python loop
(interpreter).  On the reference box, over 36 rounds of five cells
through a noisy phase, each part tracked the cells it resembles
(correlations of about 0.9 between a cell's time and the mean of that
part's samples: memory traffic for box-geom and md-geom, GEMMs for the
agreement cells, the interpreter for krum), and dividing by the whole
kernel's mean cut the spread of a cell's time (standard deviation of
its log) from 12-16% to 4-5.5%, 8% on the short krum cell.  A change to the
program cannot change the kernel's time, so a faster program still
shows as a smaller corrected time.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: Least time between two samples taken in the program's gaps.
INTERVAL_S = 0.25
#: What one kernel call takes on the reference box, a 2-vCPU VM with one
#: BLAS thread.  Only scales the reported values; runs of two versions
#: are compared at the same scale.
NOMINAL_S = 0.015

_rng = np.random.default_rng(20240501)
#: 10 sets of 6 points in d = 12,786, as in one box-geom subset batch.
_POINTS = _rng.normal(size=(10, 6, 12786))
_BATCH = _rng.normal(size=(64, 784))
_W1 = _rng.normal(size=(784, 32)) * 0.05
_W2 = _rng.normal(size=(32, 10)) * 0.05


def _kernel() -> float:
    """About 5 ms each of memory traffic and GEMMs, 4 ms of interpreter."""
    z = _POINTS.mean(axis=1)
    diff = _POINTS - z[:, None, :]
    dist = np.sqrt(np.einsum("sjd,sjd->sj", diff, diff))
    w = 1.0 / np.maximum(dist, 1e-12)
    z = np.einsum("sj,sjd->sd", w, _POINTS) / w.sum(axis=1, keepdims=True)
    for _ in range(20):
        hidden = np.maximum(_BATCH @ _W1, 0.0)
        out = hidden @ _W2
        grad_hidden = (out @ _W2.T) * (hidden > 0)
        _ = _BATCH.T @ grad_hidden
    acc = 0
    table = {}
    for i in range(35000):
        table[i & 255] = acc
        acc += i % 7
    return float(z[0, 0]) + acc


class HostClock:
    """Program time of one cell, with the host's speed sampled in its gaps.

    :meth:`now` is ``time.perf_counter()`` less the time spent in samples,
    so the kernel never counts towards the cell's times.
    """

    def __init__(self, before: float) -> None:
        """``before``: the sample taken just before the cell starts."""
        self.paused = 0.0
        self.samples: List[float] = [before]
        self._last = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def sample(self) -> None:
        """Time one kernel call, left out of :meth:`now`."""
        start = time.perf_counter()
        self.samples.append(measure())
        self._last = time.perf_counter()
        self.paused += self._last - start

    def gap(self) -> None:
        """Sample if ``INTERVAL_S`` has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self) -> float:
        """``NOMINAL_S`` over the mean sample."""
        return NOMINAL_S * len(self.samples) / sum(self.samples)


def measure() -> float:
    """Seconds one call of the reference kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


_kernel()  # warm up: first-call allocation and dispatch costs
