"""Host-speed calibration: scale measured times to a reference host speed.

The benchmark runs on shared hosts whose speed drifts while it runs: other
tenants on the same cores slow every kind of code, pure Python and BLAS
alike, by up to half for seconds or minutes at a time.  A run of a fixed
length cannot average that out.  So a fixed reference kernel, which never
touches modeport, is timed between ops, and each measured time is scaled by
``REFERENCE_S / local reference time``: the time the same work would take on
a host where the kernel takes ``REFERENCE_S``.  A change to modeport moves
the scaled times by its own effect, since the kernel does not depend on it.

Usage: ``sample()`` between ops, then ``factor(start, end)`` for a span of
``time.perf_counter()`` values.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Kernel time on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4, one OpenBLAS
# thread) at its quietest.  Only a scale: scaled times read as times on that
# host when quiet.
REFERENCE_S = 20e-3
# One reference call per this much measured time, so calibration costs
# about 5% of a run however long its ops are.
INTERVAL_S = 0.5
MAX_BURST = 8
# A span is scaled by the median of the samples taken within this margin of it.
MARGIN_S = 1.0

# The kernel mixes what modeport spends its time on: Python-level loops and
# small complex matrix products (the protocol and circuit workloads), and a
# dense Hermitian eigh and a matrix product a few MB in size (the limit
# scans).  A slowdown of the host shows in all of them, but by different
# amounts, and their sum tracks every workload better than any one part.
_rng = np.random.Generator(np.random.PCG64(0))
_SMALL = (np.arange(48 * 48).reshape(48, 48) % 7 + 1j).astype(complex) / 48.0
_M = _rng.standard_normal((200, 200)) + 1j * _rng.standard_normal((200, 200))
_HERMITIAN = _M + _M.conj().T
_DENSE = _rng.standard_normal((400, 400)) + 0j


def reference_kernel() -> float:
    acc = 0.0
    for i in range(60):
        acc += float(np.abs(np.trace(_SMALL @ _SMALL)))
        acc += sum(k * i % 5 for k in range(200))
    acc += float(np.linalg.eigh(_HERMITIAN)[0][0])
    acc += float((_DENSE @ _DENSE)[0, 0].real)
    return acc


class HostSpeed:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._last = time.perf_counter()

    def sample(self, calls: int = 1) -> None:
        for _ in range(calls):
            start = time.perf_counter()
            reference_kernel()
            end = time.perf_counter()
            self.starts.append(start)
            self.durations.append(end - start)
        self._last = time.perf_counter()

    def sample_due(self) -> None:
        """Sample once per INTERVAL_S since the last sample, in one burst."""
        due = int((time.perf_counter() - self._last) / INTERVAL_S)
        if due:
            self.sample(min(due, MAX_BURST))

    def factor(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.starts, start - MARGIN_S)
        hi = bisect.bisect_right(self.starts, end + MARGIN_S)
        # sample_due() before every op leaves a sample within MARGIN_S of it.
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.durations)
