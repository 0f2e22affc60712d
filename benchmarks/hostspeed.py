"""Scaling measured times to a reference host speed.

On a shared host the same Python code runs up to ~1.7x slower for seconds
or minutes at a time, with CPU time growing as much as wall time: the vCPU
itself is slower, so no statistic over one run can hide it. The benchmark
therefore times a fixed reference kernel between requests and scales each
request's time by REFERENCE_S over the kernel's time around it. A scaled
time reads as the time on a host where the kernel takes REFERENCE_S. The
kernel does the kind of work simplewedge's hot loops do (Fraction
arithmetic, tuple-keyed dicts) but runs none of its code, so a change to
simplewedge cannot move it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter
from typing import List

REFERENCE_S = 0.010
# a segment of requests closes, and the kernel runs, after this much request time
SEGMENT_S = 0.25


def kernel_seconds() -> float:
    """Time one run of the reference kernel (about 10 ms)."""
    start = perf_counter()
    table = {}
    for i in range(1, 2500):
        f = Fraction(i, 7) - Fraction(3, i + 1)
        table[(f.numerator % 97, f.denominator % 89)] = f
    return perf_counter() - start


class HostClock:
    """Kernel timings taken at segment boundaries; `factor` closes a segment."""

    def __init__(self) -> None:
        self.kernel_times: List[float] = [kernel_seconds()]

    def factor(self) -> float:
        """Scale factor for the time since the previous boundary: REFERENCE_S
        over the mean kernel time at its two ends."""
        self.kernel_times.append(kernel_seconds())
        return scaled(1.0, self.kernel_times[-2], self.kernel_times[-1])


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between kernel timings `before` and `after`, scaled."""
    return seconds * 2 * REFERENCE_S / (before + after)
