"""The reference kernel: the benchmark's measure of the host's current speed.

Four products of a fixed 8x8 complex matrix in pure Python, the kind of
work qerase does. The host is a shared VM whose speed drifts by up to 1.5x
for tens of seconds at a time, so time metrics are divided by the kernel's
time measured next to them. qerase never runs this code, so a faster program
still reads faster.
"""

from __future__ import annotations

from time import perf_counter

REF_MATRIX = tuple(tuple(complex(i + 0.5 * j, i - j) for j in range(8)) for i in range(8))
REF_PRODUCTS = 4
# Set-up time is reported in seconds on a host where one kernel run takes
# this long (about its time on the 2-vCPU Xeon VM the benchmark was tuned on).
NOMINAL_S = 0.5e-3


def reference_s() -> float:
    """Wall time of one run of the reference kernel."""
    a = REF_MATRIX
    t0 = perf_counter()
    for _ in range(REF_PRODUCTS):
        [tuple(sum(row[k] * a[k][j] for k in range(8)) for j in range(8)) for row in a]
    return perf_counter() - t0
