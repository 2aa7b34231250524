"""The machine's current speed, from a fixed kernel timed next to the work.

Shared machines change speed by up to 2x, between processes and from one
second to the next within one, while the process keeps its CPU.  A run times
`kernel` once before every operation.  Each operation's timing is then
scaled to a reference speed: multiplied by REF_S over the kernel's local
time, the mean of the NEAR kernel timings just before the operation and
the NEAR just after it.  A long operation that spans a change of speed so
gets the mean of the speeds on either side.  `ops_per_s`, `op_p50_ms`,
`op_p90_ms` and the traced self times are made of such scaled timings.
`setup_s` is not: start-up is mostly reading and unmarshalling modules,
whose time the kernel does not follow.

The kernel is stdlib Python only and never calls the package, so a change
to the package moves the scaled times as it moves the raw ones.  Changing
the kernel or REF_S changes every scaled figure: do neither without
measuring the baseline again.
"""

from __future__ import annotations

import time
from fractions import Fraction

REF_S = 0.0004   # the kernel's time at the reference speed
NEAR = 2         # kernel timings on each side of an operation in its local time


def kernel():
    """Fixed work in the package's style: Fraction arithmetic whose
    denominators grow, tuple-keyed dict stores, small int operations."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 120):
        acc += Fraction(i % 7 + 1, i)
        table[(i, i % 5)] = acc.numerator % 97
    return len(table)


def timed_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def local_times(samples, near=NEAR):
    """For the operation timed just after samples[j], the mean of the
    `near` kernel timings up to samples[j] and the `near` after it."""
    out = []
    for j in range(len(samples)):
        around = samples[max(0, j - near + 1):j + near + 1]
        out.append(sum(around) / len(around))
    return out


def scale(seconds, kernel_s):
    """A timing made while the kernel took `kernel_s`, at the reference speed."""
    return seconds * REF_S / kernel_s
