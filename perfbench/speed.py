"""Machine-speed calibration for timings taken on a shared host.

On a shared machine the speed of this process can drop by 70 % for several
seconds at a time, under load from outside it; the raw median of a 35 s run
then spreads by 20-40 % from run to run.  The benchmark therefore times a
fixed kernel every ``INTERVAL_S`` seconds, between operations and never
inside one, and reports each operation's wall time scaled by
``REFERENCE_S / kernel time`` measured around it.  The kernel shares no
code with gptrank -- it is a carry-less multiply over GF(2^28) written out
here -- so a change to the program cannot change the scale.
"""

from __future__ import annotations

import bisect
import statistics
import time

# Median kernel time on an unloaded core of the machine the benchmark was
# built on (2-core x86_64 VM, CPython 3.11).  It only fixes the unit, so
# scaled times read as milliseconds on that machine.
REFERENCE_S = 1.0e-3
INTERVAL_S = 0.05
WINDOW_S = 0.25

_MODULUS = (1 << 28) | 0b1001
_OPERANDS = [((i * 2654435761) ^ (i << 7)) & 0xFFFFFFF | 1 for i in range(1, 201)]


def kernel():
    out = []
    m = _MODULUS
    for a in _OPERANDS:
        b = a ^ 0x5A5A5A5
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            b >>= 1
        for bit in range(54, 27, -1):
            if (r >> bit) & 1:
                r ^= m << (bit - 28)
        out.append(r)
    return out


class Speed:
    """Kernel times, stamped with when they were taken."""

    def __init__(self):
        self._stamps = []
        self._times = []

    def measure(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self._stamps.append(t1)
        self._times.append(t1 - t0)

    def due(self):
        """Measure if ``INTERVAL_S`` has passed since the last measurement."""
        if not self._stamps or time.perf_counter() - self._stamps[-1] >= INTERVAL_S:
            self.measure()

    def summary(self):
        return (f"speed kernel: median {1000 * statistics.median(self._times):.3f} ms over "
                f"{len(self._times)} measurements, reference {1000 * REFERENCE_S:g} ms")

    def scale(self, start, end):
        """Factor that turns wall seconds spent in [start, end] into reference seconds."""
        lo = bisect.bisect_left(self._stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self._stamps, end + WINDOW_S)
        if lo == hi:
            raise RuntimeError("no speed measurement near a timed operation")
        return REFERENCE_S / statistics.median(self._times[lo:hi])
