"""Machine pace: a fixed pure-Python loop timed between measured calls.

On a shared machine the speed of a core drifts.  On one 2-core x86-64
VM running Python 3.11, each core flipped between two speeds (the loop
below took about 13.5 ms or about 25 ms) within seconds, and run medians
of one analysis differed by up to 30 % between runs.  Every timed call of
the benchmark is therefore bracketed by two pace readings.  The call's
wall time is scaled by ``REFERENCE_PACE_S`` over the mean of the two
readings, so a reported time reads as seconds on a machine whose pace
loop takes exactly ``REFERENCE_PACE_S``.  The raw wall times are kept in
every run record next to the scaled ones.

The loop touches nothing of the program under test, so a change to the
program moves the scaled times exactly as it moves the raw ones.
Standard library only: the client process imports it too.
"""

from __future__ import annotations

import gc
import os
import time
from statistics import median

#: Pace-loop time of the reference machine (the fast state of the VM above).
REFERENCE_PACE_S = 0.015
#: Loop passes per reading; the reading is their median.
PASSES = 3


def _loop() -> float:
    # The collector is off so that the reading does not depend on how many
    # objects the process happens to hold when it is taken.
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        keys = []
        for i in range(50000):
            key = (i, i & 255)
            table[key] = table.get(key, 0.0) + i * 0.5
            keys.append(key)
        keys.sort(key=lambda k: k[1])
        sum(table.values())
        return time.perf_counter() - start
    finally:
        gc.enable()


def pace() -> float:
    """One pace reading: the mean over CPUs of each CPU's median loop time.

    The calling thread visits every CPU it may run on in turn and returns
    to its own CPU set afterwards.  Each CPU's speed drifts on its own, and
    a timed call may run on either of them, or on both (``jobs=2``, the
    client and the service), so the reading covers all of them.
    """
    allowed = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(median(_loop() for _ in range(PASSES)))
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(per_cpu) / len(per_cpu)


class Pacer:
    """Scales each timed interval by the pace read just before and after it."""

    def __init__(self) -> None:
        self.readings = [pace()]

    def restart(self) -> None:
        """Take a fresh "before" reading after an interval left untimed."""
        self.readings.append(pace())

    def scale(self, raw_s: float) -> float:
        """Scale an interval that ended just now; the new reading is reused."""
        self.readings.append(pace())
        return raw_s * REFERENCE_PACE_S / ((self.readings[-2] + self.readings[-1]) / 2.0)
