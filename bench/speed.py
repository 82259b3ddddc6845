"""Host speed, measured with a fixed reference loop.

The benchmark runs on shared machines.  There, other tenants slow every
process by up to a factor of two, for minutes at a time; the best or the
median time within one run cannot escape a slow spell that long.  So a
run times this loop of exact rational arithmetic next to its work (in
the child after every op of a round; in the runner after every command
of a cli cycle), for a quarter of the time the work took, and
reports each time scaled to the host speed at which one pass of the loop
takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / (mean loop time around it)

The loop uses only the standard library, so no change to lefscalc can
change it, and it does the same kind of work as lefscalc (small
``Fraction`` products and sums), so a slow spell slows both alike.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Best time of one pass on the baseline host (an Intel Xeon vCPU at
# 2.1 GHz, Python 3.11): 3.73 ms over 3000 passes in 20 s.
REFERENCE_S = 0.00373
LOOP_TERMS = 800
# Loop time per second of work.  One pass varies by about 30 % from the
# next, so the mean over a round needs many passes to be steady.
LOOP_SHARE = 0.25


def _loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, LOOP_TERMS + 1):
        total += Fraction(1, i) * Fraction(i + 1, i + 2)
    return total


def loop_seconds() -> float:
    """Time one pass of the reference loop."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def loop_after(seconds: float) -> list:
    """Time passes of the loop, at least one, until they add up to
    LOOP_SHARE of `seconds`, the time of the work just done."""
    times = [loop_seconds()]
    while sum(times) < LOOP_SHARE * seconds:
        times.append(loop_seconds())
    return times


def scale(loop_times: list) -> float:
    """The factor that turns a time measured next to `loop_times` into a
    time at the reference speed."""
    return REFERENCE_S * len(loop_times) / sum(loop_times)
