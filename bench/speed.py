"""Host speed probe, used to put timings from a shared host on one scale.

On a shared 2-vCPU host the same serial pass can take 1.5 times longer from
one minute to the next, and the slow and fast spells last from a fraction of
a second to minutes.  Medians over passes do not remove that: run medians of
raw pass times spread by 20-40% (quartile distance over median) across runs.

So the benchmark times :func:`probe`, a fixed stdlib ``Fraction``
computation that shares no code with qetakit but is the same kind of work,
right before and right after each timed interval, and reports the interval
scaled to the speed at which the probe takes ``REFERENCE_S`` (:func:`scale`).
The raw times are kept in the run's result file and printed next to the
scaled ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: The probe's typical duration on an uncontended 2-vCPU Intel Xeon host
#: with CPython 3.11; scaled times are seconds at that speed.
REFERENCE_S = 0.0035


def probe():
    """Seconds taken by the fixed reference computation, measured now."""
    started = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(1, i % 97 + 1) * i
    return time.perf_counter() - started


def factor(before, after):
    """Scale factor for an interval between two probes of these durations."""
    return 2 * REFERENCE_S / (before + after)
