"""Host-speed calibration for the benchmark's time metrics.

On the shared 2-CPU host that the README's figures come from, the same
pure-Python code runs at two speeds, for stretches from under a second to
over a minute: a fixed Fraction loop takes 12 ms or 20-23 ms.  Raw times, and any median or minimum
of them over a 30 s run, move with the share of slow time in the run.  So a
time is measured together with ``sample()``, the time of a fixed loop run
right before and right after it, and reported by ``scaled()`` in reference
seconds: seconds on a host where that loop takes ``REFERENCE_S``.  The loop
uses what the package's hot paths use (``Fraction`` arithmetic, tuple-keyed
dicts, a sort) and nothing from the package, so a change to the package
leaves it alone.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

REFERENCE_S = 0.010

_RNG = random.Random(7)
_VALUES = [Fraction(_RNG.randrange(1, 1000), _RNG.randrange(1, 60)) for _ in range(200)]


def _loop() -> int:
    sums = {}
    for i, a in enumerate(_VALUES):
        for b in _VALUES[i:i + 12]:
            s = a + b
            if s < 40:
                sums[(i, b.denominator)] = s
    return len(sorted(sums.values()))


def sample() -> float:
    """Wall time of one run of the calibration loop."""
    began = time.perf_counter()
    _loop()
    return time.perf_counter() - began


def scaled(seconds: float, calibration_s: float) -> float:
    """``seconds`` measured while the calibration loop took ``calibration_s``,
    in reference seconds."""
    return seconds * REFERENCE_S / calibration_s
