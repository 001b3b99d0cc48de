"""Machine-speed calibration.

On a shared machine the same work runs 15-30 % slower for stretches of
seconds to minutes (CPU time rises with wall time, so it is the machine's
speed, not scheduling).  The benchmark therefore times a fixed piece of
work next to every measurement and reports times scaled to the speed at
which that work takes :data:`REFERENCE_SECONDS`.  The calibration work is
shaped like the program's hot paths: float formatting and parsing in
Python, and integer histogram passes in numpy.  Its arrays are small so
that it does not move the peak RSS of the process.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_SECONDS = 0.010

_VALUES = (np.arange(2000) % 15) * (8 / 3)
_INDEX = (np.arange(50_000) * 7919) % 65_536


def calibration_seconds() -> float:
    """Seconds the fixed calibration work takes right now."""
    start = time.perf_counter()
    for _ in range(2):
        text = ",".join(f"{v:.10g}" for v in _VALUES)
        [float(token) for token in text.split(",")]
    for _ in range(8):
        np.bincount(_INDEX, minlength=65_536).cumsum()
    return time.perf_counter() - start


def at_reference_speed(seconds: float, calibration: float) -> float:
    """``seconds`` measured while the calibration took ``calibration`` seconds,
    scaled to the reference speed."""
    return seconds * REFERENCE_SECONDS / calibration
