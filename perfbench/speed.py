"""Machine-speed calibration for the end-to-end times.

The machine this benchmark runs on is shared: its speed drifts by tens of
percent over seconds to minutes, and the drift moves wall time and CPU
time alike.  Each workload process therefore interleaves a fixed
calibration kernel with its ops and reports every time scaled to a
reference speed:

    reported = measured * REFERENCE_REP_S / median(calibration rep times)

The kernel mixes the three kinds of work the ops are made of: interpreter
loops, numpy calls on 256-node vectors and passes over a 256^2 array.  It
uses no ``nehari`` code, so a change of the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# one calibration rep on a quiet 2-core x86 machine (numpy 2.4, Python 3.11)
REFERENCE_REP_S = 0.018
# calibrate after each op for this share of the op's time (at least one rep)
SHARE = 0.1

_SMALL = np.linspace(-1.0, 1.0, 256)
_LARGE = np.outer(np.linspace(0.0, 1.0, 256), np.linspace(1.0, 2.0, 256))


def rep() -> float:
    """One calibration rep; returns its wall time."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += (i % 7) * 0.5
    a = _SMALL
    for _ in range(200):
        b = np.abs(a) ** 3.0 - 0.5 * (np.roll(a, 1) + np.roll(a, -1))
        acc += float(np.sum(np.sort(b * a)))
    b = _LARGE
    for _ in range(4):
        c = np.abs(b) ** 3.0 - 0.5 * (np.roll(b, 1, axis=0) + np.roll(b, -1, axis=1))
        acc += float(np.sum(np.sort(c * b, axis=None)))
    return time.perf_counter() - t0


class Calibration:
    """Calibration reps spread over a process's life."""

    def __init__(self):
        self.reps: list[float] = []

    def after(self, op_seconds: float) -> None:
        """Reps for a tenth of the op's time, at least one."""
        spent = 0.0
        while spent == 0.0 or spent < SHARE * op_seconds:
            self.reps.append(rep())
            spent += self.reps[-1]

    def factor(self) -> float:
        """Multiply a time measured in this process by this to get it at the reference speed."""
        return REFERENCE_REP_S / statistics.median(self.reps)
