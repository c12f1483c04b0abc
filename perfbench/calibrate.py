"""A fixed loop that measures how fast the host runs Python right now.

``calibration_seconds`` times a loop of small numpy and Python-object work,
the mix urbanprop spends its time on.  On a shared host its time swings by
tens of percent within minutes, together with the program's times, so the
benchmark divides timed work by it (``run.HostClock``).

Run as a script, this file is a helper process for calibrating a second
core: it answers each line on standard input with one calibration time on
standard output and exits at end of input.
"""

import gc
import sys
import time

import numpy as np

CALIBRATION_REPS = 1000


def calibration_seconds():
    rng = np.random.default_rng(0)
    a, b = rng.random((800, 3)), rng.random((800, 3))
    gc.collect()
    start = time.perf_counter()
    for _ in range(CALIBRATION_REPS):
        np.isfinite(np.einsum("ij,ij->i", a, np.cross(a, b))).sum()
        sum({k: k * 0.5 for k in range(300)}.values())
    return time.perf_counter() - start


if __name__ == "__main__":
    for _line in sys.stdin:
        print(repr(calibration_seconds()), flush=True)
