"""Timing rules shared by ``run.py`` and ``worker.py``.

**Why times are scaled.** On the shared 2-CPU VM this benchmark was tuned on,
the same CPU-bound work ran up to 1.8x slower for stretches of seconds to
minutes, and CPU time slowed as much as wall time. Two sets of raw timings
of the same code drifted apart by up to 56%. So a fixed calibration loop,
which calls no lprl code, runs just before and just after every timed item,
on the same CPU (``run.py`` pins the benchmark to one), and the item is
reported as

    seconds * REF_S / (mean of the two calibrations around it)

that is, in seconds at the machine speed at which the loop takes ``REF_S``.
A change to lprl moves the item's time and not the loop's, so it shows in
full; a slow stretch of the machine moves both and mostly cancels. Over 5
minutes of `lprl build`/`verify` commands on that VM, this cut the spread
(IQR over median) of a command's time from about 0.2 to 0.03-0.12. The loop
mixes integer, numpy and page-fault work, the mix that tracked those
commands best; adding allocation-heavy or float loops made it worse.
"""

from __future__ import annotations

import math
import mmap
import time

import numpy as np

# passes a plain (untraced) run makes at least
MIN_PASSES = 3
# seconds the calibration loop took at a typical speed of the VM it was tuned on
REF_S = 0.04

_FLOATS = np.arange(1, 100_001, dtype=float)
_FAULT_PAGES = 2048


def _calibration_work():
    s = 0
    for i in range(125_000):
        s += i * i
    for _ in range(8):
        np.cumsum(_FLOATS ** -1.5)
        math.fsum(_FLOATS[:10_000].tolist())
    # fresh pages: lprl's builds and verifies spend a third of their time
    # in the kernel, mostly on page faults from large temporary arrays
    for _ in range(2):
        buf = mmap.mmap(-1, _FAULT_PAGES * mmap.PAGESIZE)
        buf[::mmap.PAGESIZE] = b"\x01" * _FAULT_PAGES
        buf.close()


def calibrate():
    """Seconds the calibration loop takes now."""
    start = time.perf_counter()
    _calibration_work()
    return time.perf_counter() - start


class Yardstick:
    """Calibrates before the first timed item and after each one."""

    def __init__(self):
        self.samples = [calibrate()]

    def factor(self):
        """Scale for the item (or batch) timed since the previous call."""
        self.samples.append(calibrate())
        return REF_S / ((self.samples[-2] + self.samples[-1]) / 2)


def more_passes(done, start, rule):
    """Closed-loop stop rule, checked between passes: at least
    ``rule["min_passes"]`` passes, then more until ``rule["seconds"]`` have
    passed since ``start``."""
    return done < rule["min_passes"] or time.perf_counter() - start < rule["seconds"]
