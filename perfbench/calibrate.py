"""The clock of the benchmark: CPU time, scaled to a fixed reference speed.

Other tenants of a shared host change how fast this process runs, by up
to a factor of two from one minute to the next: they take turns on the
core (time the process waits) and change the core's speed (clock
frequency, shared caches). Wall times therefore spread more between runs
of the same code than any change worth measuring.

The benchmark times everything with `Calibration.clock`. It advances with
the CPU time of this process, which leaves out the time the process waits
for a core, times the current speed factor: NOMINAL_UNIT_S over the
median CPU time of the reference unit below in its last WINDOW runs.
While the timed work runs, the benchmark calls `maybe()` between
operations; every EVERY_S seconds of CPU time it runs the unit once,
keeps its CPU time and renews the factor, and the clock stands still
while the unit runs. A time on this clock reads as the time the work
would take on a core on which the unit takes NOMINAL_UNIT_S, at the
speed the core had while the work ran.

The unit mixes the kinds of work the program does (numpy over a frame,
many numpy calls on small windows, zlib, plain Python, and page faults on
freshly mapped memory, as the program's large temporary arrays take
them), so a change of core speed moves it and the program alike. The
unit does not use the program, so a change to the program does not move
it. The pipeline is one synchronous thread, so on a core of its own its
wall time equals its CPU time.
"""

from __future__ import annotations

import mmap
import statistics
import time
import zlib

import numpy as np

# about the CPU time of one unit run alone on the 2-vCPU VM the reference
# figures were made on; it fixes what a reported millisecond means
NOMINAL_UNIT_S = 0.0019
EVERY_S = 0.04
# units behind the factor: about a second of work, so the factor follows
# a change of speed within a second while one slow unit does not move it
WINDOW = 25

_rng = np.random.default_rng(20260318)
_IMAGE = (
    _rng.integers(0, 32, (240, 320, 3)) + np.linspace(0, 160, 320)[None, :, None]
).astype(np.uint8)
_ROWS = _IMAGE[:20].tobytes()
_GRID = np.mgrid[0:24, 0:32].astype(np.float64)
_PAGES = 64


def reference_unit() -> float:
    """A fixed amount of work of the program's kinds; returns a value so none is skipped."""
    ema = _IMAGE[::2, ::2].astype(np.float64)
    ema = ema * 0.75 + 12.0
    np.sqrt(ema, out=ema)
    total = float((ema > 6.0).sum())
    for k in range(20):
        d = np.hypot(_GRID[0] - (k % 24), _GRID[1] - (3 * k % 32))
        total += float(np.minimum(d, 5.0).sum())
    total += len(zlib.compress(_ROWS, 6))
    counts: dict[int, int] = {}
    for i in range(2500):
        counts[i & 63] = counts.get(i & 63, 0) + i
    fresh = mmap.mmap(-1, _PAGES * mmap.PAGESIZE)
    for page in range(_PAGES):
        fresh[page * mmap.PAGESIZE] = 1
    fresh.close()
    return total + counts[7]


class Calibration:
    """The scaled CPU-time clock of one run."""

    def __init__(self):
        self.samples: list[float] = []
        for _ in range(3):  # warm up: the first units are slower than any later one
            reference_unit()
        self._factor = 1.0
        self._scaled_at = 0.0
        self._cpu_at = time.process_time()
        for _ in range(WINDOW // 5):
            self.sample()

    def clock(self) -> float:
        """Seconds at the reference speed since the calibration began."""
        return self._scaled_at + self._factor * (time.process_time() - self._cpu_at)

    def sample(self) -> None:
        """Run the reference unit once and renew the factor; the clock skips the unit."""
        start = time.process_time()
        self._scaled_at += self._factor * (start - self._cpu_at)
        reference_unit()
        self._cpu_at = time.process_time()
        self.samples.append(self._cpu_at - start)
        self._factor = NOMINAL_UNIT_S / statistics.median(self.samples[-WINDOW:])

    def maybe(self) -> None:
        """Run the reference unit if EVERY_S of CPU time has passed since the last one."""
        if time.process_time() - self._cpu_at >= EVERY_S:
            self.sample()

    def scale(self) -> float:
        """The run's mean speed factor: NOMINAL_UNIT_S over the median of all units."""
        return NOMINAL_UNIT_S / statistics.median(self.samples)
