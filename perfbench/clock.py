"""Host time in reference units, robust to a machine whose speed drifts.

On a shared machine the speed of one core changes by up to 1.8x within
seconds (another tenant on the sibling hyperthread, frequency changes), so
a raw wall-clock median over a 20 s run moves by 20 % from run to run.
:class:`RefClock` cancels that drift: every ``PERIOD_S`` of measured time
it runs a fixed reference loop, and divides each slice of wall
time by the loop's duration measured at the slice's two ends.  The sum is
the work done in *reference units*; multiplied by ``REF_LOOP_S`` -- the
loop's duration on an uncontended core of the machine the benchmark was
calibrated on (Intel Xeon, 2 vCPU) -- it reads as seconds on that core.

The loop is part of the benchmark, not of the program, so a change to
the program cannot move it; it allocates one small dict per call, so it
barely moves the garbage collector's counters.  Time spent in the loop is
excluded from the measured slices (about 2 %).

The clock is driven from the scheduling round, the one boundary every
workload crosses every few milliseconds: :meth:`install` wraps
``DatacenterSimulation._round``, records each round's latency, and closes
a slice when one is due.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, List

import numpy as np

__all__ = ["REF_LOOP_S", "RefClock"]

#: Duration of one :func:`reference_loop` on an uncontended core of the
#: calibration machine.
REF_LOOP_S = 0.33e-3

#: Measured wall time between two reference measurements.
PERIOD_S = 0.05

_ARRAY = np.arange(1 << 16, dtype=np.float64)


def reference_loop() -> float:
    """Fixed work in the program's two modes: interpreted dict traffic on
    small ints, and short numpy reductions."""
    table = {}
    acc = 0
    for i in range(2000):
        table[i & 255] = i
        acc += table.get((i * 7) & 255, 0) ^ i
    for i in range(40):
        acc += _ARRAY[i * 512 : i * 512 + 4096].sum()
    return float(acc)


class RefClock:
    """Measures stretches of program work in reference seconds."""

    def __init__(self) -> None:
        self._undo: Callable[[], None] = lambda: None
        self._active = False
        #: Latency of every round of the current stretch, reference seconds.
        self.rounds: List[float] = []

    def measure_loop(self) -> float:
        """Duration of the reference loop now (best of two, seconds)."""
        clock = time.perf_counter
        t0 = clock()
        reference_loop()
        t1 = clock()
        reference_loop()
        return min(t1 - t0, clock() - t1)

    # ---------------------------------------------------------- stretches

    def start(self) -> None:
        """Begin a measured stretch."""
        self.rounds = []
        self._pending: List[float] = []
        self._units = 0.0
        self._raw = 0.0
        self._loop_s = self.measure_loop()
        self._active = True
        self._mark = time.perf_counter()

    def stop(self) -> float:
        """End the stretch; returns its duration in reference seconds."""
        self._close(time.perf_counter())
        self._active = False
        return self._units * REF_LOOP_S

    @property
    def raw_s(self) -> float:
        """Wall seconds of the last stretch, reference loops excluded."""
        return self._raw

    def _close(self, now: float) -> None:
        elapsed = now - self._mark
        loop_s = self.measure_loop()
        scale = REF_LOOP_S / ((self._loop_s + loop_s) / 2)
        self._units += elapsed / ((self._loop_s + loop_s) / 2)
        self._raw += elapsed
        self.rounds.extend(r * scale for r in self._pending)
        self._pending.clear()
        self._loop_s = loop_s
        self._mark = time.perf_counter()

    # ------------------------------------------------------------- probe

    def install(self) -> None:
        import repro.engine.datacenter as datacenter

        cls = datacenter.DatacenterSimulation
        original = cls.__dict__["_round"]
        clock = time.perf_counter

        @functools.wraps(original)
        def timed_round(engine):
            start = clock()
            try:
                return original(engine)
            finally:
                end = clock()
                if self._active:
                    self._pending.append(end - start)
                    if end - self._mark >= PERIOD_S:
                        self._close(end)

        cls._round = timed_round
        self._undo = lambda: setattr(cls, "_round", original)

    def uninstall(self) -> None:
        self._undo()
