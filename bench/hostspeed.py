"""How fast the host let a pass run, sampled inside the pass.

The reference host is a 2-vCPU virtual machine on a shared machine.
There the same pure-Python loop takes from 1x to 2x its quiet time from
one moment to the next, the two vCPUs slow down independently of each
other, and the slow spells last from milliseconds to minutes.  Neither
more repetitions nor a calibration timed before and after a pass
steadies the pass's time.  A short loop timed *inside* the pass, every
few milliseconds of its CPU time, on whichever vCPU it runs on at that
moment, does track it.

:class:`Sampler` arms a CPU-time interval timer in the pass and in every
process the pass forks (its pool workers).  At each tick it times
:data:`LOOPS` iterations of a fixed loop.  The loop's quiet time over
its measured time is the speed the vCPU ran at, and the CPU seconds
since the previous tick count at that speed.  :meth:`Sampler.speed` is
the CPU-weighted mean speed over all the processes.  A pass's seconds
times its speed are the seconds it would have taken on a quiet vCPU.
"""

from __future__ import annotations

import mmap
import os
import signal
import time
from typing import Optional

#: Iterations of the timed loop: about 0.2 ms on a quiet vCPU.
LOOPS = 3000
#: One iteration's time on a quiet vCPU of the reference host (the 5th
#: percentile of many samples); it fixes the unit, not the spread.
QUIET_LOOP_S = 60e-9
#: CPU seconds between ticks; the loop costs about 1% of them.
PERIOD_S = 0.02
#: Per-process tallies; forked processes past this share slots.
SLOTS = 256


def _loop() -> int:
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return total


def credit(cpu_s: float, loop_s: float) -> float:
    """Quiet-vCPU seconds of ``cpu_s`` CPU seconds run while the loop
    took ``loop_s``."""
    return cpu_s * QUIET_LOOP_S * LOOPS / loop_s


class Sampler:
    """Samples the speed of the pass and of every process it forks.

    The tallies -- CPU seconds and their quiet-vCPU credit, one pair per
    process -- live in an anonymous shared mapping, so pool workers'
    samples reach the pass even when the pool kills them.
    """

    def __init__(self) -> None:
        self._table = mmap.mmap(-1, SLOTS * 16)
        self._cells = memoryview(self._table).cast("d")
        self._slot = 0
        self._forks = 0
        self._last = 0.0
        self._running = False

    def start(self) -> None:
        self._running = True
        os.register_at_fork(before=self._before_fork,
                            after_in_child=self._in_child)
        signal.signal(signal.SIGPROF, self._tick)
        self._arm()

    def stop(self) -> float:
        """Stop sampling, after a last tick that counts this process's
        CPU time since the previous one; returns :meth:`speed`."""
        self._running = False
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._tick(signal.SIGPROF, None)
        return self.speed()

    def cpu_seconds(self) -> float:
        """CPU seconds sampled so far, over all the processes."""
        return sum(self._cells[0::2])

    def speed(self) -> Optional[float]:
        """CPU-weighted mean speed so far (1 = a quiet vCPU), or None
        before the first tick."""
        cpu = self.cpu_seconds()
        return sum(self._cells[1::2]) / cpu if cpu else None

    def _arm(self) -> None:
        self._last = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def _before_fork(self) -> None:
        self._forks += 1

    def _in_child(self) -> None:
        # Interval timers do not survive fork: re-arm in the child, with
        # a slot of its own (the parent counted this fork before it).
        if self._running:
            self._slot = self._forks % SLOTS
            self._arm()

    def _tick(self, signum, frame) -> None:
        cpu = time.process_time() - self._last
        started = time.perf_counter()
        _loop()
        took = time.perf_counter() - started
        self._cells[2 * self._slot] += cpu
        self._cells[2 * self._slot + 1] += credit(cpu, took)
        self._last = time.process_time()
