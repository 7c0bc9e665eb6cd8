"""Vectorized fast-path trace replay.

The event-by-event :class:`~repro.platform.replay.TraceReplayer` walks
every :class:`~repro.gcalgo.trace.TraceEvent` through Python attribute
dispatch; for large traces the *timing layer* dominates experiment
runtime.  :class:`FastTraceReplayer` costs the event columns of a whole
:class:`~repro.gcalgo.trace.GCTrace` through the replay kernel
:func:`~repro.platform.batched.kernel_for` picks for the platform and
GC thread count — closed-form for ``ideal`` and single-thread
``cpu-ddr4``, batched-stateful everywhere else (see
:mod:`repro.platform.batched`).  Every kernel speaks one protocol, so
one call path drives them all: ``begin`` plans the trace, and one
``run_phase`` call replays all of it — every phase run, each phase's
residual host work at its barrier, and the bitmap-cache flush after
each MajorGC phase, in the event-by-event replayer's order.  For the
batched kernels that call is one compiled ``_stage2.c`` call per trace,
and the platform objects' state is loaded once before it and written
back once after it.

Equivalence contract (what the golden tests in
``tests/test_fast_replay_equivalence.py`` assert): integer counters
(DRAM/link/TSV bytes, bitmap-cache hits/accesses) are *exactly* equal —
they are pure integer functions of the events — while float quantities
(wall, per-primitive seconds, energy) agree to 1e-9 relative tolerance,
absorbing the summation-order difference between per-event and bulk
accounting (~n*eps).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.config import REPLAY_MODES
from repro.errors import ConfigError
from repro.gcalgo.trace import GCTrace, Primitive
from repro.obs.tracer import get_tracer
from repro.platform.base import Platform
from repro.platform.batched import kernel_for
from repro.platform.replay import TraceReplayer, perf_counter
from repro.platform.timing import GCTimingResult

__all__ = ["FastTraceReplayer", "make_replayer"]


class FastTraceReplayer(TraceReplayer):
    """Kernel-driven replay of a trace's event columns.

    The kernel plans the trace (``begin``), then replays it in one
    ``run_phase`` call: every phase run, its residual (non-offloadable)
    share at the barrier and the bitmap-cache flush after each MajorGC
    phase, in the event-by-event replayer's order.  The batched kernels
    do all of it in compiled C, the closed-form kernel in Python through
    the scalar :meth:`HostCostModel.residual_seconds`.  Phase spans come
    from the kernel's per-step ``span`` array, read only when the
    tracer is enabled.  A platform no kernel models raises
    :class:`~repro.errors.ConfigError`.
    """

    def __init__(self, platform: Platform,
                 threads: Optional[int] = None) -> None:
        super().__init__(platform, threads=threads)
        self._kernel = kernel_for(platform, self.threads)
        self.kernel_name = self._kernel.name

    def replay(self, trace: GCTrace) -> GCTimingResult:
        platform = self.platform
        kernel = self._kernel
        started = perf_counter()
        obs = get_tracer()
        if not obs.enabled:
            obs = None
        gc_start = self.clock
        work_start = platform.begin_gc(gc_start)
        flush_seconds = work_start - gc_start
        if obs is not None and flush_seconds > 0.0:
            obs.add_span("llc-flush", gc_start, flush_seconds,
                         cat="phase", args={"platform": platform.name})

        primitive_seconds: Dict[Primitive, float] = {}
        before = self._snapshot()
        # Stage 1: plans, steps and bulk accounting for the whole trace
        # (after the snapshot so counter deltas attribute to this GC);
        # stage 2: every step, residual and flush in one call.
        kernel.begin(trace)
        now, residual_seconds = kernel.run_phase(
            0, len(trace.events), work_start, primitive_seconds)
        if obs is not None:
            steps = kernel.steps
            for name, lo, hi, (start, seconds) in zip(
                    steps.names, steps.lo.tolist(), steps.hi.tolist(),
                    kernel.span.reshape(-1, 2).tolist()):
                obs.add_span(name, start, seconds, cat="phase",
                             args={"gc": trace.kind, "events": hi - lo})
            obs.add_span(f"{trace.kind} gc", gc_start, now - gc_start,
                         cat="gc",
                         args={"platform": platform.name,
                               "events": len(trace.events)})
        self.clock = now
        result = self._package(trace.kind, gc_start, now,
                               flush_seconds, primitive_seconds,
                               residual_seconds, before)
        self._note_replay(len(trace.events), perf_counter() - started)
        return result


def make_replayer(platform: Platform, threads: Optional[int] = None,
                  mode: str = "fast") -> TraceReplayer:
    """Build the replayer for ``platform``.

    ``mode`` is ``"fast"`` (the kernel-driven :class:`FastTraceReplayer`)
    or ``"event"`` (the event-by-event :class:`TraceReplayer`, the
    golden oracle).
    """
    if mode not in REPLAY_MODES:
        raise ConfigError(f"unknown replay mode {mode!r}; "
                          f"expected one of {', '.join(REPLAY_MODES)}")
    if mode == "event":
        return TraceReplayer(platform, threads=threads)
    return FastTraceReplayer(platform, threads=threads)
