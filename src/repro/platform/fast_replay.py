"""Vectorized fast-path trace replay.

The event-by-event :class:`~repro.platform.replay.TraceReplayer` walks
every :class:`~repro.gcalgo.trace.TraceEvent` through Python attribute
dispatch; for large traces the *timing layer* dominates experiment
runtime.  :class:`FastTraceReplayer` costs a whole
:class:`~repro.gcalgo.columnar.CompiledTrace` through the replay kernel
:func:`~repro.platform.batched.kernel_for` picks for the platform and
GC thread count — closed-form for ``ideal`` and single-thread
``cpu-ddr4``, batched-stateful everywhere else (see
:mod:`repro.platform.batched`).  Every kernel speaks one protocol, so
one replay loop drives them all.

Equivalence contract (what the golden tests in
``tests/test_fast_replay_equivalence.py`` assert): integer counters
(DRAM/link/TSV bytes, bitmap-cache hits/accesses) are *exactly* equal —
they are pure integer functions of the events — while float quantities
(wall, per-primitive seconds, energy) agree to 1e-9 relative tolerance,
absorbing the summation-order difference between per-event and bulk
accounting (~n*eps).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.config import REPLAY_MODES
from repro.errors import ConfigError
from repro.gcalgo.columnar import CompiledTrace, compile_trace
from repro.gcalgo.trace import GCTrace, Primitive
from repro.obs.eventlog import COLLECTOR_FOR_KIND, get_eventlog
from repro.obs.tracer import get_tracer
from repro.platform.base import Platform
from repro.platform.batched import kernel_for
from repro.platform.replay import TraceReplayer, perf_counter
from repro.platform.timing import GCTimingResult

__all__ = ["FastTraceReplayer", "make_replayer"]


class FastTraceReplayer(TraceReplayer):
    """Kernel-driven replay of compiled traces.

    Accepts :class:`GCTrace` or :class:`CompiledTrace` inputs (objects
    are compiled on the fly; feed compiled traces to skip that cost).
    Residual (non-offloadable) phase work still goes through the real
    :meth:`HostCostModel.residual_seconds` scalar path in phase order,
    so its resource accounting — and on HMC-backed platforms its
    stateful cube round-robin — evolves identically to the event-by-
    event replayer.  A platform no kernel models raises
    :class:`~repro.errors.ConfigError`.
    """

    def __init__(self, platform: Platform,
                 threads: Optional[int] = None) -> None:
        super().__init__(platform, threads=threads)
        self._kernel = kernel_for(platform, self.threads)
        self.kernel_name = self._kernel.name

    def replay(self, trace: Union[GCTrace, CompiledTrace]
               ) -> GCTimingResult:
        compiled = (trace if isinstance(trace, CompiledTrace)
                    else compile_trace(trace))
        platform = self.platform
        kernel = self._kernel
        started = perf_counter()
        chunks_before = kernel.chunks_processed
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
        residual_seconds = 0.0
        host_busy = flush_seconds
        before = self._snapshot()
        # Stage 1: plans and bulk accounting for the whole trace (after
        # the snapshot so counter deltas attribute to this GC).
        kernel.begin(compiled)

        now = work_start
        runs = compiled.phase_runs()
        for name, lo, hi in runs:
            phase_start = now
            barrier, busy = kernel.run_phase(lo, hi, now,
                                             primitive_seconds)
            host_busy += busy
            now = barrier
            work = compiled.residuals.get(name)
            if work is not None:
                share = platform.cost_model.residual_seconds(
                    now, work, self._residual_threads)
                residual_seconds += share * self._residual_threads
                host_busy += share * self._residual_threads
                now += share
            platform.phase_end(name)
            if obs is not None:
                obs.add_span(name, phase_start, now - phase_start,
                             cat="phase", args={"gc": compiled.kind,
                                                "events": hi - lo})

        # Residual-only phases that had no events (e.g. summary), in
        # the trace's insertion order — same as the event-by-event path.
        seen = {name for name, _, _ in runs}
        for name, work in compiled.residuals.items():
            if name in seen:
                continue
            share = platform.cost_model.residual_seconds(
                now, work, self._residual_threads)
            residual_seconds += share * self._residual_threads
            host_busy += share * self._residual_threads
            if obs is not None:
                obs.add_span(name, now, share, cat="phase",
                             args={"gc": compiled.kind, "events": 0})
            now += share
            platform.phase_end(name)

        if obs is not None:
            obs.add_span(f"{compiled.kind} gc", gc_start, now - gc_start,
                         cat="gc",
                         args={"platform": platform.name,
                               "events": len(compiled.events)})
        self.clock = now
        result = self._package(compiled.kind, gc_start, now,
                               flush_seconds, primitive_seconds,
                               residual_seconds, host_busy, before)
        host_seconds = perf_counter() - started
        self._note_replay(len(compiled.events), host_seconds,
                          chunks=kernel.chunks_processed - chunks_before)
        eventlog = get_eventlog()
        if eventlog.enabled:
            eventlog.emit(
                "gc_pause",
                collector=COLLECTOR_FOR_KIND.get(compiled.kind,
                                                 compiled.kind),
                kind=compiled.kind, platform=platform.name,
                sim_ns=int((now - gc_start) * 1e9),
                host_ns=int(host_seconds * 1e9),
                events=len(compiled.events))
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
