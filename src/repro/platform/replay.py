"""The trace replayer: traces x platform -> timing/energy results.

Events execute on the configured number of GC threads.  Within each
phase, every event goes to the least-loaded thread (work stealing keeps
HotSpot's parallel collectors balanced, so the least-loaded assignment
is the right approximation); phase boundaries are barriers, and each
phase's residual (non-offloadable) host work is divided evenly across
threads at its barrier.  Resource contention couples the threads: every
memory stream reserves real bandwidth on the shared fluid resources, so
eight threads hammering two DDR4 channels saturate exactly as the paper
describes.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Dict, Iterable, List, Tuple

from repro.gcalgo.trace import GCTrace, Primitive, TraceEvent
from repro.obs.tracer import get_tracer
from repro.platform.base import Platform
from repro.platform.timing import GCTimingResult, PlatformEnergy


class TraceReplayer:
    """Replays successive GC traces on one platform instance."""

    #: Which replay kernel this replayer drives; the fast path
    #: overrides it ("closed-form" or a batched kernel name) and every
    #: result carries it as ``replay_kernel``.
    kernel_name = "event"

    def __init__(self, platform: Platform, threads: int = None) -> None:
        self.platform = platform
        self.threads = (platform.config.gc_threads if threads is None
                        else threads)
        if self.threads < 1:
            raise ValueError("need at least one GC thread")
        cores = platform.config.host.num_cores
        if not platform.offloads:
            # Host-executed primitives need a core each; extra GC
            # threads beyond the core count cannot add parallelism.
            self.threads = min(self.threads, cores)
        # Residual work always runs on the host, core-bounded even when
        # many more threads sit blocked on offload responses.
        self._residual_threads = min(self.threads, cores)
        self.clock = 0.0  # global time; GCs replay back to back

    # -- public API --------------------------------------------------------

    def replay(self, trace: GCTrace) -> GCTimingResult:
        """Replay one GC trace; returns its timing result."""
        platform = self.platform
        started = perf_counter()
        # One enabled check per GC keeps the disabled path at a single
        # attribute read; ``obs is None`` guards every span below.
        obs = get_tracer()
        if not obs.enabled:
            obs = None
        gc_start = self.clock
        work_start = platform.begin_gc(gc_start)
        flush_seconds = work_start - gc_start
        if obs is not None and flush_seconds > 0.0:
            obs.add_span("llc-flush", gc_start, flush_seconds,
                         cat="phase", args={"platform": platform.name})

        thread_clock = [work_start] * self.threads
        primitive_seconds: Dict[Primitive, float] = {}
        residual_seconds = 0.0
        host_busy = flush_seconds  # LLC flush occupies the host
        before = self._snapshot()

        phases = self._phases(trace)
        for phase, events in phases:
            phase_start = thread_clock[0]
            # Least-loaded thread assignment via a heap of clocks.
            heap: List[Tuple[float, int]] = [
                (clock, index) for index, clock in enumerate(thread_clock)]
            heapq.heapify(heap)
            for event in events:
                now, index = heapq.heappop(heap)
                finish = platform.offload_finish(now, event,
                                                 trace.kind)
                duration = finish - now
                primitive_seconds[event.primitive] = \
                    primitive_seconds.get(event.primitive, 0.0) + duration
                if not platform.offloads:
                    host_busy += duration
                elif platform.name != "ideal":
                    # The host thread blocks on the response; only the
                    # dispatch instant burns host pipeline.
                    host_busy += \
                        platform.config.costs.charon_dispatch_overhead_s
                heapq.heappush(heap, (finish, index))
            for clock, index in heap:
                thread_clock[index] = clock
            # The phase's residual host work, split across threads.
            work = trace.residuals.get(phase)
            if work is not None:
                barrier = max(thread_clock)
                share = platform.cost_model.residual_seconds(
                    barrier, work, self._residual_threads)
                residual_seconds += share * self._residual_threads
                host_busy += share * self._residual_threads
                barrier += share
                thread_clock = [barrier] * self.threads
            else:
                barrier = max(thread_clock)
                thread_clock = [barrier] * self.threads
            platform.phase_end(phase)
            if obs is not None:
                obs.add_span(phase, phase_start,
                             thread_clock[0] - phase_start, cat="phase",
                             args={"gc": trace.kind,
                                   "events": len(events)})

        # Residual-only phases that had no events (e.g. summary).
        # ``phases`` is reused from above: event phase segmentation is a
        # pure function of the trace, recomputing it would double the
        # cost of short traces.
        leftover = [name for name in trace.residuals
                    if name not in {p for p, _ in phases}]
        now = max(thread_clock)
        for phase in leftover:
            share = platform.cost_model.residual_seconds(
                now, trace.residuals[phase], self._residual_threads)
            residual_seconds += share * self._residual_threads
            host_busy += share * self._residual_threads
            if obs is not None:
                obs.add_span(phase, now, share, cat="phase",
                             args={"gc": trace.kind, "events": 0})
            now += share
            platform.phase_end(phase)

        if obs is not None:
            obs.add_span(f"{trace.kind} gc", gc_start, now - gc_start,
                         cat="gc",
                         args={"platform": platform.name,
                               "events": len(trace.events)})
        self.clock = now
        result = self._package(trace.kind, gc_start, now, flush_seconds,
                               primitive_seconds, residual_seconds,
                               host_busy, before)
        self._note_replay(len(trace.events), perf_counter() - started)
        return result

    def replay_all(self, traces: Iterable[GCTrace]) -> GCTimingResult:
        """Replay a run's GC events back to back; returns the combined
        result."""
        results = [self.replay(trace) for trace in traces]
        return GCTimingResult.combine(results)

    # -- internals -----------------------------------------------------------

    def _note_replay(self, events: int, elapsed: float,
                     chunks: int = 0) -> None:
        """Record which kernel replayed how much, and how fast.

        Feeds the ``replay.kernel_*`` metrics ``repro stats`` reports,
        so a run always shows whether the fast path actually ran (and
        the CI fast-path-coverage check can fail on silent fallbacks).
        """
        from repro.obs.metrics import global_metrics

        scope = global_metrics().scope("replay")
        labels = {"kernel": self.kernel_name,
                  "platform": self.platform.name}
        scope.counter("kernel_events",
                      "events replayed through this kernel",
                      **labels).add(events)
        scope.counter("kernel_seconds",
                      "host wall-clock seconds spent replaying",
                      **labels).add(elapsed)
        if chunks:
            scope.counter("kernel_chunks",
                          "stage-2 chunks the batched kernels consumed",
                          **labels).add(chunks)
        if elapsed > 0:
            scope.gauge("kernel_events_per_sec",
                        "replay throughput of the last GC",
                        **labels).set(events / elapsed)

    def _snapshot(self) -> Tuple:
        """Platform counter snapshot taken at GC start."""
        platform = self.platform
        return (platform.charon_busy_seconds(),
                platform.bitmap_cache_counters(),
                platform.memory_snapshot(),
                platform.traffic_detail())

    def _package(self, gc_kind: str, gc_start: float, now: float,
                 flush_seconds: float,
                 primitive_seconds: Dict[Primitive, float],
                 residual_seconds: float, host_busy: float,
                 before: Tuple) -> GCTimingResult:
        """Assemble the timing result from counter deltas.

        Shared with the vectorized fast path so both replayers report
        through identical accounting code.
        """
        platform = self.platform
        charon_busy_before, (bc_hits_before, bc_accesses_before), \
            (bytes_before, energy_before), traffic_before = before
        wall = now - gc_start
        bytes_after, energy_after = platform.memory_snapshot()
        result = GCTimingResult(
            platform=platform.name,
            gc_kind=gc_kind,
            wall_seconds=wall,
            primitive_seconds=primitive_seconds,
            residual_seconds=residual_seconds,
            flush_seconds=flush_seconds,
            dram_bytes=bytes_after - bytes_before,
        )
        traffic_after = platform.traffic_detail()
        if traffic_after:
            result.link_bytes = int(traffic_after["link_bytes"]
                                    - traffic_before.get("link_bytes", 0))
            result.tsv_bytes = int(traffic_after["tsv_bytes"]
                                   - traffic_before.get("tsv_bytes", 0))
            result.local_fraction = traffic_after["local_fraction"]
        bc_hits, bc_accesses = platform.bitmap_cache_counters()
        result.bitmap_cache_hits = bc_hits - bc_hits_before
        result.bitmap_cache_accesses = bc_accesses - bc_accesses_before
        result.energy = self._energy(
            wall, host_busy, energy_after - energy_before,
            platform.charon_busy_seconds() - charon_busy_before)
        result.replay_kernel = self.kernel_name
        return result

    @staticmethod
    def _phases(trace: GCTrace) -> List[Tuple[str, List[TraceEvent]]]:
        phases: List[Tuple[str, List[TraceEvent]]] = []
        for event in trace.events:
            if not phases or phases[-1][0] != event.phase:
                phases.append((event.phase, []))
            phases[-1][1].append(event)
        return phases

    def _energy(self, wall: float, host_busy: float, memory_j: float,
                charon_busy: float) -> PlatformEnergy:
        """Package-level energy model.

        Host: during a stop-the-world collection every GC thread
        occupies a core for the whole pause — working, spinning in the
        termination protocol, or busy-waiting on a blocked offload (the
        Sec. 4.1 intrinsic blocks the calling thread) — so the package
        draws near-active power for ``min(threads, cores)`` cores
        regardless of platform.  This is why Charon's energy saving
        (Fig. 17) tracks its speedup sublinearly.  Charon: per-unit
        active power for unit-busy-seconds plus a small static floor.
        Memory: the pJ/bit accounting done by the resources.
        """
        costs = self.platform.config.costs
        cores = self.platform.config.host.num_cores
        active_threads = min(self.threads, cores)
        host_power = costs.host_idle_power_w \
            + (costs.host_active_power_w - costs.host_idle_power_w) \
            * active_threads / cores
        host_j = host_power * wall
        charon_j = 0.0
        if self.platform.device is not None:
            charon_j = (costs.charon_unit_active_power_w * charon_busy
                        + costs.charon_static_power_w * wall)
        return PlatformEnergy(host_j=host_j, memory_j=memory_j,
                              charon_j=charon_j)
