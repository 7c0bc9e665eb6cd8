"""Host-side primitive cost model.

Each trace event, when executed by a GC thread on the host, costs

``max(compute time, memory time)``

with the instruction/locality constants of
:class:`~repro.config.CostModelConfig` (documented there).  The memory
side is the event's miss stream pushed through the host's memory port
under the core's MLP window; the compute side is the primitive's
instruction stream at the observed GC IPC plus cache-hit service.

This module is shared by every platform that runs primitives on the
host — ``cpu-ddr4`` and ``cpu-hmc`` for all events, and the Charon
platforms for the residual (non-offloaded) work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.config import CostModelConfig
from repro.cpu.core import CoreModel
from repro.gcalgo.trace import (Primitive, ResidualWork, TraceEvent,
                                is_marking_phase)
from repro.units import CACHE_LINE


@dataclass
class HostCostModel:
    """Costs one thread's events against a memory port."""

    core: CoreModel
    costs: CostModelConfig
    port: object  # DDR4Port | HMCHostPort

    def event_finish(self, now: float, event: TraceEvent) -> float:
        """Completion time of ``event`` started at ``now`` on one core."""
        if event.primitive is Primitive.COPY:
            return self._copy(now, event)
        if event.primitive is Primitive.SEARCH:
            return self._search(now, event)
        if event.primitive is Primitive.SCAN_PUSH:
            return self._scan_push(now, event)
        if event.primitive is Primitive.BITMAP_COUNT:
            return self._bitmap_count(now, event)
        raise ValueError(f"unknown primitive {event.primitive}")

    # -- per-primitive models ------------------------------------------------

    def _roofline(self, now: float, instructions: float,
                  touched_bytes: int, hit_fraction: float, addr: int,
                  chunk: int = CACHE_LINE, mlp: float = None,
                  dependent_batches: int = 1,
                  priority: bool = True) -> float:
        mlp = self.core.mlp if mlp is None else mlp
        miss_bytes = int(touched_bytes * (1.0 - hit_fraction))
        hits = (touched_bytes / CACHE_LINE) * hit_fraction
        compute_done = now + self.core.compute_seconds(instructions, hits)
        if miss_bytes <= 0:
            return compute_done
        memory_done = self.port.stream_range(
            now, addr, miss_bytes, chunk, mlp,
            dependent_batches=dependent_batches, priority=priority)
        return max(compute_done, memory_done)

    def _copy(self, now: float, event: TraceEvent) -> float:
        """Software copy loop (Fig. 7): streams src and dst, no reuse.

        The per-object scavenger bookkeeping (claim, allocate, forward)
        is a fixed instruction cost; a small object's copy is two
        *dependent* cold misses (the read, then the write allocate/RFO
        of the destination line), which is what makes tiny-object
        evacuation so much slower than raw bandwidth suggests.  Bulk
        copies use the streaming (non-priority) memory lane.
        """
        size = event.size_bytes
        instructions = size * self.costs.copy_instructions_per_byte \
            + self.costs.copy_object_overhead_instructions
        return self._roofline(now, instructions, 2 * size,
                              self.costs.copy_hit_fraction, event.src,
                              dependent_batches=2, priority=False)

    def _search(self, now: float, event: TraceEvent) -> float:
        """Card-table scan with early exit (Fig. 7 lines 4-8)."""
        examined = event.size_bytes // 2 if event.found \
            else event.size_bytes
        examined = max(1, examined)
        instructions = examined * self.costs.search_instructions_per_card
        return self._roofline(now, instructions, examined,
                              self.costs.search_hit_fraction, event.src)

    def _scan_push(self, now: float, event: TraceEvent) -> float:
        """Reference iteration + referee header probes (Fig. 11).

        The probe of each referenced object's mark word is the random
        access; the window exposes at most the core's MLP of them.  In
        evacuation scans (``push_contents``) the scanned object is hot
        — the thread just copied it — while marking scans
        (``follow_contents``) pop a cold object and serialise the slot
        read before the referee probes.
        """
        refs = max(1, event.refs)
        instructions = refs * self.costs.scan_push_instructions_per_ref
        touched = refs * CACHE_LINE
        marking = is_marking_phase(event.phase)
        hit = (self.costs.scan_push_hit_major if marking
               else self.costs.scan_push_hit_minor)
        return self._roofline(now, instructions, touched, hit,
                              event.src,
                              dependent_batches=2 if marking else 1)

    def _bitmap_count(self, now: float, event: TraceEvent) -> float:
        """The bit-at-a-time loop of Fig. 8: instruction bound.

        When HotSpot's query cache covered part of the range (the
        collector recorded ``bits_cached``), the software walks only
        the delta plus fixed cache bookkeeping.
        """
        bits = max(1, event.bits if event.bits_cached is None
                   else event.bits_cached)
        instructions = 12.0 \
            + bits * self.costs.bitmap_instructions_per_bit
        touched = 2 * (bits // 8 + 1)
        return self._roofline(now, instructions, touched,
                              self.costs.bitmap_hit_fraction, event.src)

    # -- residual work -----------------------------------------------------------

    def residual_demand(self, work: ResidualWork,
                        threads: int) -> Tuple[float, int]:
        """One thread's share of a phase's residual work, independent of
        when it runs: ``(compute seconds, miss bytes)``.  The batched
        replay kernels tabulate it once per trace and stream the miss
        bytes themselves, in :meth:`residual_seconds`' operation order."""
        instructions = work.instructions / threads
        touched = work.bytes_accessed // threads
        hit = self.costs.residual_hit_fraction
        miss_bytes = int(touched * (1.0 - hit))
        hits = (touched / CACHE_LINE) * hit
        compute = instructions * self.costs.residual_cpi \
            / self.core.config.freq_hz
        compute += hits * self.costs.cache_hit_latency_s / 4.0
        return compute, miss_bytes

    def residual_seconds(self, now: float, work: ResidualWork,
                         threads: int) -> float:
        """Duration of one thread's share of a phase's residual work."""
        compute, miss_bytes = self.residual_demand(work, threads)
        memory_done = self.port.stream_anon(now, miss_bytes, CACHE_LINE,
                                            self.core.mlp)
        return max(compute, memory_done - now)
