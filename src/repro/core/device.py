"""The Charon device: per-cube unit farms behind the offload interface.

:class:`CharonDevice` glues together the processing units, the MAI, the
TLB complex, the bitmap cache, and the request routing/scheduling
policies of Sec. 4:

* Copy and Search are scheduled to the cube housing the source range;
* Scan&Push goes to the central cube (the paper's placement; an
  ablation knob routes it to the object's cube instead);
* Bitmap Count goes to the cube the queried bitmap range lives on;
* within a (cube, primitive) unit class, the least-busy unit wins.

:meth:`offload_event` replays one trace event: request packet over the
links, queueing at the unit, execution, response packet back.  The
returned time is when the (blocked) host thread resumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import SystemConfig
from repro.core.bitmap_cache import BitmapCacheComplex
from repro.core.command_queue import CubeCommandQueues
from repro.core.mai import MemoryAccessInterface
from repro.core.tlb import TLBComplex
from repro.core.units import (BitmapCountUnit, CharonContext, CopySearchUnit,
                              ProcessingUnit, ScanPushUnit)
from repro.errors import ConfigError
from repro.gcalgo.trace import Primitive, TraceEvent
from repro.mem.hmc import HMCSystem
from repro.mem.vm import VirtualMemory
from repro.units import WORD

#: The MajorGC phases after which the bitmap cache is flushed for
#: coherence with the host (Sec. 4.5).
FLUSHED_PHASES = ("mark", "adjust", "compact")


@dataclass(frozen=True)
class HeapInfo:
    """The globally-accessed addresses ``initialize()`` configures
    (Sec. 4.1): heap bounds, bitmap base/size, card-table base."""

    heap_start: int
    heap_end: int
    bitmap_base: int
    bitmap_bytes: int
    bitmap_covered_start: int
    card_table_base: int


class CharonDevice:
    """All Charon logic-layer structures across the cube network."""

    def __init__(self, config: SystemConfig, hmc: HMCSystem,
                 vm: VirtualMemory, pcid: int = 0,
                 cpu_side: bool = False) -> None:
        config.validate()
        self.config = config
        self.hmc = hmc
        self.cpu_side = cpu_side
        cubes = 1 if cpu_side else config.hmc.cubes
        central = 0 if cpu_side else config.hmc.central_cube
        link_latency = 0.0 if cpu_side else config.hmc.link_latency_s
        distributed = config.charon.distributed and not cpu_side

        self.tlbs = TLBComplex(cubes=cubes, central_cube=central,
                               link_latency_s=link_latency,
                               distributed=distributed)
        self.bitmap_cache = BitmapCacheComplex(
            cubes=cubes, central_cube=central,
            size_bytes=config.charon.bitmap_cache_bytes,
            ways=config.charon.bitmap_cache_ways,
            line_bytes=config.charon.bitmap_cache_line,
            link_latency_s=link_latency,
            memory_latency_s=config.hmc.access_latency_s,
            distributed=distributed,
            enabled=config.charon.bitmap_cache_enabled)
        self.context = CharonContext(
            config=config, hmc=hmc, vm=vm, tlbs=self.tlbs,
            bitmap_cache=self.bitmap_cache, pcid=pcid,
            host_probes=not cpu_side, cpu_side=cpu_side)
        self.mais = [MemoryAccessInterface(
            cube, config.charon.mai_entries_per_cube)
            for cube in range(cubes)]

        self.units: Dict[Tuple[str, int], List[ProcessingUnit]] = {}
        next_id = 0
        per_cube_cs = max(1, config.charon.copy_search_units // cubes)
        per_cube_bc = max(1, config.charon.bitmap_count_units // cubes)
        for cube in range(cubes):
            self.units[("copy_search", cube)] = [
                CopySearchUnit(next_id + i, cube, self.context)
                for i in range(per_cube_cs)]
            next_id += per_cube_cs
            self.units[("bitmap_count", cube)] = [
                BitmapCountUnit(next_id + i, cube, self.context)
                for i in range(per_cube_bc)]
            next_id += per_cube_bc
        if config.charon.scan_push_local and not cpu_side:
            # Ablation: spread the Scan&Push units across the cubes and
            # route each scan to the scanned object's cube.
            per_cube_sp = max(1, config.charon.scan_push_units // cubes)
            for cube in range(cubes):
                self.units[("scan_push", cube)] = [
                    ScanPushUnit(next_id + i, cube, self.context)
                    for i in range(per_cube_sp)]
                next_id += per_cube_sp
        else:
            self.units[("scan_push", central)] = [
                ScanPushUnit(next_id + i, central, self.context)
                for i in range(max(1, config.charon.scan_push_units))]
        self.central = central
        self.queues = [CubeCommandQueues(cube,
                                         config.charon.command_queue_depth)
                       for cube in range(cubes)]
        self.heap_info: Optional[HeapInfo] = None
        self.offloads = 0
        self.request_bytes_sent = 0
        self.response_bytes_sent = 0

    # -- intrinsic: initialize() ------------------------------------------------

    def initialize(self, heap_info: HeapInfo, vm: VirtualMemory,
                   pcid: int = 0) -> int:
        """Configure the memory-mapped registers and preload the TLBs.

        Returns the number of TLB entries duplicated DRAM-side.
        """
        self.heap_info = heap_info
        return self.tlbs.load_from(vm, pcid)

    # -- routing helpers ----------------------------------------------------------

    def _unit_for(self, kind: str, cube: int) -> ProcessingUnit:
        key = (kind, cube)
        if key not in self.units:
            raise ConfigError(f"no {kind} units on cube {cube}")
        return min(self.units[key], key=lambda u: u.busy_until)

    def _target_cube(self, event: TraceEvent) -> int:
        if self.cpu_side:
            return 0
        vm = self.context.vm
        if event.primitive is Primitive.SCAN_PUSH:
            if self.config.charon.scan_push_local:
                return vm.cube_of(event.src, self.context.pcid)
            return self.central
        if event.primitive is Primitive.BITMAP_COUNT:
            addr = self._bitmap_addr(event.src)
            return vm.cube_of(addr, self.context.pcid)
        return vm.cube_of(event.src, self.context.pcid)

    def _bitmap_addr(self, heap_addr: int) -> int:
        info = self._require_init()
        bit_index = (heap_addr - info.bitmap_covered_start) // WORD
        return info.bitmap_base + bit_index // 8

    def _require_init(self) -> HeapInfo:
        if self.heap_info is None:
            raise ConfigError("Charon was not initialize()d")
        return self.heap_info

    # -- intrinsic: offload() -----------------------------------------------------

    def offload_event(self, now: float, event: TraceEvent,
                      gc_kind: str) -> float:
        """Replay one primitive as a blocking offload.

        Returns the time the host thread unblocks (response received).
        """
        info = self._require_init()
        cube = self._target_cube(event)

        # Request packet: 48B over the host link, plus a cube-to-cube
        # hop when the destination is not the central cube.
        arrival = self._send_request(now, cube)

        if event.primitive is Primitive.COPY:
            unit = self._unit_for("copy_search", cube)
            done = unit.dispatch(arrival, "copy", event.src, event.dst,
                                 event.size_bytes)
            has_value = False
        elif event.primitive is Primitive.SEARCH:
            unit = self._unit_for("copy_search", cube)
            done = unit.dispatch(arrival, "search", event.src, 0,
                                 event.size_bytes, event.found)
            has_value = True
        elif event.primitive is Primitive.SCAN_PUSH:
            unit = self._unit_for("scan_push", cube)
            covered = info.heap_end - info.bitmap_covered_start
            done = unit.dispatch(arrival, event.src, event.refs,
                                 event.pushes, gc_kind,
                                 mark_bitmap_base=info.bitmap_base,
                                 bitmap_covered_start=info.bitmap_covered_start,
                                 bitmap_covered_bytes=covered)
            has_value = True
        elif event.primitive is Primitive.BITMAP_COUNT:
            unit = self._unit_for("bitmap_count", cube)
            bit_offset = (event.src - info.bitmap_covered_start) // WORD
            done = unit.dispatch(arrival, info.bitmap_base,
                                 info.bitmap_bytes, bit_offset,
                                 event.bits)
            has_value = True
        else:  # pragma: no cover - enum is exhaustive
            raise ConfigError(f"unknown primitive {event.primitive}")

        self.offloads += 1
        self.queues[cube].record_batch(event.primitive, 1)
        return self._send_response(done, cube, has_value)

    def _send_request(self, now: float, cube: int) -> float:
        size = self.config.charon.request_packet_bytes
        self.request_bytes_sent += size
        if self.cpu_side:
            # On-chip accelerator: the request is a register write.
            return now
        # Command packets are tiny and interleave ahead of bulk streams;
        # they pay serialisation + link latency but no stream queueing.
        finish = now + self.hmc.host_link.tally(size) \
            + self.hmc.host_link.latency
        for link in self.hmc._link_chain(self.central, cube):
            finish += link.tally(size) + link.latency
        return finish

    def _send_response(self, now: float, cube: int,
                       has_value: bool) -> float:
        size = (self.config.charon.response_packet_bytes if has_value
                else self.config.charon.response_packet_bytes_noval)
        self.response_bytes_sent += size
        if self.cpu_side:
            return now
        finish = now
        for link in self.hmc._link_chain(cube, self.central):
            finish += link.tally(size) + link.latency
        return finish + self.hmc.host_link.tally(size) \
            + self.hmc.host_link.latency

    # -- batched state advancement ------------------------------------------------

    def record_offload_batch(self, cube: int, primitive: Primitive,
                             count: int, has_value: bool) -> None:
        """Account ``count`` offloads routed to one cube in bulk.

        The batched replay kernel advances the order-independent device
        counters (offload tally, packet byte totals, command-queue
        statistics) for a whole phase chunk at once; the order-dependent
        unit and link timing state is advanced separately, event by
        event, in its stage-2 loop.
        """
        if count <= 0:
            return
        self.offloads += count
        self.request_bytes_sent += \
            self.config.charon.request_packet_bytes * count
        size = (self.config.charon.response_packet_bytes if has_value
                else self.config.charon.response_packet_bytes_noval)
        self.response_bytes_sent += size * count
        self.queues[cube].record_batch(primitive, count)

    # -- phase hooks -----------------------------------------------------------------

    def phase_completed(self, phase: str) -> int:
        """Flush the bitmap cache after a MajorGC phase (Sec. 4.5)."""
        if phase in FLUSHED_PHASES:
            return self.bitmap_cache.flush_all()
        return 0

    # -- statistics --------------------------------------------------------------------

    def all_units(self) -> List[ProcessingUnit]:
        return [unit for units in self.units.values() for unit in units]

    def busy_time_total(self) -> float:
        return sum(unit.busy_time for unit in self.all_units())

    def reset_unit_clocks(self) -> None:
        """Zero unit horizons between independent experiments."""
        for unit in self.all_units():
            unit.busy_until = 0.0
