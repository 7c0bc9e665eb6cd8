"""Platform objects: a host model bound to a memory system, optionally
with a Charon device hanging off it."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.config import SystemConfig
from repro.core.device import CharonDevice
from repro.core.intrinsics import CharonRuntime
from repro.cpu.host import HostProcessor
from repro.gcalgo.trace import TraceEvent
from repro.heap.heap import JavaHeap
from repro.mem.ddr4 import DDR4System
from repro.mem.hmc import HMCSystem
from repro.mem.vm import VirtualMemory
from repro.platform.host_costs import HostCostModel
from repro.platform.ports import DDR4Port, HMCHostPort


class Platform:
    """Common machinery: host processor, memory port, cost model."""

    name = "platform"
    offloads = False

    def __init__(self, config: SystemConfig, port) -> None:
        self.config = config
        self.port = port
        self.host = HostProcessor(config.host, config.caches,
                                  config.costs)
        self.cost_model = HostCostModel(core=self.host.core,
                                        costs=config.costs, port=port)
        self.hmc: Optional[HMCSystem] = None
        self.ddr4: Optional[DDR4System] = None
        self.device: Optional[CharonDevice] = None

    # -- replay hooks ------------------------------------------------------

    def begin_gc(self, now: float) -> float:
        """Hook at GC start; returns the time GC work may begin."""
        return now

    def offload_finish(self, now: float, event: TraceEvent,
                       gc_kind: str) -> float:
        """Completion time of one offloadable primitive event."""
        return self.cost_model.event_finish(now, event)

    def phase_end(self, phase: str) -> None:
        """Hook at each phase barrier (bitmap-cache flushes)."""

    # -- accounting ---------------------------------------------------------

    def memory_snapshot(self) -> Tuple[int, float]:
        """(bytes_served, energy_joules) of the memory system."""
        return self.port.bytes_served, self.port.energy_joules

    def traffic_detail(self) -> Dict[str, float]:
        """Extra traffic numbers for Fig. 13 (HMC platforms only)."""
        if self.hmc is None:
            return {}
        return {
            "link_bytes": self.hmc.link_bytes,
            "tsv_bytes": self.hmc.tsv_bytes,
            "local_fraction": self.hmc.local_fraction,
        }

    def charon_busy_seconds(self) -> float:
        return self.device.busy_time_total() if self.device else 0.0

    def bitmap_cache_counters(self) -> Tuple[int, int]:
        """Cumulative (hits, accesses) of the Bitmap Count unit's
        cache reads (Sec. 4.5 reports ~90% hits for this stream)."""
        if self.device is None:
            return 0, 0
        slices = self.device.bitmap_cache.slices
        return (sum(s.read_hits for s in slices),
                sum(s.read_accesses for s in slices))


class CpuDDR4Platform(Platform):
    """The paper's baseline: 8-core OoO host with DDR4."""

    name = "cpu-ddr4"

    def __init__(self, config: SystemConfig) -> None:
        ddr4 = DDR4System(config.ddr4)
        super().__init__(config, DDR4Port(ddr4))
        self.ddr4 = ddr4


class CpuHMCPlatform(Platform):
    """Host against the HMC's external links (no offloading)."""

    name = "cpu-hmc"

    def __init__(self, config: SystemConfig, heap: JavaHeap,
                 vm: VirtualMemory) -> None:
        hmc = HMCSystem(config.hmc)
        super().__init__(config, HMCHostPort(hmc, vm))
        self.hmc = hmc
        self.vm = vm


class CharonPlatform(Platform):
    """Host + Charon in the HMC logic layer (or CPU-side, Fig. 16)."""

    name = "charon"
    offloads = True

    def __init__(self, config: SystemConfig, heap: JavaHeap,
                 vm: VirtualMemory, cpu_side: bool = False) -> None:
        hmc = HMCSystem(config.hmc)
        super().__init__(config, HMCHostPort(hmc, vm))
        self.hmc = hmc
        self.vm = vm
        self.cpu_side = cpu_side
        if cpu_side:
            self.name = "charon-cpuside"
        self.device = CharonDevice(config, hmc, vm, cpu_side=cpu_side)
        self.runtime = CharonRuntime(self.device)
        self.runtime.initialize(heap, vm)
        self._flushed = False

    def begin_gc(self, now: float) -> float:
        """Bulk-flush the host LLC so the units read fresh data
        (Sec. 4.6, 'Effect on Host Cache').  The flushed footprint is
        the scaled-system LLC (see ``CostModelConfig.llc_flush_bytes``)."""
        flush = (self.config.costs.llc_flush_bytes
                 / self.port.drain_bandwidth)
        return now + flush

    def offload_finish(self, now: float, event: TraceEvent,
                       gc_kind: str) -> float:
        dispatch = self.config.costs.charon_dispatch_overhead_s
        return self.runtime.offload_event(now + dispatch, event, gc_kind)

    def phase_end(self, phase: str) -> None:
        self.device.phase_completed(phase)


class IdealPlatform(Platform):
    """Offloaded primitives take zero cycles (Fig. 12's upper bound)."""

    name = "ideal"
    offloads = True

    def __init__(self, config: SystemConfig, heap: JavaHeap,
                 vm: VirtualMemory) -> None:
        hmc = HMCSystem(config.hmc)
        super().__init__(config, HMCHostPort(hmc, vm))
        self.hmc = hmc
        self.vm = vm

    def offload_finish(self, now: float, event: TraceEvent,
                       gc_kind: str) -> float:
        return now
