"""Multi-process support (Sec. 4.6): PCID isolation on shared hardware.

The paper extends the accelerator TLB with process-context identifiers
so several JVMs can share Charon; physical-memory admission control
falls out of the pinned-page requirement.  These tests run two
processes' heaps over one HMC and verify isolation and sharing.
"""

import pytest

from repro.config import HeapConfig, default_config
from repro.core.device import CharonDevice
from repro.errors import ProtectionFault
from repro.gcalgo.parallel_scavenge import MinorGC
from repro.gcalgo.trace import Primitive, TraceEvent
from repro.heap.heap import JavaHeap
from repro.heap.spaces import HeapInfo
from repro.mem.hmc import HMCSystem
from repro.mem.vm import VirtualMemory
from repro.units import MB, align_up
from repro.workloads.base import workload_klasses

HEAP_BYTES = 8 * MB


def make_processes():
    """Two JVM processes with disjoint pinned heaps on one cube set."""
    config = default_config().with_heap_bytes(HEAP_BYTES)
    vm = VirtualMemory(huge_page_bytes=config.vm.huge_page_bytes,
                       cubes=config.hmc.cubes)
    heaps, infos = {}, {}
    for pcid, base in ((1, 0x1000_0000), (2, 0x4000_0000)):
        heap_config = HeapConfig(heap_bytes=HEAP_BYTES,
                                 base_address=base)
        info = infos[pcid] = HeapInfo.of(heap_config)
        vm.map_heap(base, align_up(info.heap_end - base,
                                   config.vm.huge_page_bytes),
                    pcid=pcid)
        vm.map_pinned(info.card_table_base,
                      align_up(info.metadata_end - info.card_table_base,
                               config.vm.metadata_page_bytes),
                      config.vm.metadata_page_bytes, pcid=pcid)
        heaps[pcid] = JavaHeap(heap_config, klasses=workload_klasses())
    hmc = HMCSystem(config.hmc)
    devices = {}
    for pcid, info in infos.items():
        device = CharonDevice(config, hmc, vm, pcid=pcid)
        device.initialize(info, vm, pcid=pcid)
        devices[pcid] = device
    return config, vm, hmc, heaps, devices


class TestIsolation:
    def test_each_process_reaches_its_heap(self):
        _, _, _, heaps, devices = make_processes()
        for pcid, heap in heaps.items():
            event = TraceEvent(Primitive.COPY, "evacuate",
                               src=heap.layout.eden.start,
                               dst=heap.layout.old.start,
                               size_bytes=4096)
            assert devices[pcid].offload_event(0.0, event,
                                               "minor") > 0

    def test_cross_process_access_faults(self):
        _, _, _, heaps, devices = make_processes()
        foreign = heaps[2].layout.eden.start
        event = TraceEvent(Primitive.COPY, "evacuate", src=foreign,
                           dst=foreign + 8192, size_bytes=4096)
        with pytest.raises(ProtectionFault):
            devices[1].offload_event(0.0, event, "minor")

    def test_vm_translation_is_per_pcid(self):
        _, vm, _, heaps, _ = make_processes()
        addr = heaps[1].layout.eden.start
        assert vm.cube_of(addr, pcid=1) >= 0
        with pytest.raises(ProtectionFault):
            vm.cube_of(addr, pcid=2)

    def test_tlb_entries_loaded_per_process(self):
        _, vm, _, _, devices = make_processes()
        for pcid, device in devices.items():
            entries = device.tlbs.slices[0].entries
            assert any(key[0] == pcid for key in entries)
            assert not any(key[0] != pcid for key in entries)


class TestSharedHardware:
    def test_processes_contend_on_shared_cubes(self):
        _, _, hmc, heaps, devices = make_processes()
        event1 = TraceEvent(Primitive.COPY, "evacuate",
                            src=heaps[1].layout.eden.start,
                            dst=heaps[1].layout.old.start,
                            size_bytes=1 << 20)
        event2 = TraceEvent(Primitive.COPY, "evacuate",
                            src=heaps[2].layout.eden.start,
                            dst=heaps[2].layout.old.start,
                            size_bytes=1 << 20)
        solo = devices[1].offload_event(0.0, event1, "minor")
        # A concurrent big copy from the other process shares TSV/link
        # bandwidth, so re-running process 1's copy now takes longer.
        devices[2].offload_event(solo, event2, "minor")
        contended = devices[1].offload_event(solo, event1, "minor") \
            - solo
        assert contended >= solo * 0.5  # similar order, real contention

    def test_gc_runs_independently_per_process(self):
        _, _, _, heaps, _ = make_processes()
        for heap in heaps.values():
            previous = 0
            for _ in range(200):
                view = heap.new_object("Record")
                heap.set_field(view, 0, previous)
                previous = view.addr
            heap.roots.append(previous)
        traces = {pcid: MinorGC(heap).collect()
                  for pcid, heap in heaps.items()}
        for trace in traces.values():
            assert trace.objects_copied == 200

    def test_unmap_evicts_process(self):
        _, vm, _, heaps, _ = make_processes()
        removed = vm.unmap(1)
        assert removed > 0
        with pytest.raises(ProtectionFault):
            vm.cube_of(heaps[1].layout.eden.start, pcid=1)
        # Process 2 is untouched.
        assert vm.cube_of(heaps[2].layout.eden.start, pcid=2) >= 0
