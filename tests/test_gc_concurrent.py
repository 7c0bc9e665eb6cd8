"""Tests for the SATB concurrent-marking collector.

The invariants under test are the ones SATB promises:

* everything reachable at the snapshot (initial mark) is marked by
  final mark, no matter how the mutator rewires or unlinks references
  between mark pauses — the logged write barrier's whole job;
* objects allocated during the cycle are allocate-grey and therefore
  never swept in the cycle they were born in;
* unlinked-but-marked objects *float* (survive the current cycle) and
  are reclaimed by the next one — concurrent marking's deliberate
  imprecision, which the fuzz oracle's relaxed laws also encode.
"""

import pytest

from repro.errors import ConfigError, OutOfMemoryError
from repro.fuzz.oracle import SATBOracle, reachable_addresses
from repro.gcalgo.concurrent_mark import ConcurrentMarkGC
from repro.gcalgo.g1 import RegionType
from repro.gcalgo.trace import Primitive
from repro.workloads.mutator import MutatorDriver

from tests.conftest import make_heap


@pytest.fixture
def gc(heap):
    return ConcurrentMarkGC(heap, region_bytes=64 * 1024)


def build_chain(gc, heap, count, root_slot=None):
    prev = 0
    for _ in range(count):
        view = gc.allocate("Record")
        heap.set_field(view, 0, prev)
        prev = view.addr
    if root_slot is None:
        heap.roots.append(prev)
    else:
        heap.roots[root_slot] = prev
    return prev


def finish_marking(gc):
    """Drain marking to completion with mark pauses only (no sweep)."""
    while gc.satb_buffer or gc._stack:
        gc.mark_step(budget=1 << 30)


class TestConfig:
    def test_bad_region_size_rejected(self, heap):
        with pytest.raises(ConfigError):
            ConcurrentMarkGC(heap, region_bytes=100)

    def test_degenerate_collect_is_stop_the_world(self, gc, heap):
        # collect() with no live cycle runs a whole cycle in one pause.
        build_chain(gc, heap, 50)
        trace = gc.collect()
        assert trace.kind == "concurrent"
        assert trace.objects_visited == 50


class TestSATBInvariant:
    def test_snapshot_reachable_stays_marked(self, gc, heap):
        head = build_chain(gc, heap, 120)
        gc.start_cycle()
        snapshot = reachable_addresses(heap)
        gc.mark_step(budget=8)  # marking barely started
        # Decapitate the chain: everything below the head is now only
        # reachable through edges the mutator keeps destroying.
        view = heap.object_at(head)
        heap.set_field(view, 0, 0)
        gc.mark_step(budget=8)
        finish_marking(gc)
        assert snapshot <= gc.marked

    def test_unlinked_objects_float_then_die(self, gc, heap):
        head = build_chain(gc, heap, 10)
        second = heap.get_field(heap.object_at(head), 0)
        gc.start_cycle()
        heap.set_field(heap.object_at(head), 0, 0)  # unlink the tail
        first_cycle = gc.collect()
        assert second in gc.marked  # floated, not reclaimed
        heap.object_at(second)  # still a valid object
        second_cycle = gc.collect()
        assert second not in gc.marked
        assert second_cycle.bytes_freed > 0
        assert first_cycle.bytes_freed >= 0

    def test_allocation_during_cycle_is_grey(self, gc, heap):
        build_chain(gc, heap, 5)
        gc.start_cycle()
        gc.mark_step(budget=2)
        orphan = gc.allocate("Record").addr  # never rooted
        gc.collect()
        assert orphan in gc.marked
        heap.object_at(orphan)  # survived the sweep it was born in

    def test_barrier_drains_completely(self, gc, heap):
        head = build_chain(gc, heap, 60)
        gc.start_cycle()
        view = heap.object_at(head)
        for _ in range(3):
            target = heap.get_field(view, 0)
            if not target:
                break
            heap.set_field(view, 0,
                           heap.get_field(heap.object_at(target), 0))
        logged = gc.satb_logged
        assert logged >= 1
        gc.collect()
        assert gc.satb_drained == gc.satb_logged
        assert not gc.satb_buffer

    def test_satb_oracle_accepts_clean_cycle(self, gc, heap):
        oracle = SATBOracle()
        gc.cycle_start_hooks.append(oracle.cycle_start)
        gc.cycle_end_hooks.append(oracle.cycle_end)
        build_chain(gc, heap, 80)
        gc.start_cycle()
        gc.mark_step(budget=16)
        head = next(addr for addr in heap.roots if addr)
        heap.set_field(heap.object_at(head), 0, 0)
        gc.collect()
        assert oracle.cycles == 1


class TestSweep:
    def test_garbage_reclaimed(self, gc, heap):
        build_chain(gc, heap, 40, root_slot=None)
        heap.roots[-1] = 0  # drop the whole chain
        trace = gc.collect()
        assert trace.bytes_freed > 0

    def test_dead_regions_recycle(self, gc, heap):
        free_before = gc.free_region_count
        for _ in range(400):
            gc.allocate("typeArray", 512)  # all garbage
        assert gc.free_region_count < free_before
        gc.collect()
        assert gc.free_region_count == free_before

    def test_live_objects_never_move(self, gc, heap):
        head = build_chain(gc, heap, 30)
        gc.collect()
        # Non-moving: the root still points at the original address.
        assert heap.roots[-1] == head
        assert heap.object_at(head).klass.name == "Record"

    def test_humongous_lifecycle(self, gc, heap):
        view = gc.allocate("typeArray", 3 * gc.region_bytes)
        addr = view.addr
        heap.roots.append(addr)
        gc.collect()
        assert gc.region_of(addr).region_type is RegionType.HUMONGOUS
        heap.roots[-1] = 0
        gc.collect()
        assert gc.region_of(addr).region_type is RegionType.FREE

    def test_oom_when_exhausted(self, gc, heap):
        with pytest.raises(OutOfMemoryError):
            while True:
                heap.roots.append(
                    gc.allocate("typeArray", 16 * 1024).addr)


class TestTraceShape:
    def test_primitive_mix(self, gc, heap):
        build_chain(gc, heap, 100)
        gc.start_cycle()
        gc.mark_step(budget=20)
        trace = gc.collect()
        assert trace.count(Primitive.SCAN_PUSH) > 0
        assert trace.count(Primitive.BITMAP_COUNT) > 0
        # Non-moving, no card scan: the Table 1 story for this row.
        assert trace.count(Primitive.COPY) == 0
        assert trace.count(Primitive.SEARCH) == 0

    def test_interleaved_pauses_get_unique_phases(self, gc, heap):
        build_chain(gc, heap, 200)
        gc.start_cycle()
        gc.mark_step(budget=10)
        gc.mark_step(budget=10)
        trace = gc.collect()
        phases = set(trace.phase_names)
        assert "concurrent-mark-0" in phases
        assert "concurrent-mark-1" in phases


class TestDriverHook:
    def test_paced_marking_rides_driver_safepoints(self):
        """install_step_hook: a mark-only cycle over the classic
        generational layout, advanced purely by the driver's
        allocation safepoints (no region allocation, no sweep)."""
        heap = make_heap()
        driver = MutatorDriver(heap, run_name="hooked")
        gc = ConcurrentMarkGC(heap, region_bytes=64 * 1024)
        gc.install_step_hook(driver, period=8, budget=16)

        keep = []
        for _ in range(40):
            keep.append(driver.handle(driver.allocate("Node").addr))
        gc.start_cycle()
        snapshot = reachable_addresses(heap)
        pauses_before = gc._pauses
        for index in range(64):
            view = driver.allocate("Node")
            if index % 4 == 0:
                keep.append(driver.handle(view.addr))
            if index % 8 == 0 and keep:
                driver.release(keep.pop(0))
        assert gc._pauses > pauses_before  # the hook actually fired
        finish_marking(gc)
        gc.in_cycle = False
        assert snapshot <= gc.marked

    def test_hook_idle_outside_cycles(self):
        heap = make_heap()
        driver = MutatorDriver(heap, run_name="idle")
        gc = ConcurrentMarkGC(heap, region_bytes=64 * 1024)
        gc.install_step_hook(driver, period=2)
        for _ in range(10):
            driver.allocate("Node")
        assert gc._pauses == 0
        assert not gc.in_cycle

    def test_allocation_pacing(self, heap):
        gc = ConcurrentMarkGC(heap, region_bytes=64 * 1024,
                              pacing_period=8)
        build_chain(gc, heap, 100)
        gc.start_cycle()
        for _ in range(40):
            gc.allocate("Record")
        assert gc._pauses >= 4  # the pacer stepped marking for us
        gc.collect()
