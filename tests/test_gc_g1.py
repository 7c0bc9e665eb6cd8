"""Tests for the simplified G1 regional collector."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, OutOfMemoryError
from repro.gcalgo.g1 import G1Collector, RegionType
from repro.gcalgo.trace import Primitive

from tests.conftest import make_heap


@pytest.fixture
def g1(heap):
    return G1Collector(heap, region_bytes=64 * 1024)


def build_chain(g1, heap, count):
    prev = 0
    for _ in range(count):
        view = g1.allocate("Record")
        heap.set_field(view, 0, prev)
        prev = view.addr
    heap.roots.append(prev)
    return prev


def chain_length(heap, addr):
    count = 0
    while addr:
        addr = heap.get_field(heap.object_at(addr), 0)
        count += 1
    return count


class TestRegions:
    def test_region_carving(self, g1, heap):
        span = heap.layout.heap_end - heap.layout.heap_start
        assert len(g1.regions) == span // g1.region_bytes
        assert g1.regions[0].start == heap.layout.heap_start
        for before, after in zip(g1.regions, g1.regions[1:]):
            assert before.end == after.start

    def test_all_regions_initially_free(self, g1):
        assert g1.free_region_count == len(g1.regions)

    def test_region_of(self, g1, heap):
        addr = heap.layout.heap_start + 3 * g1.region_bytes + 128
        assert g1.region_of(addr).index == 3

    def test_region_of_out_of_range(self, g1, heap):
        with pytest.raises(ConfigError):
            g1.region_of(heap.layout.heap_start - 8)

    def test_bad_region_size_rejected(self, heap):
        with pytest.raises(ConfigError):
            G1Collector(heap, region_bytes=100)


class TestAllocation:
    def test_allocates_in_eden_region(self, g1, heap):
        view = g1.allocate("Record")
        assert g1.region_of(view.addr).region_type is RegionType.EDEN

    def test_new_region_when_full(self, g1):
        for _ in range(3000):  # > one 64 KB region of 48 B records
            g1.allocate("Record")
        assert len(g1.regions_of_type(RegionType.EDEN)) >= 2

    def test_humongous_allocation(self, g1, heap):
        view = g1.allocate("typeArray", 200 * 1024)
        region = g1.region_of(view.addr)
        assert region.region_type is RegionType.HUMONGOUS
        # Spans several contiguous regions.
        spanned = (view.size_bytes + g1.region_bytes - 1) \
            // g1.region_bytes
        for offset in range(spanned):
            assert g1.regions[region.index + offset].region_type \
                is RegionType.HUMONGOUS

    def test_humongous_payload_usable(self, g1, heap):
        view = g1.allocate("typeArray", 100 * 1024)
        heap.write_payload(view, b"g1" * 100)
        assert heap.read_payload(view)[:6] == b"g1g1g1"

    def test_oom_when_exhausted(self, g1, heap):
        with pytest.raises(OutOfMemoryError):
            for _ in range(10_000):
                view = g1.allocate("typeArray", 16 * 1024)
                heap.roots.append(view.addr)  # keep everything live


class TestCollection:
    def test_live_objects_survive(self, g1, heap):
        build_chain(g1, heap, 400)
        g1.collect()
        assert chain_length(heap, heap.roots[-1]) == 400

    def test_garbage_reclaimed(self, g1, heap):
        build_chain(g1, heap, 100)
        for _ in range(2000):
            g1.allocate("typeArray", 256)  # garbage
        trace = g1.collect()
        assert trace.bytes_freed > 2000 * 256

    def test_eden_regions_recycled(self, g1, heap):
        build_chain(g1, heap, 400)
        g1.collect()
        assert len(g1.regions_of_type(RegionType.EDEN)) == 0

    def test_survivors_land_in_old_regions(self, g1, heap):
        build_chain(g1, heap, 50)
        g1.collect()
        region = g1.region_of(heap.roots[-1])
        assert region.region_type is RegionType.OLD

    def test_fully_live_old_region_not_recollected(self, g1, heap):
        build_chain(g1, heap, 500)
        g1.collect()
        trace = g1.collect()
        assert trace.objects_copied == 0

    def test_mixed_gc_collects_garbage_old_regions(self, g1, heap):
        # Promote a chain, then kill most of it: the old region turns
        # mostly-garbage and a later mixed collection evacuates it.
        build_chain(g1, heap, 800)
        g1.collect()
        survivor_root = heap.roots[-1]
        # Keep only the first node.
        heap.set_field(heap.object_at(survivor_root), 0, 0)
        trace = g1.collect()
        assert trace.objects_copied >= 1
        assert chain_length(heap, heap.roots[-1]) == 1

    def test_external_references_updated(self, g1, heap):
        target = g1.allocate("Record")
        target_addr = target.addr
        heap.roots.append(target_addr)
        # An object in a region that will stay out of the cset.
        holder = g1.allocate("Record")
        heap.set_field(holder, 0, target_addr)
        heap.roots.append(holder.addr)
        g1.collect()
        holder_view = heap.object_at(heap.roots[-1])
        assert heap.get_field(holder_view, 0) == heap.roots[-2]

    def test_humongous_not_evacuated(self, g1, heap):
        view = g1.allocate("typeArray", 100 * 1024)
        heap.roots.append(view.addr)
        g1.collect()
        assert heap.roots[-1] == view.addr


class TestG1Trace:
    def test_all_four_primitives_present(self, g1, heap):
        build_chain(g1, heap, 300)
        trace = g1.collect()
        assert trace.kind == "g1"
        assert trace.count(Primitive.SCAN_PUSH) > 0
        assert trace.count(Primitive.BITMAP_COUNT) > 0
        assert trace.count(Primitive.COPY) > 0
        assert trace.count(Primitive.SEARCH) > 0

    def test_liveness_accounting_via_bitmap_count(self, g1, heap):
        build_chain(g1, heap, 300)
        trace = g1.collect()
        liveness = [e for e in trace.iter_events()
                    if e.primitive is Primitive.BITMAP_COUNT
                    and e.phase == "liveness"]
        # One count per non-free region at mark time.
        assert len(liveness) >= 1
        assert all(e.bits == g1.region_bytes // 8 for e in liveness)

    def test_replayable_on_platforms(self, g1, heap):
        from repro.platform import TraceReplayer, build_platform
        from repro.config import default_config
        from repro.workloads.base import workload_klasses
        from repro.heap.heap import JavaHeap
        build_chain(g1, heap, 300)
        trace = g1.collect()
        config = default_config().with_heap_bytes(
            heap.config.heap_bytes)
        results = {}
        for name in ("cpu-ddr4", "charon"):
            fresh = JavaHeap(config.heap, klasses=workload_klasses())
            platform = build_platform(name, config, fresh)
            results[name] = TraceReplayer(platform).replay(trace)
        assert results["charon"].wall_seconds > 0
        assert results["cpu-ddr4"].wall_seconds > 0


class TestG1Property:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_reachable_graph_survives_collections(self, seed):
        rng = random.Random(seed)
        heap = make_heap()
        g1 = G1Collector(heap, region_bytes=64 * 1024)
        addrs = []
        for index in range(rng.randint(20, 400)):
            if rng.random() < 0.25:
                view = g1.allocate("objArray",
                                   length=rng.randint(1, 6))
            else:
                view = g1.allocate("Record")
            addrs.append(view.addr)
            for slot in heap.object_at(view.addr).reference_slots():
                if rng.random() < 0.5:
                    heap.store_ref(slot, rng.choice(addrs))
            if rng.random() < 0.02:
                heap.roots.append(view.addr)
                g1.collect()
                addrs = []  # stale addresses after evacuation
        heap.roots.extend(addrs[-3:])

        def snapshot():
            stack = [r for r in heap.roots if r]
            seen = {}
            order = []
            while stack:
                addr = stack.pop()
                if addr in seen:
                    continue
                seen[addr] = len(seen)
                order.append(addr)
                stack.extend(
                    reversed(heap.references_of(heap.object_at(addr))))
            return [(heap.object_at(a).klass.name,
                     heap.object_at(a).length,
                     [seen.get(r) for r in
                      heap.references_of(heap.object_at(a))])
                    for a in order]

        before = snapshot()
        g1.collect()
        assert snapshot() == before
