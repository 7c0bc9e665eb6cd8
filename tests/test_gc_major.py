"""Tests for the MajorGC mark-compact collector."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.gcalgo import mark_compact
from repro.gcalgo.mark_compact import (DENSE_PREFIX_DENSITY, MajorGC,
                                       REGION_BYTES)
from repro.gcalgo.parallel_scavenge import MinorGC
from repro.gcalgo.trace import Primitive
from repro.heap.fast_kernels import use_kernel_mode

from tests.conftest import make_heap
from tests.test_gc_minor import assert_same_trace, state


def populate_old(heap, live=60, dead_every=3, payload=False):
    """Alternating live/dead objects straight into the old generation.

    Returns the list of root indices referencing the live ones.
    """
    old = heap.layout.old
    live_addrs = []
    for index in range(live):
        view = heap.new_object("typeArray", length=168, space=old)
        if payload:
            heap.write_payload(view, bytes([index % 251] * 168))
        if index % dead_every:
            live_addrs.append(view.addr)
    heap.roots.extend(live_addrs)
    return live_addrs


class TestMarkCompactBasics:
    def test_empty_heap(self, heap):
        trace = MajorGC(heap).collect()
        assert trace.kind == "major"
        assert trace.objects_copied == 0

    def test_reclaims_garbage(self, heap):
        populate_old(heap)
        used_before = heap.layout.old.used
        trace = MajorGC(heap).collect()
        assert heap.layout.old.used < used_before
        assert trace.bytes_freed > 0

    def test_all_garbage_empties_old(self, heap):
        for _ in range(50):
            heap.new_object("Node", space=heap.layout.old)
        MajorGC(heap).collect()
        assert heap.layout.old.used == 0

    def test_content_preserved(self, heap):
        populate_old(heap, payload=True)
        before = {}
        for index, addr in enumerate(heap.roots):
            before[index] = heap.read_payload(heap.object_at(addr))
        MajorGC(heap).collect()
        for index, addr in enumerate(heap.roots):
            assert heap.read_payload(heap.object_at(addr)) == \
                before[index]

    def test_old_space_parseable_after(self, heap):
        populate_old(heap)
        MajorGC(heap).collect()
        total = 0
        for view in heap.iterate_space(heap.layout.old):
            total += view.size_bytes
        assert total == heap.layout.old.used

    def test_no_overlapping_objects_after(self, heap):
        populate_old(heap)
        MajorGC(heap).collect()
        cursor = heap.layout.old.start
        for view in heap.iterate_space(heap.layout.old):
            assert view.addr == cursor
            cursor = view.end_addr

    def test_references_adjusted(self, heap):
        old = heap.layout.old
        garbage_first = heap.new_object("typeArray", length=4096,
                                        space=old)
        a = heap.new_object("Node", space=old)
        b = heap.new_object("Node", space=old)
        heap.set_field(a, 0, b.addr)
        heap.roots.append(a.addr)
        del garbage_first  # unreachable; forces a slide
        MajorGC(heap).collect()
        new_a = heap.object_at(heap.roots[-1])
        target = heap.get_field(new_a, 0)
        # The reference must point at a valid Node.
        assert heap.object_at(target).klass.name == "Node"

    def test_young_marked_but_not_moved(self, heap):
        young = heap.new_object("Node")
        heap.roots.append(young.addr)
        MajorGC(heap).collect()
        assert heap.roots[-1] == young.addr
        assert not heap.mark_word(young.addr).is_marked  # unmarked after

    def test_young_ref_to_old_adjusted(self, heap):
        old = heap.layout.old
        heap.new_object("typeArray", length=8000, space=old)  # garbage
        target = heap.new_object("Node", space=old)
        young = heap.new_object("Node")
        heap.set_field(young, 0, target.addr)
        heap.roots.append(young.addr)
        MajorGC(heap).collect()
        new_target = heap.get_field(heap.object_at(young.addr), 0)
        assert new_target < target.addr  # slid left
        assert heap.object_at(new_target).klass.name == "Node"

    def test_mark_bits_cleared_after(self, heap):
        populate_old(heap)
        MajorGC(heap).collect()
        for view in heap.iterate_space(heap.layout.old):
            assert not heap.mark_word(view.addr).is_marked

    def test_cards_rebuilt(self, heap):
        heap.new_object("typeArray", length=4096,
                        space=heap.layout.old)  # garbage to force slide
        keeper = heap.new_object("Node", space=heap.layout.old)
        young = heap.new_object("Node")
        heap.set_field(keeper, 0, young.addr)
        heap.roots.extend([keeper.addr, young.addr])
        MajorGC(heap).collect()
        moved = heap.object_at(heap.roots[-2])
        slot = moved.reference_slots()[0]
        assert heap.card_table.is_dirty(slot)


class TestDensePrefix:
    def test_dense_old_gen_does_not_move(self, heap):
        # All live, fully dense: everything lands in the prefix.
        addrs = []
        for _ in range(100):
            view = heap.new_object("typeArray", length=168,
                                   space=heap.layout.old)
            addrs.append(view.addr)
        heap.roots.extend(addrs)
        trace = MajorGC(heap).collect()
        assert trace.objects_copied == 0
        assert heap.roots[-1] == addrs[-1]

    def test_sparse_old_gen_moves(self, heap):
        populate_old(heap, dead_every=2)  # ~50% dead
        trace = MajorGC(heap).collect()
        assert trace.objects_copied > 0

    def test_prefix_holes_filled(self, heap):
        # Dense region with one small hole: hole becomes a filler.
        keep = []
        for index in range(2 * REGION_BYTES // 176):
            view = heap.new_object("typeArray", length=168,
                                   space=heap.layout.old)
            if index != 3:
                keep.append(view.addr)
        heap.roots.extend(keep)
        MajorGC(heap).collect()
        kinds = [view.klass.name
                 for view in heap.iterate_space(heap.layout.old)]
        assert "fillerArray" in kinds or "fillerObject" in kinds

    def test_prefix_skips_bitmap_count(self, heap):
        addrs = []
        for _ in range(100):
            view = heap.new_object("typeArray", length=168,
                                   space=heap.layout.old)
            addrs.append(view.addr)
        holder = heap.new_object("objArray", length=len(addrs),
                                 space=heap.layout.old)
        for index, addr in enumerate(addrs):
            heap.array_store(holder.addr, index, addr)
        heap.roots.append(holder.addr)
        trace = MajorGC(heap).collect()
        # Everything is dense: references into the prefix never query
        # the bitmaps.
        assert trace.count(Primitive.BITMAP_COUNT) == 0


class TestMajorTrace:
    def test_scan_push_in_mark_phase(self, heap):
        a = heap.new_object("Node", space=heap.layout.old)
        b = heap.new_object("Node", space=heap.layout.old)
        heap.set_field(a, 0, b.addr)
        heap.roots.append(a.addr)
        trace = MajorGC(heap).collect()
        marks = [e for e in trace.iter_events()
                 if e.primitive is Primitive.SCAN_PUSH
                 and e.phase == "mark"]
        assert len(marks) == 2  # both Nodes scanned

    def test_bitmap_events_have_bits(self, heap):
        populate_old(heap, dead_every=2)
        trace = MajorGC(heap).collect()
        for event in trace.iter_events():
            if event.primitive is not Primitive.BITMAP_COUNT:
                continue
            assert event.bits >= 0
            assert event.phase in ("adjust", "compact")

    def test_compact_queries_use_software_cache(self, heap):
        populate_old(heap, dead_every=2)
        trace = MajorGC(heap).collect()
        compact_events = [e for e in trace.iter_events()
                          if e.primitive is Primitive.BITMAP_COUNT
                          and e.phase == "compact"]
        cached = [e for e in compact_events
                  if e.bits_cached is not None]
        # Sequential compaction queries hit the software cache.
        assert len(cached) >= len(compact_events) // 2

    def test_setup_residual_recorded(self, heap):
        trace = MajorGC(heap).collect()
        assert "setup" in trace.residuals


class TestMajorProperty:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_reachable_graph_preserved(self, seed):
        """Property: full collection preserves the reachable graph
        across mixed young/old populations."""
        rng = random.Random(seed)
        heap = make_heap()
        addrs = []
        for index in range(rng.randint(10, 150)):
            space = heap.layout.old if rng.random() < 0.6 else None
            if rng.random() < 0.3:
                view = heap.new_object("objArray",
                                       length=rng.randint(1, 6),
                                       space=space)
            else:
                view = heap.new_object("Node", space=space)
            addrs.append(view.addr)
            slots = heap.object_at(view.addr).reference_slots()
            for slot in slots:
                if rng.random() < 0.5:
                    heap.store_ref(slot, rng.choice(addrs))
        for addr in rng.sample(addrs, max(1, len(addrs) // 8)):
            heap.roots.append(addr)

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
                view = heap.object_at(addr)
                stack.extend(reversed(heap.references_of(view)))
            shapes = []
            for addr in order:
                view = heap.object_at(addr)
                refs = [seen.get(r) for r in heap.references_of(view)]
                shapes.append((view.klass.name, view.length, refs))
            return shapes

        before = snapshot()
        MajorGC(heap).collect()
        assert snapshot() == before
        # And a follow-up scavenge still works on the adjusted heap.
        MinorGC(heap).collect()
        assert snapshot() == before


class TestNativeMajor:
    """The C mark/adjust/compact (fast mode) against the scalar
    oracle on hand-built heaps: the same rows, residuals in order,
    summaries and heap, roots, tops and cards."""

    @staticmethod
    def compare(build, collections=1):
        runs = []
        for mode in ("scalar", "fast"):
            heap = make_heap()
            build(heap)
            with use_kernel_mode(mode):
                traces = [MajorGC(heap).collect()
                          for _ in range(collections)]
            runs.append((heap, traces))
        (heap_a, traces_a), (heap_b, traces_b) = runs
        for a, b in zip(traces_a, traces_b, strict=True):
            assert_same_trace(a, b)
            assert (a.objects_copied, a.bytes_copied) \
                == (b.objects_copied, b.bytes_copied)
        assert state(heap_a) == state(heap_b)
        assert not heap_b.bitmaps.beg.any() and not heap_b.bitmaps.end.any()
        return traces_a

    def test_cycles(self):
        def build(heap):
            old = heap.layout.old
            for space in (old, None):
                heap.new_object("typeArray", length=900, space=space)
                ring = [heap.new_object("Node", space=space)
                        for _ in range(5)]
                for a, b in zip(ring, ring[1:] + ring[:1]):
                    heap.set_field(a, 0, b.addr)
                    heap.set_field(b, 1, a.addr)
                heap.roots += [ring[2].addr, ring[2].addr, 0]
                dead = [heap.new_object("Node", space=space)
                        for _ in range(3)]
                heap.set_field(dead[0], 0, dead[1].addr)
                heap.set_field(dead[1], 0, dead[0].addr)
        (trace,) = self.compare(build)
        assert trace.objects_visited == 10
        assert trace.objects_copied > 0

    def test_young_to_old_and_old_to_young(self):
        def build(heap):
            old = heap.layout.old
            heap.new_object("typeArray", length=6000, space=old)
            targets = [heap.new_object("Node", space=old)
                       for _ in range(4)]
            holder = heap.new_object("objArray", length=120, space=old)
            for index in range(120):
                young = heap.new_object("Node")
                heap.set_field(young, 0, targets[index % 4].addr)
                if index % 3:
                    heap.array_store(holder.addr, index, young.addr)
            heap.roots.append(holder.addr)
        self.compare(build, collections=2)

    def test_object_straddling_the_dense_prefix(self):
        def build(heap):
            old = heap.layout.old
            keep = []
            # A dense first region, then an array across its end.
            while old.top + 48 < old.start + REGION_BYTES - 256:
                keep.append(heap.new_object("Node", space=old).addr)
            keep.append(heap.new_object("typeArray", length=1200,
                                        space=old).addr)
            for index in range(40):
                view = heap.new_object("objArray", length=20, space=old)
                if index % 3 == 0:
                    keep.append(view.addr)
                    heap.array_store(view.addr, 0, keep[index])
            heap.roots += keep
        (trace,) = self.compare(build)
        assert trace.count(Primitive.BITMAP_COUNT) > 0

    @pytest.mark.parametrize("first_rows", [4096, 1])
    def test_objects_spanning_regions(self, first_rows, monkeypatch):
        # One first row makes the mark grow every column repeatedly.
        monkeypatch.setattr(mark_compact, "_FIRST_ROWS", first_rows)

        def build(heap):
            old = heap.layout.old
            keep = []
            for index in range(12):
                heap.new_object("typeArray", length=3000, space=old)
                big = heap.new_object("objArray", length=1400, space=old)
                keep.append(big.addr)
                small = heap.new_object("Node", space=old)
                heap.array_store(big.addr, index, small.addr)
                heap.array_store(big.addr, 1399, keep[index // 2])
            heap.roots += keep[::-1]
        (trace,) = self.compare(build)
        assert any(event.refs == 50 for event in trace.iter_events()
                   if event.primitive is Primitive.SCAN_PUSH)

    def test_empty_old(self):
        def build(heap):
            young = [heap.new_object("Node") for _ in range(30)]
            for a, b in zip(young, young[1:]):
                heap.set_field(a, 0, b.addr)
            heap.roots += [young[0].addr, 0]
        (trace,) = self.compare(build)
        assert trace.objects_visited == 30
        assert "adjust" not in trace.phase_names
        assert "compact" not in trace.residuals
