"""Tests for the MajorGC mark-compact collector."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.gcalgo.mark_compact import (DENSE_PREFIX_DENSITY, MajorGC,
                                       REGION_BYTES)
from repro.gcalgo.parallel_scavenge import MinorGC
from repro.gcalgo.trace import Primitive

from tests.conftest import make_heap


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
