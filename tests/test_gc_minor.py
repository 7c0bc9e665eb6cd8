"""Tests for the MinorGC scavenger."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, InvalidObjectError, OutOfMemoryError
from repro.gcalgo import parallel_scavenge
from repro.gcalgo.parallel_scavenge import MinorGC
from repro.gcalgo.trace import Primitive
from repro.heap.fast_kernels import use_kernel_mode
from repro.platform import native
from repro.workloads.registry import run_workload

from tests.conftest import make_heap


def build_chain(heap, count, every=50):
    """A linked chain of Nodes; returns root indices into heap.roots."""
    prev = 0
    for index in range(count):
        view = heap.new_object("Node")
        heap.set_field(view, 0, prev)
        prev = view.addr
    heap.roots.append(prev)
    return prev


def chain_length(heap, addr):
    count = 0
    while addr:
        view = heap.object_at(addr)
        addr = heap.get_field(view, 0)
        count += 1
    return count


class TestScavengeBasics:
    def test_empty_heap(self, heap):
        trace = MinorGC(heap).collect()
        assert trace.objects_copied == 0
        assert trace.kind == "minor"

    def test_reachable_objects_survive(self, heap):
        build_chain(heap, 100)
        trace = MinorGC(heap).collect()
        assert trace.objects_copied == 100
        assert chain_length(heap, heap.roots[-1]) == 100

    def test_garbage_not_copied(self, heap):
        build_chain(heap, 50)
        for _ in range(200):
            heap.new_object("Node")  # unreachable
        trace = MinorGC(heap).collect()
        assert trace.objects_copied == 50

    def test_eden_empty_after_gc(self, heap):
        build_chain(heap, 100)
        MinorGC(heap).collect()
        assert heap.layout.eden.used == 0

    def test_survivors_in_to_space(self, heap):
        build_chain(heap, 100)
        MinorGC(heap).collect()
        addr = heap.roots[-1]
        assert heap.layout.survivor_from.contains(addr)

    def test_roots_updated(self, heap):
        old_addr = build_chain(heap, 10)
        MinorGC(heap).collect()
        assert heap.roots[-1] != old_addr

    def test_null_roots_ignored(self, heap):
        heap.roots.extend([0, 0])
        trace = MinorGC(heap).collect()
        assert trace.objects_copied == 0

    def test_shared_object_copied_once(self, heap):
        shared = heap.new_object("Node")
        a = heap.new_object("Node")
        b = heap.new_object("Node")
        heap.set_field(a, 0, shared.addr)
        heap.set_field(b, 0, shared.addr)
        heap.roots.extend([a.addr, b.addr])
        trace = MinorGC(heap).collect()
        assert trace.objects_copied == 3
        # Both updated to the same forwarded address.
        new_a = heap.object_at(heap.roots[-2])
        new_b = heap.object_at(heap.roots[-1])
        assert heap.get_field(new_a, 0) == heap.get_field(new_b, 0)

    def test_cycle_handled(self, heap):
        a = heap.new_object("Node")
        b = heap.new_object("Node")
        heap.set_field(a, 0, b.addr)
        heap.set_field(b, 0, a.addr)
        heap.roots.append(a.addr)
        trace = MinorGC(heap).collect()
        assert trace.objects_copied == 2

    def test_content_preserved(self, heap):
        arr = heap.new_object("typeArray", length=128)
        heap.write_payload(arr, bytes(range(128)))
        holder = heap.new_object("Node")
        heap.set_field(holder, 0, arr.addr)
        heap.roots.append(holder.addr)
        MinorGC(heap).collect()
        new_holder = heap.object_at(heap.roots[-1])
        new_arr = heap.object_at(heap.get_field(new_holder, 0))
        assert heap.read_payload(new_arr) == bytes(range(128))


class TestAgingAndPromotion:
    def test_age_increments_per_survival(self, heap):
        build_chain(heap, 5)
        MinorGC(heap).collect()
        mark = heap.mark_word(heap.roots[-1])
        assert mark.age == 1
        MinorGC(heap).collect()
        assert heap.mark_word(heap.roots[-1]).age == 2

    def test_promotion_at_threshold(self, heap):
        build_chain(heap, 5)
        threshold = heap.config.tenuring_threshold
        for _ in range(threshold):
            MinorGC(heap).collect()
        assert heap.layout.in_old(heap.roots[-1])

    def test_survivor_overflow_promotes_early(self, heap):
        # One object larger than the survivor space promotes directly.
        big = heap.layout.survivor_to.capacity + 1024
        view = heap.new_object("typeArray", length=big)
        heap.roots.append(view.addr)
        trace = MinorGC(heap).collect()
        assert trace.objects_promoted == 1
        assert heap.layout.in_old(heap.roots[-1])

    def test_promotion_safety_check(self, heap):
        # Fill old until a worst-case promotion cannot be absorbed.
        old = heap.layout.old
        while old.free > heap.layout.eden.capacity // 2:
            heap.new_object("typeArray", length=4096, space=old)
        heap.new_object("typeArray",
                        length=heap.layout.eden.capacity // 2)
        gc = MinorGC(heap)
        assert not gc.promotion_safe()
        with pytest.raises(OutOfMemoryError):
            gc.collect()


class TestCardTableIntegration:
    def test_old_to_young_kept_alive(self, heap):
        young = heap.new_object("Node")
        old = heap.new_object("Node", space=heap.layout.old)
        heap.set_field(old, 0, young.addr)  # dirties card; no root
        trace = MinorGC(heap).collect()
        assert trace.objects_copied == 1
        new_target = heap.get_field(heap.object_at(old.addr), 0)
        assert heap.layout.in_young(new_target)

    def test_card_redirtied_when_target_stays_young(self, heap):
        young = heap.new_object("Node")
        old = heap.new_object("Node", space=heap.layout.old)
        heap.set_field(old, 0, young.addr)
        MinorGC(heap).collect()
        slot = old.reference_slots()[0]
        assert heap.card_table.is_dirty(slot)

    def test_card_cleaned_after_promotion(self, heap):
        young = heap.new_object("Node")
        old = heap.new_object("Node", space=heap.layout.old)
        heap.set_field(old, 0, young.addr)
        for _ in range(heap.config.tenuring_threshold):
            MinorGC(heap).collect()
        target = heap.get_field(heap.object_at(old.addr), 0)
        assert heap.layout.in_old(target)
        slot = old.reference_slots()[0]
        assert not heap.card_table.is_dirty(slot)

    def test_search_events_cover_card_table(self, heap):
        build_chain(heap, 10)
        trace = MinorGC(heap).collect()
        searched = sum(e.size_bytes for e in trace.iter_events()
                       if e.primitive is Primitive.SEARCH)
        assert searched == heap.card_table.num_cards


class TestTraceContents:
    def test_copy_events_match_copied_objects(self, heap):
        build_chain(heap, 42)
        trace = MinorGC(heap).collect()
        assert trace.count(Primitive.COPY) == 42
        assert trace.summary()["copy_bytes"] == trace.bytes_copied

    def test_scan_push_only_for_ref_objects(self, heap):
        arr = heap.new_object("typeArray", length=512)
        heap.roots.append(arr.addr)
        trace = MinorGC(heap).collect()
        assert trace.count(Primitive.SCAN_PUSH) == 0
        assert trace.count(Primitive.COPY) == 1

    def test_large_array_scans_chunked(self, heap):
        arr = heap.new_object("objArray", length=200)
        heap.roots.append(arr.addr)
        trace = MinorGC(heap).collect()
        scans = [e for e in trace.iter_events()
                 if e.primitive is Primitive.SCAN_PUSH]
        assert len(scans) == 4  # 200 refs in chunks of 50
        assert sum(e.refs for e in scans) == 200

    def test_residual_recorded(self, heap):
        build_chain(heap, 10)
        trace = MinorGC(heap).collect()
        assert trace.summary()["residual_instructions"] > 0
        assert "drain" in trace.residuals


class TestScavengeProperty:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_graph_preserved(self, seed):
        """Property: the reachable object graph (shape and payloads)
        is identical before and after a scavenge."""
        rng = random.Random(seed)
        heap = make_heap()
        views = []
        for _ in range(rng.randint(5, 120)):
            if rng.random() < 0.3:
                view = heap.new_object("objArray",
                                       length=rng.randint(1, 8))
            else:
                view = heap.new_object("Node")
            views.append(view.addr)
            slots = heap.object_at(view.addr).reference_slots()
            for slot_index in range(len(slots)):
                if views and rng.random() < 0.6:
                    target = rng.choice(views)
                    heap.store_ref(slots[slot_index], target)
        root_count = max(1, len(views) // 10)
        for addr in rng.sample(views, root_count):
            heap.roots.append(addr)

        def snapshot():
            shapes = []
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
            for addr in order:
                view = heap.object_at(addr)
                refs = [seen.get(r) for r in heap.references_of(view)]
                shapes.append((view.klass.name, view.length, refs))
            return shapes

        before = snapshot()
        MinorGC(heap).collect()
        assert snapshot() == before


def every_branch(heap):
    """Roots and an old-to-young reference that reach every branch of
    the drain: object arrays over 50 slots, shared and cyclic objects,
    a null root, an object that fills To (so the rest overflow into
    Old) and an Old slot whose young target keeps its card dirty."""
    layout = heap.layout
    nodes = [heap.new_object("Node") for _ in range(120)]
    for node, successor in zip(nodes, nodes[1:]):
        heap.set_field(node, 0, successor.addr)
    heap.set_field(nodes[-1], 1, nodes[0].addr)  # a cycle
    array = heap.new_object("objArray", length=137)
    for index in range(0, 137, 3):
        heap.array_store(array.addr, index, nodes[index % 40].addr)
    bulk = heap.new_object("typeArray",
                           length=layout.survivor_to.capacity - 4096)
    old = heap.new_object("Node", space=layout.old)
    heap.set_field(old, 0, nodes[5].addr)
    heap.set_field(old, 1, array.addr)
    heap.roots += [nodes[0].addr, 0, array.addr, nodes[0].addr,
                   bulk.addr]
    return old


def state(heap):
    layout = heap.layout
    return (bytes(heap.buffer), list(heap.roots),
            heap.card_table.bytes.tobytes(),
            [space.top for space in layout.spaces],
            layout.survivor_from.name)


def assert_same_trace(a, b):
    assert a.phase_names == b.phase_names
    assert a.events.tobytes() == b.events.tobytes()
    assert list(a.residuals.items()) == list(b.residuals.items())
    assert a.summary() == b.summary()
    assert (a.objects_visited, a.bytes_freed) \
        == (b.objects_visited, b.bytes_freed)


class TestNativeDrain:
    """The C drain (fast mode) against the scalar oracle."""

    def run(self, mode, build, collections=1, threshold=None):
        heap = make_heap()
        build(heap)
        with use_kernel_mode(mode):
            traces = [MinorGC(heap, tenuring_threshold=threshold).collect()
                      for _ in range(collections)]
        return heap, traces

    @pytest.mark.parametrize("first_rows", [4096, 1])
    def test_every_branch_matches_scalar(self, first_rows, monkeypatch):
        # One first row makes the drain grow its row columns repeatedly.
        monkeypatch.setattr(parallel_scavenge, "_FIRST_ROWS", first_rows)
        runs = {mode: self.run(mode, every_branch, collections=3,
                               threshold=2)
                for mode in ("scalar", "fast")}
        (heap_a, traces_a), (heap_b, traces_b) = runs.values()
        for a, b in zip(traces_a, traces_b):
            assert_same_trace(a, b)
        assert state(heap_a) == state(heap_b)
        # The oracle really took the branches this heap is built for.
        first, second, _ = traces_a
        assert first.objects_promoted > 0  # survivor overflow
        assert second.objects_promoted > 0  # tenured at the threshold
        assert any(e.refs == 50 for e in first.iter_events()
                   if e.primitive is Primitive.SCAN_PUSH)

    def test_card_redirtied_like_scalar(self):
        def card(mode):
            heap = make_heap()
            old = every_branch(heap)
            with use_kernel_mode(mode):
                MinorGC(heap).collect()
            return heap.card_table.is_dirty(old.reference_slots()[0])

        assert card("scalar") and card("fast")

    def test_empty_stack_records_no_drain(self):
        def build(heap):
            heap.new_object("Node")  # garbage: no roots, no cards
        for mode in ("scalar", "fast"):
            _, (trace,) = self.run(mode, build)
            assert list(trace.residuals) == ["setup"]
            assert trace.phase_names == ("card-search",)

    def test_null_roots_only(self):
        def build(heap):
            heap.roots += [0, 0]
        (_, (a,)), (_, (b,)) = (self.run(mode, build)
                                for mode in ("scalar", "fast"))
        assert_same_trace(a, b)
        assert "evacuate" not in b.phase_names

    def test_spark_lr_capture_matches_scalar(self):
        runs = {}
        for mode in ("scalar", "fast"):
            with use_kernel_mode(mode):
                runs[mode] = run_workload("spark-lr")
        a, b = runs["scalar"], runs["fast"]
        kinds = [trace.kind for trace in a.traces]
        assert kinds.count("minor") == 7 and kinds.count("major") == 2
        assert [t.kind for t in b.traces] == kinds
        for trace_a, trace_b in zip(a.traces, b.traces):
            assert_same_trace(trace_a, trace_b)
        assert (a.allocated_objects, a.allocated_bytes) \
            == (b.allocated_objects, b.allocated_bytes)

    def test_garbage_klass_raises_like_scalar(self):
        def outcome(mode):
            heap = make_heap()
            view = heap.new_object("Node")
            heap.write_u64(view.addr + 8, 0xDEAD)
            heap.roots.append(view.addr)
            with use_kernel_mode(mode), \
                    pytest.raises(InvalidObjectError) as info:
                MinorGC(heap).collect()
            return str(info.value)

        assert outcome("fast") == outcome("scalar")
        assert "garbage klass id 0xdead" in outcome("fast")

    def test_unaligned_root_raises_like_scalar(self):
        def outcome(mode):
            heap = make_heap()
            heap.roots.append(heap.new_object("Node").addr + 4)
            with use_kernel_mode(mode), \
                    pytest.raises(InvalidObjectError) as info:
                MinorGC(heap).collect()
            return str(info.value)

        assert outcome("fast") == outcome("scalar")
        assert outcome("fast").startswith("unaligned u64 read")

    def test_old_overflow_raises_like_scalar(self, monkeypatch):
        # Skip the worst-case pre-check so a promotion overflows Old.
        monkeypatch.setattr(MinorGC, "promotion_safe", lambda gc: True)

        def outcome(mode):
            heap = make_heap()
            old = heap.layout.old
            heap.new_object("typeArray", length=old.free - 224, space=old)
            build_chain(heap, 20)
            with use_kernel_mode(mode), \
                    pytest.raises(OutOfMemoryError) as info:
                MinorGC(heap, tenuring_threshold=1).collect()
            return str(info.value), state(heap)

        message, after = outcome("fast")
        assert (message, after) == outcome("scalar")
        assert "'old' cannot fit 48 bytes" in message

    def test_missing_compiler(self, tmp_path, monkeypatch):
        monkeypatch.setattr(native, "_LIBRARY", None)
        monkeypatch.setenv("CC", str(tmp_path / "no-such-gcc"))
        heap = make_heap()
        build_chain(heap, 10)
        before = state(heap)
        with use_kernel_mode("fast"), \
                pytest.raises(ConfigError, match="REPRO_HEAP_KERNELS=scalar"):
            MinorGC(heap).collect()
        assert state(heap) == before
        with use_kernel_mode("scalar"):
            assert MinorGC(heap).collect().objects_copied == 10
