"""The fast heap kernels against their scalar oracles.

The vectorized functional-layer kernels promise *bit-exactness*: every
batched primitive is a drop-in replacement for the scalar walk it
shadows.  Hypothesis drives the coverage-index ``live_words_in_range``
equivalence over random mark layouts — including objects straddling the
query boundaries and 64-bit word seams — and seeded randomness covers
the bulk bitmap writes, the Search block scan, batched allocation, and
the end-to-end scalar-vs-fast collector differential.  One timed test
holds the fast kernels' speed floor over the scalar ones.

``derandomize=True`` keeps the Hypothesis examples reproducible in CI.
"""

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import HEAP_KERNELS_ENV, HeapConfig
from repro.errors import InvalidObjectError, OracleViolation
from repro.fuzz.differential import (_assert_kernel_equivalence,
                                     compare_kernel_modes)
from repro.fuzz.executor import ExecutionResult
from repro.gcalgo.g1 import G1Collector
from repro.gcalgo.mark_compact import MajorGC
from repro.gcalgo.mark_sweep import MarkSweepGC
from repro.gcalgo.trace import GCTrace
from repro.heap import fast_kernels
from repro.heap.card_table import CardTable
from repro.heap.fast_kernels import (CoverageIndex, mark_objects_bulk,
                                     search_blocks_fast,
                                     use_kernel_mode)
from repro.heap.heap import JavaHeap
from repro.heap.mark_bitmap import MarkBitmaps
from repro.units import WORD
from repro.workloads.base import workload_klasses
from repro.workloads.mutator import MutatorDriver

from tests.conftest import make_heap

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

#: Random non-overlapping object layouts as (gap_words, size_words)
#: runs; sizes span multiple 64-bit bitmap words so objects straddle
#: word seams, and two extra fractions pick the query endpoints — in
#: the middle of an object as often as in a gap.
layouts = st.tuples(
    st.lists(st.tuples(st.integers(min_value=0, max_value=70),
                       st.integers(min_value=1, max_value=90)),
             min_size=0, max_size=8),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0))


def build_bitmaps(layout):
    objects = []
    cursor = 0
    for gap, size in layout:
        cursor += gap
        objects.append((cursor * WORD, size * WORD))
        cursor += size
    total_words = max(cursor + 3, 8)
    bitmaps = MarkBitmaps(0, total_words * WORD)
    for start, size in objects:
        bitmaps.mark_object(start, size)
    return bitmaps, objects, total_words


class TestCoverageIndex:
    @SETTINGS
    @given(layouts)
    def test_matches_scalar_on_random_ranges(self, case):
        layout, f_lo, f_hi = case
        bitmaps, _, total_words = build_bitmaps(layout)
        index = CoverageIndex(bitmaps)
        lo = int(f_lo * total_words) * WORD
        hi = int(f_hi * total_words) * WORD
        if lo > hi:
            lo, hi = hi, lo
        assert index.live_words(lo, hi) \
            == bitmaps.live_words_in_range_fast(lo, hi) \
            == bitmaps.naive_live_words_in_range(lo, hi)

    @SETTINGS
    @given(layouts)
    def test_straddling_both_boundaries(self, case):
        """Queries cutting through the first and last live object."""
        layout, f_lo, f_hi = case
        bitmaps, objects, _ = build_bitmaps(layout)
        if len(objects) < 2:
            return
        index = CoverageIndex(bitmaps)
        first_addr, first_size = objects[0]
        last_addr, last_size = objects[-1]
        lo = first_addr + int(f_lo * (first_size // WORD)) * WORD
        hi = last_addr + int(f_hi * (last_size // WORD)) * WORD
        if lo > hi:
            return
        assert index.live_words(lo, hi) \
            == bitmaps.live_words_in_range_fast(lo, hi)

    def test_word_seam_edges(self):
        """An object ending exactly at bit 63 / starting at bit 0."""
        bitmaps = MarkBitmaps(0, 256 * WORD)
        bitmaps.mark_object(60 * WORD, 4 * WORD)   # ends at bit 63
        bitmaps.mark_object(64 * WORD, 8 * WORD)   # starts at bit 0
        index = CoverageIndex(bitmaps)
        for lo in range(0, 80, 4):
            for hi in range(lo, 80, 4):
                assert index.live_words(lo * WORD, hi * WORD) \
                    == bitmaps.live_words_in_range_fast(
                        lo * WORD, hi * WORD)


class TestBulkBitmapWrites:
    def test_mark_objects_bulk_matches_scalar(self):
        rng = random.Random(7)
        scalar = MarkBitmaps(0, 4096 * WORD)
        bulk = MarkBitmaps(0, 4096 * WORD)
        addrs, sizes = [], []
        cursor = 0
        while cursor < 4000:
            cursor += rng.randrange(0, 8)
            size = rng.randrange(1, 40)
            if cursor + size > 4000:
                break
            addrs.append(cursor * WORD)
            sizes.append(size * WORD)
            cursor += size
        for addr, size in zip(addrs, sizes):
            scalar.mark_object(addr, size)
        mark_objects_bulk(bulk, np.asarray(addrs, dtype=np.int64),
                          np.asarray(sizes, dtype=np.int64))
        assert scalar.beg.tobytes() == bulk.beg.tobytes()
        assert scalar.end.tobytes() == bulk.end.tobytes()

    def test_clear_range_matches_bitwise(self):
        rng = random.Random(11)
        bitmaps = MarkBitmaps(0, 1024 * WORD)
        cursor = 0
        while cursor < 1000:
            cursor += rng.randrange(0, 6)
            size = rng.randrange(1, 30)
            if cursor + size > 1000:
                break
            bitmaps.mark_object(cursor * WORD, size * WORD)
            cursor += size
        beg_ref = bitmaps.beg.copy()
        end_ref = bitmaps.end.copy()
        lo, hi = 37, 803  # deliberately unaligned to word seams
        for bit in range(lo, hi):
            beg_ref[bit >> 6] &= ~np.uint64(1 << (bit & 63))
            end_ref[bit >> 6] &= ~np.uint64(1 << (bit & 63))
        bitmaps.clear_range(lo * WORD, hi * WORD)
        assert bitmaps.beg.tobytes() == beg_ref.tobytes()
        assert bitmaps.end.tobytes() == end_ref.tobytes()


class TestSearchBlocks:
    @pytest.mark.parametrize("block_cards", [1, 7, 64, 1000])
    def test_matches_scalar(self, block_cards):
        rng = random.Random(13)
        table = CardTable(0, 256 * 1024)
        for _ in range(40):
            table.dirty(rng.randrange(0, 256 * 1024))
        assert search_blocks_fast(table, block_cards) \
            == list(table.search_blocks(block_cards))

    def test_all_clean(self):
        table = CardTable(0, 64 * 1024)
        assert search_blocks_fast(table) \
            == list(table.search_blocks())


class TestBatchedAllocation:
    def test_format_object_run_matches_loop(self):
        heap_a = make_heap()
        heap_b = make_heap()
        names = ["Record", "objArray", "typeArray", "Node", "typeArray"]
        lengths = [0, 5, 13, 0, 0]
        kids = np.array([heap_a.klasses.by_name(name).klass_id
                         for name in names] * 4)
        start = heap_a.layout.eden.start
        # Dirty bytes first: formatting must zero every object body.
        heap_a.buffer[:1 << 16] = 0xAB
        heap_b.buffer[:1 << 16] = 0xAB
        addrs = heap_a.format_object_run(start, kids,
                                         np.array(lengths * 4))
        cursor = start
        for index, kid in enumerate(kids.tolist()):
            klass = heap_b.klasses.by_id(kid)
            length = lengths[index % 5] if klass.kind.is_array else None
            assert addrs[index] == cursor
            cursor = heap_b.format_object(cursor, klass, length).end_addr
        assert bytes(heap_a.buffer) == bytes(heap_b.buffer)

    def test_allocate_batch_matches_plain_loop(self):
        """Mixed shapes, stores in the sink and a large object in the
        sequence, across several scavenges: the same heap, roots,
        cards, counters and traces as one allocate-and-store step per
        object."""
        def run(batched):
            heap = make_heap(2 << 20)
            driver = MutatorDriver(heap, run_name="batch-test")
            eden = heap.layout.eden.capacity
            triples = 2 * eden // 1128  # Record, objArray(4), 1000 B
            # A ring longer than a chunk's triples: older ones die.
            ring = 1024
            assert ring > eden // 1128
            anchor = driver.handle(driver.allocate("objArray",
                                                   length=ring).addr)
            kids, lengths = (np.tile(column, triples) for column in (
                [heap.klasses.by_name(name).klass_id
                 for name in ("Record", "objArray", "typeArray")],
                [0, 4, 1000]))
            lengths[3 * (triples // 2) + 2] = eden // 3  # large: to Old

            def sink(first, addrs):
                # Triple t: ring[t] = record; array[0] = record and
                # record.f0 = array; array[1] = the primitive array.
                ids = np.arange(first, first + len(addrs))
                role, triple = ids % 3, ids // 3 % ring
                heap.store_refs(anchor.addr, triple[role == 0],
                                addrs[role == 0])
                records = heap.load_refs(anchor.addr, triple[role == 1])
                heap.store_refs(addrs[role == 1], 0, records)
                heap.store_refs(records, 0, addrs[role == 1])
                arrays = heap.load_refs(
                    heap.load_refs(anchor.addr, triple[role == 2]), 0)
                heap.store_refs(arrays, 1, addrs[role == 2])

            with use_kernel_mode("fast"):
                if batched:
                    driver.allocate_batch(kids, lengths, sink)
                else:
                    for index, kid in enumerate(kids.tolist()):
                        klass = heap.klasses.by_id(kid)
                        length = int(lengths[index]) \
                            if klass.kind.is_array else None
                        view = driver.allocate(klass.name, length)
                        sink(index, np.array([view.addr]))
            return heap, driver.run

        heap_a, run_a = run(batched=True)
        heap_b, run_b = run(batched=False)
        assert bytes(heap_a.buffer) == bytes(heap_b.buffer)
        assert heap_a.roots == heap_b.roots
        assert bytes(heap_a.card_table.bytes) \
            == bytes(heap_b.card_table.bytes)
        assert run_a.allocated_objects == run_b.allocated_objects
        assert run_a.allocated_bytes == run_b.allocated_bytes
        assert len(run_a.traces) == len(run_b.traces) >= 2
        for a, b in zip(run_a.traces, run_b.traces):
            assert a.kind == b.kind and a.phase_names == b.phase_names
            assert np.array_equal(a.events, b.events)
            assert list(a.residuals.items()) == list(b.residuals.items())

    def test_step_hooks_fire_per_object(self):
        """With a step hook installed the batch takes the per-object
        path: the hook fires once per object, as ``allocate`` fires it,
        and the demotion is counted."""
        from repro.gcalgo.concurrent_mark import ConcurrentMarkGC
        from repro.obs.metrics import global_metrics

        def fallbacks():
            return sum(sample["value"]
                       for sample in global_metrics().samples()
                       if sample["metric"] == "heap.kernel_fallbacks"
                       and sample["labels"].get("op") == "alloc")

        def steps(batched):
            heap = make_heap()
            driver = MutatorDriver(heap, run_name="hooked")
            gc = ConcurrentMarkGC(heap, region_bytes=64 * 1024)
            gc.install_step_hook(driver, period=1)
            fired = []
            driver.step_hooks.append(lambda heap: fired.append(1))
            gc.start_cycle()
            with use_kernel_mode("fast"):
                if batched:
                    driver.allocate_batch(*driver.shapes("Record", 100),
                                          lambda first, addrs: None)
                else:
                    for _ in range(100):
                        driver.allocate("Record")
            return len(fired), gc._pauses

        before = fallbacks()
        assert steps(batched=True) == steps(batched=False)
        assert steps(batched=True)[0] == 100
        assert fallbacks() == before + 2

    @pytest.mark.parametrize("mode", ["scalar", "fast"])
    def test_repeated_slot_keeps_the_last_store(self, mode):
        heap = make_heap()
        array = heap.new_object("objArray", length=4,
                                space=heap.layout.old)
        nodes = [heap.new_object("Node").addr for _ in range(3)]
        with use_kernel_mode(mode):
            heap.store_refs(array.addr, [2, 1, 2, 2],
                            [nodes[0], nodes[1], nodes[2], 0])
            assert heap.load_refs(array.addr, np.arange(4)).tolist() \
                == [0, nodes[1], 0, 0]
        # Young targets stored on the way still dirty the card.
        assert heap.card_table.is_dirty(array.addr + 24 + 2 * 8)

    def test_ref_write_hooks_see_every_store(self):
        heap = make_heap()
        array = heap.new_object("objArray", length=8)
        node = heap.new_object("Node")
        seen = []
        heap.ref_write_hooks.append(
            lambda slot, old, new: seen.append((slot, old, new)))
        with use_kernel_mode("fast"):
            heap.store_refs(array.addr, np.arange(8), node.addr)
            heap.store_refs(node.addr, [1, 0], [array.addr, 0])
        slots = [array.addr + 24 + 8 * index for index in range(8)]
        assert seen == ([(slot, 0, node.addr) for slot in slots]
                        + [(node.addr + 24, 0, array.addr),
                           (node.addr + 16, 0, 0)])


class TestKernelDifferential:
    @pytest.mark.parametrize("seed", range(2))
    def test_all_collectors_bit_exact(self, seed):
        result = compare_kernel_modes(
            seed, collectors=("minor", "major", "sweep", "g1"))
        detail = result.failure.describe() if result.failure \
            else result.detail
        assert result.status == "ok", detail
        assert result.collections_checked > 0


    def test_residual_order_is_compared(self):
        """The replayers walk residual-only phases in insertion order,
        so two traces whose residuals differ only in that order are not
        equivalent."""
        def result(phases):
            trace = GCTrace("minor")
            for phase in phases:
                trace.residual(phase, 10.0, 64)
            return ExecutionResult(collector="minor", seed=0,
                                   final_fingerprint="", traces=[trace],
                                   heap=make_heap())

        a, b = result(["root", "drain"]), result(["drain", "root"])
        assert a.traces[0].residuals == b.traces[0].residuals
        with pytest.raises(OracleViolation, match="residuals differ"):
            _assert_kernel_equivalence("minor", a, b)


def populate_classic(seed, heap_bytes=32 << 20):
    """A seeded, driver-fronted heap: record clusters hanging off
    rooted old-generation arrays with interleaved garbage (work for
    compaction), and young records, some rooted and some linked from
    old slots (dirty cards for the minor collection's card search)."""
    rng = random.Random(seed)
    heap = JavaHeap(HeapConfig(heap_bytes=heap_bytes),
                    klasses=workload_klasses())
    driver = MutatorDriver(heap, run_name="collect-speed")
    old = heap.layout.old
    clusters = []
    for _ in range(60):
        array = heap.new_object("objArray", length=32, space=old)
        if rng.random() < 0.7:
            driver.handle(array.addr)
            clusters.append(array.addr)
        for index in range(32):
            record = heap.new_object("Record", space=old)
            if rng.random() < 0.6:
                heap.array_store(array.addr, index, record.addr)
        for _ in range(rng.randrange(8)):
            heap.new_object("Box", space=old)  # immediate garbage
    young = []
    for _ in range(4000):
        record = driver.allocate("Record")
        if rng.random() < 0.35:
            driver.handle(record.addr)
        if rng.random() < 0.2 and clusters:
            heap.array_store(rng.choice(clusters), rng.randrange(32),
                             record.addr)
        if young and rng.random() < 0.5:
            heap.set_field(record, 0, rng.choice(young))
        young.append(record.addr)
    return driver


class TestCollectSpeed:
    def test_minor_plus_major_at_least_3x(self):
        """The two compacting collectors dominate trace generation:
        on a seeded 32 MiB heap their scalar time is at least 3x their
        fast time (9-14x on a 2-vCPU VM).  Best of 3, each
        collection on a freshly built heap, modes interleaved; the last
        runs of the two modes must also leave identical traces and
        heaps."""
        collections = {"minor": lambda driver: driver.minor_gc(),
                       "major": lambda driver: driver.major_gc()}
        best = {"scalar": 0.0, "fast": 0.0}
        for name, collect in collections.items():
            times = {mode: float("inf") for mode in best}
            subjects = {}
            for _ in range(3):
                for mode in best:
                    with use_kernel_mode(mode):
                        driver = populate_classic(1234)
                        start = time.perf_counter()
                        collect(driver)
                        times[mode] = min(times[mode],
                                          time.perf_counter() - start)
                    subjects[mode] = driver
            for mode in best:
                best[mode] += times[mode]
            scalar, fast = subjects["scalar"], subjects["fast"]
            for a, b in zip(scalar.run.traces, fast.run.traces,
                            strict=True):
                assert np.array_equal(a.events, b.events), name
            assert bytes(scalar.heap.buffer) == bytes(fast.heap.buffer)
        assert best["scalar"] >= 3.0 * best["fast"], (
            f"fast minor+major only {best['scalar'] / best['fast']:.1f}x "
            f"faster ({best['scalar'] * 1e3:.1f}ms vs "
            f"{best['fast'] * 1e3:.1f}ms)")


class TestBadRoots:
    """A root or a reference field outside the heap, not word-aligned
    or at a garbage header, faults in the fast kernels (the native
    major phases included) exactly as in the scalar accessors: never a
    wrapped index, a rounded-down word or a numpy error."""

    @pytest.mark.parametrize("where, error", [
        ("below", "outside heap"), ("above", "outside heap"),
        ("unaligned", "unaligned u64 read"),
        ("field-below", "outside heap"),
        ("field-unaligned", "unaligned u64 read"),
        ("klass", "garbage klass id")])
    @pytest.mark.parametrize("collector", [MajorGC, MarkSweepGC,
                                           G1Collector],
                             ids=["major", "sweep", "g1"])
    def test_fast_raises_the_scalar_error(self, collector, where, error):
        def outcome(mode):
            heap = make_heap()
            node = heap.new_object("Node").addr
            heap.roots.append(node)
            bad = {"below": heap.base - 64, "above": heap.layout.heap_end,
                   "unaligned": node + 4}
            if where.startswith("field-"):
                holder = heap.new_object("Node", space=heap.layout.old)
                heap.write_u64(holder.addr + 16, bad[where[6:]])
                heap.roots.append(holder.addr)
            elif where == "klass":
                garbage = heap.new_object("Node", space=heap.layout.old)
                heap.write_u64(garbage.addr + 8, 0xDEAD)
                heap.roots.append(garbage.addr)
            else:
                heap.roots.append(bad[where])
            with use_kernel_mode(mode), pytest.raises(Exception) as info:
                collector(heap).collect()
            return type(info.value), str(info.value)

        scalar = outcome("scalar")
        assert scalar[0] is InvalidObjectError and error in scalar[1]
        assert outcome("fast") == scalar


class TestModeReadOnce:
    """The ``REPRO_HEAP_KERNELS`` knob is read once per mutator batch
    call and once per collection, not once per ``fast_enabled``."""

    def test_one_read_per_batch_call_and_collection(self, monkeypatch):
        monkeypatch.delenv(HEAP_KERNELS_ENV, raising=False)
        driver = MutatorDriver(make_heap())
        heap = driver.heap
        anchor = driver.handle(driver.allocate("objArray", length=64).addr)
        reads = []
        real = fast_kernels.settings

        def counted(*args):
            reads.append(1)
            return real(*args)

        def sink(first, addrs):
            ids = np.arange(first, first + len(addrs))
            for _ in range(3):
                heap.store_refs(anchor.addr, ids, addrs)
                heap.store_refs(addrs, 0, heap.load_refs(anchor.addr, ids))

        monkeypatch.setattr(fast_kernels, "settings", counted)
        driver.allocate_batch(*driver.shapes("Record", 64), sink)
        assert len(reads) == 1
        driver.minor_gc()
        assert len(reads) == 2

    def test_knob_changes_between_calls_and_override_wins(self,
                                                          monkeypatch):
        driver = MutatorDriver(make_heap())
        modes = []

        def sink(first, addrs):
            modes.append(fast_kernels.kernel_mode())
            monkeypatch.setenv(HEAP_KERNELS_ENV, "scalar")
            modes.append(fast_kernels.kernel_mode())
            with use_kernel_mode("scalar"):
                modes.append(fast_kernels.kernel_mode())
            modes.append(fast_kernels.kernel_mode())

        monkeypatch.setenv(HEAP_KERNELS_ENV, "fast")
        driver.allocate_batch(*driver.shapes("Record", 4), sink)
        assert modes == ["fast", "fast", "scalar", "fast"]
        assert fast_kernels.kernel_mode() == "scalar"
        modes.clear()
        driver.allocate_batch(*driver.shapes("Record", 4), sink)
        assert modes == ["scalar"] * 16  # the per-object path: 4 sinks


class TestKernelMetrics:
    def test_fast_and_scalar_calls_are_counted(self):
        from repro.obs.metrics import global_metrics

        def collect(mode):
            from repro.gcalgo.parallel_scavenge import MinorGC
            heap = make_heap()
            with use_kernel_mode(mode):
                for index in range(40):
                    view = heap.new_object("Record")
                    if index % 3 == 0:
                        heap.roots.append(view.addr)
                MinorGC(heap).collect()

        def counted(kernel):
            return sum(
                sample["value"]
                for sample in global_metrics().samples()
                if sample["metric"] == "heap.kernel_calls"
                and sample["labels"].get("op") == "minor"
                and sample["labels"].get("kernel") == kernel)

        fast_before, scalar_before = counted("fast"), counted("scalar")
        collect("fast")
        collect("scalar")
        assert counted("fast") == fast_before + 1
        assert counted("scalar") == scalar_before + 1

        recorded = {sample["metric"]
                    for sample in global_metrics().samples()}
        assert "heap.kernel_calls" in recorded

    def test_layouts_reject_unaligned_instances(self):
        from repro.heap.klass import KlassKind

        class OddKlass:
            klass_id = 3
            name = "Odd"
            kind = KlassKind.INSTANCE

            def instance_bytes(self, length=None):
                return 17  # not a multiple of WORD

            def reference_offsets(self, length=None):
                return ()

        class OddTable:
            version = 1

            def __iter__(self):
                return iter([OddKlass()])

        with pytest.raises(fast_kernels.FastKernelFallback):
            fast_kernels.layouts_for(OddTable())

    def test_fallback_demotes_and_counts(self, monkeypatch):
        from repro.obs.metrics import global_metrics

        heap = make_heap()

        def unsupported(table):
            raise fast_kernels.FastKernelFallback("unsupported table")

        monkeypatch.setattr(fast_kernels, "layouts_for", unsupported)

        def fallbacks():
            return sum(
                sample["value"]
                for sample in global_metrics().samples()
                if sample["metric"] == "heap.kernel_fallbacks")

        before = fallbacks()
        with use_kernel_mode("fast"):
            assert fast_kernels.fast_enabled(heap) is False
        assert fallbacks() == before + 1
