"""The fast heap kernels against their scalar oracles.

The vectorized functional-layer kernels promise *bit-exactness*: every
batched primitive is a drop-in replacement for the scalar walk it
shadows.  Hypothesis drives the coverage-index ``live_words_in_range``
equivalence over random mark layouts — including objects straddling the
query boundaries and 64-bit word seams — and seeded randomness covers
the bulk bitmap writes, the Search block scan, batched allocation, and
the end-to-end scalar-vs-fast collector differential.

``derandomize=True`` keeps the Hypothesis examples reproducible in CI.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz.differential import compare_kernel_modes
from repro.heap import fast_kernels
from repro.heap.card_table import CardTable
from repro.heap.fast_kernels import (CoverageIndex, mark_objects_bulk,
                                     search_blocks_fast,
                                     use_kernel_mode)
from repro.heap.mark_bitmap import MarkBitmaps
from repro.units import WORD

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
        klass = heap_a.klasses.by_name("Record")
        start = heap_a.layout.eden.start
        size = heap_a.format_object_run(start, 16, klass)
        for index in range(16):
            heap_b.format_object(start + index * size, klass)
        assert bytes(heap_a.buffer) == bytes(heap_b.buffer)

    def test_allocate_batch_matches_plain_loop(self):
        from repro.workloads.mutator import MutatorDriver

        def run(batched):
            heap = make_heap()
            driver = MutatorDriver(heap, run_name="batch-test")
            anchor = driver.allocate("objArray", length=64)
            handle = driver.handle(anchor.addr)
            fits = heap.layout.eden.fits_count(48)
            count = fits + 50  # forces one scavenge mid-run
            cursor = 0

            def sink(addrs):
                nonlocal cursor
                for addr in addrs:
                    if cursor < 64:
                        heap.array_store(handle.addr, cursor, addr)
                    cursor += 1

            with use_kernel_mode("fast"):
                if batched:
                    driver.allocate_batch("Record", count, sink=sink)
                else:
                    for _ in range(count):
                        sink([driver.allocate("Record").addr])
            return heap, driver.run

        heap_a, run_a = run(batched=True)
        heap_b, run_b = run(batched=False)
        assert bytes(heap_a.buffer) == bytes(heap_b.buffer)
        assert run_a.allocated_objects == run_b.allocated_objects
        assert run_a.allocated_bytes == run_b.allocated_bytes
        assert len(run_a.traces) == len(run_b.traces) >= 1
        for a, b in zip(run_a.traces, run_b.traces):
            assert a.kind == b.kind and a.events == b.events
            assert a.residuals == b.residuals


class TestKernelDifferential:
    @pytest.mark.parametrize("seed", range(2))
    def test_all_collectors_bit_exact(self, seed):
        result = compare_kernel_modes(
            seed, collectors=("minor", "major", "sweep", "g1"))
        detail = result.failure.describe() if result.failure \
            else result.detail
        assert result.status == "ok", detail
        assert result.collections_checked > 0


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
