"""Tests for the card table and mark bitmaps, and the addresses
``HeapInfo.of`` places them at."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import HeapConfig, VMConfig
from repro.errors import ConfigError
from repro.heap.card_table import CLEAN, DIRTY, CardTable
from repro.heap.heap import JavaHeap
from repro.heap.mark_bitmap import MarkBitmaps
from repro.heap.spaces import HeapInfo

BASE = 0x1000_0000
HUGE_PAGE = VMConfig().huge_page_bytes


def held_by(heap: JavaHeap) -> tuple:
    """The addresses and sizes an allocated heap's metadata holds, in
    :func:`layout_of`'s order."""
    return (heap.layout.heap_start, heap.layout.heap_end,
            heap.card_table.table_base, len(heap.card_table.bytes),
            heap.bitmaps.bitmap_base, heap.bitmaps.beg.nbytes,
            heap.bitmaps.covered_start)


def layout_of(info: HeapInfo) -> tuple:
    return (info.heap_start, info.heap_end, info.card_table_base,
            info.card_table_bytes, info.bitmap_base, info.bitmap_bytes,
            info.bitmap_covered_start)


class TestHeapInfo:
    """A replay's layout (``HeapInfo.of``, no heap allocated) is the one
    a ``JavaHeap`` built from the same config holds, and an invalid
    config fails both the same way."""

    @given(heap_bytes=st.integers(min_value=0, max_value=48 << 20),
           card_bytes=st.one_of(
               st.sampled_from([128, 256, 512, 1024, 4096]),
               st.integers(min_value=-64, max_value=8192)),
           pages=st.integers(min_value=1, max_value=1 << 20))
    @settings(max_examples=80, deadline=None)
    @example(heap_bytes=16 << 20, card_bytes=512, pages=256)
    @example(heap_bytes=2048, card_bytes=512, pages=256)  # too small
    @example(heap_bytes=16 << 20, card_bytes=100, pages=256)
    @example(heap_bytes=16 << 20, card_bytes=0, pages=256)
    def test_matches_an_allocated_heap(self, heap_bytes, card_bytes,
                                       pages):
        self.check(HeapConfig(heap_bytes=heap_bytes, card_bytes=card_bytes,
                              base_address=pages * HUGE_PAGE))

    @pytest.mark.parametrize("base", [BASE + 4, BASE + 1])
    def test_misaligned_base_fails_both(self, base):
        error = self.check(HeapConfig(base_address=base))
        assert "8-byte aligned" in str(error)

    @staticmethod
    def check(config: HeapConfig):
        """Compare ``HeapInfo.of(config)`` with ``JavaHeap(config)``;
        returns the ``ConfigError`` both raised, else None."""
        try:
            info = HeapInfo.of(config)
        except ConfigError as error:
            with pytest.raises(ConfigError) as built:
                JavaHeap(config)
            assert str(built.value) == str(error)
            return error
        assert layout_of(info) == held_by(JavaHeap(config))
        # The metadata sits above the heap, card table first.
        assert info.card_table_base >= info.heap_end
        assert info.bitmap_base >= info.card_table_base \
            + info.card_table_bytes
        assert info.metadata_end == info.bitmap_base \
            + 2 * info.bitmap_bytes
        return None


class TestCardTable:
    def make(self, size=64 * 1024, card=512):
        return CardTable(BASE, BASE + size, card_bytes=card,
                         table_base=0x2000_0000)

    def test_initially_clean(self):
        table = self.make()
        assert len(table.dirty_card_indices()) == 0
        assert int(table.bytes[0]) == CLEAN

    def test_dirty_and_check(self):
        table = self.make()
        table.dirty(BASE + 1000)
        assert table.is_dirty(BASE + 1000)
        assert table.is_dirty(BASE + 512)  # same card
        assert not table.is_dirty(BASE + 2048)

    def test_card_index_and_range(self):
        table = self.make()
        index = table.card_index(BASE + 1500)
        start, end = table.card_range(index)
        assert start <= BASE + 1500 < end
        assert end - start == 512

    def test_out_of_range_rejected(self):
        table = self.make()
        with pytest.raises(ConfigError):
            table.card_index(BASE - 1)

    def test_clear(self):
        table = self.make()
        table.dirty(BASE)
        table.clear()
        assert len(table.dirty_card_indices()) == 0

    def test_dirty_runs_merge_consecutive(self):
        table = self.make()
        for offset in (0, 512, 1024, 4096):
            table.dirty(BASE + offset)
        runs = list(table.dirty_runs())
        assert runs == [(0, 3), (8, 9)]

    def test_dirty_runs_empty(self):
        assert list(self.make().dirty_runs()) == []

    def test_search_blocks_cover_table(self):
        table = self.make()
        blocks = table.search_blocks(block_cards=64)
        assert sum(n for _, n, _ in blocks) == table.num_cards
        assert blocks[0][0] == 0x2000_0000

    def test_search_blocks_found_flag(self):
        table = self.make()
        table.dirty(BASE + 512 * 70)
        blocks = table.search_blocks(block_cards=64)
        assert blocks[0][2] is False
        assert blocks[1][2] is True

    def test_non_power_of_two_card_rejected(self):
        with pytest.raises(ConfigError):
            CardTable(BASE, BASE + 4096, card_bytes=500)


class TestMarkBitmaps:
    def make(self, size=64 * 1024):
        return MarkBitmaps(BASE, BASE + size, bitmap_base=0x3000_0000)

    def test_mark_object_sets_begin_and_end(self):
        bm = self.make()
        bm.mark_object(BASE + 64, 32)
        assert bm.is_begin(BASE + 64)
        assert bm.is_end(BASE + 64 + 24)
        assert not bm.is_begin(BASE + 72)

    def test_single_word_object(self):
        bm = self.make()
        bm.mark_object(BASE, 8)
        assert bm.is_begin(BASE)
        assert bm.is_end(BASE)

    def test_naive_count_simple(self):
        bm = self.make()
        bm.mark_object(BASE + 0, 24)     # 3 words
        bm.mark_object(BASE + 64, 16)    # 2 words
        assert bm.naive_live_words_in_range(BASE, BASE + 128) == 5

    def test_fast_matches_naive_simple(self):
        bm = self.make()
        bm.mark_object(BASE + 0, 24)
        bm.mark_object(BASE + 64, 16)
        assert bm.live_words_in_range_fast(BASE, BASE + 128) == 5

    def test_partial_range_start_inside_object(self):
        bm = self.make()
        bm.mark_object(BASE, 64)  # 8 words
        # Range starting at word 4: remaining 4 words live.
        assert bm.naive_live_words_in_range(BASE + 32, BASE + 64) == 4
        assert bm.live_words_in_range_fast(BASE + 32, BASE + 64) == 4

    def test_partial_range_end_inside_object(self):
        bm = self.make()
        bm.mark_object(BASE + 32, 64)
        assert bm.naive_live_words_in_range(BASE, BASE + 48) == 2
        assert bm.live_words_in_range_fast(BASE, BASE + 48) == 2

    def test_range_fully_inside_object(self):
        bm = self.make()
        bm.mark_object(BASE, 512)
        assert bm.live_words_in_range_fast(BASE + 64, BASE + 128) == 8
        assert bm.naive_live_words_in_range(BASE + 64, BASE + 128) == 8

    def test_empty_range(self):
        bm = self.make()
        assert bm.live_words_in_range_fast(BASE + 64, BASE + 64) == 0

    def test_inside_object(self):
        bm = self.make()
        bm.mark_object(BASE + 16, 32)
        assert not bm.inside_object(BASE + 16)  # begin bit itself
        assert bm.inside_object(BASE + 24)
        assert not bm.inside_object(BASE + 48)

    def test_live_objects_in(self):
        bm = self.make()
        bm.mark_object(BASE + 16, 32)
        bm.mark_object(BASE + 128, 48)
        found = list(bm.live_objects_in(BASE, BASE + 1024))
        assert found == [(BASE + 16, 32), (BASE + 128, 48)]

    def test_clear(self):
        bm = self.make()
        bm.mark_object(BASE, 32)
        bm.clear()
        assert bm.naive_live_words_in_range(BASE, BASE + 1024) == 0

    def test_unaligned_rejected(self):
        bm = self.make()
        with pytest.raises(ConfigError):
            bm.bit_index(BASE + 4)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_fast_equals_naive_random(self, data):
        """Property: the optimized count equals the Fig. 8 walk on
        arbitrary object layouts and arbitrary (boundary-spanning)
        query ranges."""
        size_words = 256
        bm = MarkBitmaps(BASE, BASE + size_words * 8)
        cursor = 0
        while cursor < size_words - 2:
            gap = data.draw(st.integers(min_value=0, max_value=8))
            length = data.draw(st.integers(min_value=1, max_value=24))
            start = cursor + gap
            if start + length > size_words:
                break
            bm.mark_object(BASE + start * 8, length * 8)
            cursor = start + length
        lo = data.draw(st.integers(min_value=0, max_value=size_words - 1))
        hi = data.draw(st.integers(min_value=lo, max_value=size_words))
        naive = bm.naive_live_words_in_range(BASE + lo * 8,
                                             BASE + hi * 8)
        fast = bm.live_words_in_range_fast(BASE + lo * 8, BASE + hi * 8)
        assert naive == fast
