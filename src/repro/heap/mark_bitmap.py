"""Begin/end mark bitmaps (Sec. 3.2, Fig. 9).

One bit per 64-bit heap word.  A set bit in ``beg`` marks the first word
of a live object; the matching set bit in ``end`` marks its *last* word.
The compacting phase of MajorGC computes destination addresses by
summing live words in ranges over these bitmaps
(``live_words_in_range``); the naive software algorithm (Fig. 8 — a
bit-at-a-time walk) lives here, while Charon's optimized
subtract-and-popcount algorithm lives in :mod:`repro.core.bitmap_math`
next to the processing unit that executes it.

Semantics of ``live_words_in_range(start, end)``: the number of live
words inside ``[start, end)``, counting *partial* contributions of
objects that straddle either boundary.  Both implementations follow
this definition and are property-tested for equality.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.core.bitmap_math import popcount_int
from repro.errors import ConfigError
from repro.units import WORD


def _popcount(value: int) -> int:
    """Set-bit count of a non-negative int (shared 16-bit LUT)."""
    return popcount_int(value)


def bitmap_nbytes(covered_start: int, covered_end: int) -> int:
    """Bytes of one bitmap over ``[covered_start, covered_end)``: a bit
    per heap word, in whole u64 words."""
    if covered_end <= covered_start:
        raise ConfigError("bitmap covers an empty range")
    if covered_start % WORD or covered_end % WORD:
        raise ConfigError("bitmap bounds must be word aligned")
    return -(-(covered_end - covered_start) // (64 * WORD)) * 8


class MarkBitmaps:
    """Paired begin/end bitmaps covering ``[covered_start, covered_end)``."""

    def __init__(self, covered_start: int, covered_end: int,
                 bitmap_base: int = 0) -> None:
        n_words = bitmap_nbytes(covered_start, covered_end) // 8
        self.covered_start = covered_start
        self.covered_end = covered_end
        #: virtual address of the begin bitmap itself; the end bitmap
        #: lives at ``bitmap_base + OFFSET`` (Fig. 8 line 3).
        self.bitmap_base = bitmap_base
        self.num_bits = (covered_end - covered_start) // WORD
        self.beg = np.zeros(n_words, dtype=np.uint64)
        self.end = np.zeros(n_words, dtype=np.uint64)

    @property
    def bitmap_bytes(self) -> int:
        """Size of one bitmap in bytes (the OFFSET between beg and end)."""
        return self.beg.nbytes

    # -- bit addressing ------------------------------------------------------

    def bit_index(self, addr: int) -> int:
        if not self.covered_start <= addr < self.covered_end:
            raise ConfigError(f"address {addr:#x} outside bitmap coverage")
        if addr % WORD:
            raise ConfigError(f"address {addr:#x} not word aligned")
        return (addr - self.covered_start) // WORD

    def addr_of_bit(self, index: int) -> int:
        return self.covered_start + index * WORD

    def _get(self, array: np.ndarray, index: int) -> bool:
        return bool((int(array[index >> 6]) >> (index & 63)) & 1)

    def _set(self, array: np.ndarray, index: int) -> None:
        array[index >> 6] |= np.uint64(1 << (index & 63))

    def _clear_bit(self, array: np.ndarray, index: int) -> None:
        array[index >> 6] &= np.uint64(~(1 << (index & 63)) & (2**64 - 1))

    # -- marking ---------------------------------------------------------------

    def mark_object(self, addr: int, size_bytes: int) -> None:
        """Set the begin bit of ``addr`` and the end bit of its last word."""
        if size_bytes < WORD or size_bytes % WORD:
            raise ConfigError(f"object size {size_bytes} invalid")
        first = self.bit_index(addr)
        last = self.bit_index(addr + size_bytes - WORD)
        self._set(self.beg, first)
        self._set(self.end, last)

    def is_begin(self, addr: int) -> bool:
        return self._get(self.beg, self.bit_index(addr))

    def is_end(self, addr: int) -> bool:
        return self._get(self.end, self.bit_index(addr))

    def clear(self) -> None:
        self.beg[:] = 0
        self.end[:] = 0

    def clear_range(self, start_addr: int, end_addr: int) -> None:
        """Clear both bitmaps over ``[start_addr, end_addr)``.

        Whole 64-bit words are zeroed with one slice store; the partial
        words at the boundaries are AND-masked — the bulk analogue of
        clearing the bits one at a time.
        """
        if end_addr <= start_addr:
            return
        first = self.bit_index(start_addr)
        last = (min(end_addr, self.covered_end)
                - self.covered_start) // WORD
        lo_word, lo_bit = first >> 6, first & 63
        hi_word, hi_bit = last >> 6, last & 63
        for array in (self.beg, self.end):
            if lo_word == hi_word:
                keep = ~(((1 << (hi_bit - lo_bit)) - 1) << lo_bit)
                array[lo_word] &= np.uint64(keep & (2**64 - 1))
                continue
            if lo_bit:
                array[lo_word] &= np.uint64((1 << lo_bit) - 1)
            else:
                array[lo_word] = 0
            array[lo_word + 1:hi_word] = 0
            if hi_bit:
                array[hi_word] &= np.uint64(
                    (~((1 << hi_bit) - 1)) & (2**64 - 1))

    # -- queries ---------------------------------------------------------------

    def inside_object(self, addr: int) -> bool:
        """True when ``addr``'s word lies strictly inside a live object
        whose begin bit precedes ``addr`` (used for range corner cases)."""
        index = self.bit_index(addr)
        if self._get(self.beg, index):
            return False
        probe = index - 1
        # Scan backwards word-at-a-time for the nearest set bit.
        while probe >= 0:
            word_idx = probe >> 6
            beg_word = int(self.beg[word_idx])
            end_word = int(self.end[word_idx])
            if beg_word == 0 and end_word == 0:
                probe = (word_idx << 6) - 1
                continue
            mask = (1 << ((probe & 63) + 1)) - 1
            beg_word &= mask
            end_word &= mask
            if beg_word == 0 and end_word == 0:
                probe = (word_idx << 6) - 1
                continue
            last_beg = beg_word.bit_length() - 1
            last_end = end_word.bit_length() - 1
            # An end bit at or after the last begin bit closes the object.
            return last_beg > last_end
        return False

    def naive_live_words_in_range(self, start_addr: int,
                                  end_addr: int) -> int:
        """The software algorithm of Fig. 8: walk bits one at a time."""
        if end_addr <= start_addr:
            return 0
        first = self.bit_index(start_addr)
        # end_addr may equal covered_end; clamp the exclusive bound.
        last = (min(end_addr, self.covered_end)
                - self.covered_start) // WORD
        count = 0
        inside = self.inside_object(start_addr)
        for index in range(first, last):
            if self._get(self.beg, index):
                inside = True
            if inside:
                count += 1
            if self._get(self.end, index):
                inside = False
        return count

    def live_words_in_range_fast(self, start_addr: int,
                                 end_addr: int) -> int:
        """Word-parallel count, equivalent to the naive walk.

        This is the same arithmetic Charon's Bitmap Count unit performs
        (subtract the range's end map from its begin map as little-endian
        integers, popcount, and add the begin-bit count — Fig. 9b); the
        collector uses it functionally because HotSpot's software path
        computes the identical value.  The streaming per-word datapath
        model lives in :mod:`repro.core.bitmap_math` and is
        property-tested against both implementations.
        """
        if end_addr <= start_addr:
            return 0
        beg_int, end_int, num_bits = self.range_bits(start_addr, end_addr)
        if num_bits == 0:
            return 0
        # Corner case 1: the range starts inside an object — virtually
        # begin it at bit 0.
        if self.inside_object(start_addr):
            beg_int |= 1
        # Corner case 2: the last object extends past the range — close
        # it virtually at the final bit so the partial words count.
        n_beg = _popcount(beg_int)
        n_end = _popcount(end_int)
        if n_beg > n_end:
            end_int |= 1 << (num_bits - 1)
        diff = end_int - beg_int
        if diff < 0:
            raise ConfigError(
                "inconsistent begin/end bitmaps in range "
                f"[{start_addr:#x}, {end_addr:#x})")
        return _popcount(diff) + _popcount(beg_int)

    def live_objects_in(self, start_addr: int, end_addr: int
                        ) -> Iterator[Tuple[int, int]]:
        """Yield ``(addr, size_bytes)`` of objects *beginning* in the range."""
        first = self.bit_index(start_addr)
        last = (min(end_addr, self.covered_end)
                - self.covered_start) // WORD
        begin_indices = self._set_bits_between(self.beg, first, last)
        for begin in (int(i) for i in begin_indices):
            end_index = self._next_set_bit(self.end, begin)
            if end_index is None:
                raise ConfigError(
                    f"begin bit at {self.addr_of_bit(begin):#x} has no end")
            size = (end_index - begin + 1) * WORD
            yield self.addr_of_bit(begin), size

    def _set_bits_between(self, array: np.ndarray, first: int,
                          last: int) -> np.ndarray:
        """Indices of set bits in ``[first, last)``, ascending."""
        if last <= first:
            return np.empty(0, dtype=np.int64)
        word_lo, word_hi = first >> 6, (last + 63) >> 6
        window = array[word_lo:word_hi]
        bits = np.unpackbits(window.view(np.uint8), bitorder="little")
        positions = np.flatnonzero(bits) + (word_lo << 6)
        return positions[(positions >= first) & (positions < last)]

    def _next_set_bit(self, array: np.ndarray, start: int):
        index = start
        while index < self.num_bits:
            word_idx = index >> 6
            word = int(array[word_idx]) >> (index & 63)
            if word:
                return index + ((word & -word).bit_length() - 1)
            index = (word_idx + 1) << 6
        return None

    # -- raw range extraction (for the optimized unit) --------------------------

    def range_bits(self, start_addr: int, end_addr: int
                   ) -> Tuple[int, int, int]:
        """Return ``(beg_int, end_int, num_bits)`` for a range.

        The bitmaps are materialised as little-endian integers whose bit
        0 corresponds to ``start_addr``'s word — the representation the
        Bitmap Count unit's subtract-and-popcount datapath consumes.
        """
        first = self.bit_index(start_addr)
        last = (min(end_addr, self.covered_end)
                - self.covered_start) // WORD
        num_bits = max(0, last - first)
        if num_bits == 0:
            return 0, 0, 0
        beg_int = self._extract_int(self.beg, first, last)
        end_int = self._extract_int(self.end, first, last)
        return beg_int, end_int, num_bits

    def _extract_int(self, array: np.ndarray, first: int, last: int) -> int:
        word_lo, word_hi = first >> 6, (last + 63) >> 6
        window = int.from_bytes(
            array[word_lo:word_hi].tobytes(), "little")
        window >>= first - (word_lo << 6)
        window &= (1 << (last - first)) - 1
        return window
