"""Card table: the old-to-young remembered set.

HotSpot divides the old generation into 512-byte *cards*, each summarised
by one byte.  A mutator store of a young-generation reference into an old
object dirties the card holding the updated slot.  At MinorGC start the
collector *Search*es the card table for dirty cards (Fig. 3a) and scans
the objects on them, so young objects reachable only from the old
generation still get traced.

``CLEAN`` is 0xFF in HotSpot (hence the ``*i != -1`` comparison in the
paper's Fig. 7 Search pseudocode); we keep the same convention so the
Search primitive's early-exit comparison is byte-identical.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import ConfigError

CLEAN = 0xFF
DIRTY = 0x00


def card_count(covered_start: int, covered_end: int,
               card_bytes: int) -> int:
    """Cards (table bytes) covering ``[covered_start, covered_end)``."""
    if covered_end <= covered_start:
        raise ConfigError("card table covers an empty range")
    if card_bytes <= 0 or card_bytes & (card_bytes - 1):
        raise ConfigError("card size must be a power of two")
    return -(-(covered_end - covered_start) // card_bytes)


class CardTable:
    """One byte per ``card_bytes`` of the covered range."""

    def __init__(self, covered_start: int, covered_end: int,
                 card_bytes: int = 512, table_base: int = 0) -> None:
        n_cards = card_count(covered_start, covered_end, card_bytes)
        self.covered_start = covered_start
        self.covered_end = covered_end
        self.card_bytes = card_bytes
        #: virtual address where the table itself lives (for traffic
        #: modelling of the Search primitive).
        self.table_base = table_base
        self.bytes = np.full(n_cards, CLEAN, dtype=np.uint8)

    @property
    def num_cards(self) -> int:
        return int(self.bytes.shape[0])

    def card_index(self, addr: int) -> int:
        if not self.covered_start <= addr < self.covered_end:
            raise ConfigError(f"address {addr:#x} outside covered range")
        return (addr - self.covered_start) // self.card_bytes

    def card_range(self, index: int) -> Tuple[int, int]:
        """Covered [start, end) addresses of card ``index``."""
        start = self.covered_start + index * self.card_bytes
        return start, min(start + self.card_bytes, self.covered_end)

    def dirty(self, addr: int) -> None:
        """Mark the card containing ``addr`` dirty (mutator write barrier)."""
        self.bytes[self.card_index(addr)] = DIRTY

    def is_dirty(self, addr: int) -> bool:
        return self.bytes[self.card_index(addr)] == DIRTY

    def clear(self) -> None:
        self.bytes[:] = CLEAN

    def clear_card(self, index: int) -> None:
        self.bytes[index] = CLEAN

    def dirty_slots(self, slot_addrs: np.ndarray) -> None:
        """Dirty the cards of a batch of slot addresses at once.

        Equivalent to calling :meth:`dirty` per address (duplicates are
        fine — the store is idempotent); used by the vectorized
        card-rebuild kernels.
        """
        if len(slot_addrs) == 0:
            return
        indices = (slot_addrs - self.covered_start) // self.card_bytes
        self.bytes[indices] = DIRTY

    def dirty_card_indices(self) -> np.ndarray:
        return np.flatnonzero(self.bytes != CLEAN)

    def dirty_runs(self) -> Iterator[Tuple[int, int]]:
        """Maximal runs of consecutive dirty cards as (first, last+1)."""
        indices = self.dirty_card_indices()
        if indices.size == 0:
            return iter(())
        breaks = np.flatnonzero(np.diff(indices) > 1)
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [indices.size - 1]))
        return iter([(int(indices[s]), int(indices[e]) + 1)
                     for s, e in zip(starts, ends)])

    def search_blocks(self, block_cards: int = 64
                      ) -> List[Tuple[int, int, bool]]:
        """The Search primitive's scan pattern over the table.

        The table is examined in fixed blocks (the paper's Fig. 7 scans
        ``block_size`` strides looking for any non-clean byte).  Returns
        ``(table_addr, n_cards, found_dirty)`` per block, which the trace
        records as Search events.
        """
        blocks = []
        for start in range(0, self.num_cards, block_cards):
            end = min(start + block_cards, self.num_cards)
            found = bool(np.any(self.bytes[start:end] != CLEAN))
            blocks.append((self.table_base + start, end - start, found))
        return blocks
