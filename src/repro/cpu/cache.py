"""A functional set-associative write-back cache.

Used in two places:

* the Charon **bitmap cache** (8 KB, 8-way, 32 B lines, Sec. 4.5) is
  simulated functionally — the ~90% hit rate the paper reports must
  *emerge* from the access stream, so we model real sets, tags and LRU;
* host-side spot checks in tests (the host hierarchy itself is costed
  analytically with hit fractions, per :mod:`repro.cpu.core`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Tuple

from repro.errors import ConfigError


class SetAssociativeCache:
    """LRU set-associative cache with write-back, write-allocate policy."""

    def __init__(self, size_bytes: int, ways: int, line_bytes: int,
                 name: str = "cache") -> None:
        if size_bytes <= 0 or ways <= 0 or line_bytes <= 0:
            raise ConfigError("cache geometry must be positive")
        if size_bytes % (ways * line_bytes):
            raise ConfigError("cache size must divide into ways * lines")
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (ways * line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ConfigError("number of sets must be a power of two")
        # set index -> OrderedDict tag -> dirty flag (LRU order: oldest first)
        self._sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def _index_tag(self, addr: int) -> Tuple[int, int]:
        line = addr // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Access the line holding ``addr``; returns True on a hit.

        On a miss the line is allocated, evicting the LRU way if the set
        is full (counting a write-back if the victim is dirty).
        """
        index, tag = self._index_tag(addr)
        ways = self._sets[index]
        if tag in ways:
            self.hits += 1
            dirty = ways.pop(tag)
            ways[tag] = dirty or is_write
            return True
        self.misses += 1
        if len(ways) >= self.ways:
            _, victim_dirty = ways.popitem(last=False)
            self.evictions += 1
            if victim_dirty:
                self.writebacks += 1
        ways[tag] = is_write
        return False

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines
        written back (Charon flushes the bitmap cache after each MajorGC
        phase for coherence, Sec. 4.5)."""
        dirty = 0
        for ways in self._sets:
            dirty += sum(1 for flag in ways.values() if flag)
            ways.clear()
        self.writebacks += dirty
        return dirty

    def lru_state(self) -> List[List[Tuple[int, bool]]]:
        """Every set's ``(tag, dirty)`` lines, least recently used
        first (what a replay kernel loads before running the state
        machine outside this object)."""
        return [list(ways.items()) for ways in self._sets]

    def set_lru_state(self, state: List[List[Tuple[int, bool]]]) -> None:
        """Replace every set's lines; the inverse of :meth:`lru_state`."""
        for ways, lines in zip(self._sets, state):
            ways.clear()
            ways.update(lines)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)

    def contains(self, addr: int) -> bool:
        """Non-destructive lookup (no LRU update)."""
        index, tag = self._index_tag(addr)
        return tag in self._sets[index]

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
