"""Heap spaces and the generational layout (Fig. 1).

The heap splits into a Young generation — Eden plus two Survivor
semispaces (From/To) — and an Old generation, at the HotSpot default
ratios (Young:Old = 1:2, Eden:Survivor = 8:1:1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.config import HeapConfig
from repro.errors import ConfigError, OutOfMemoryError
from repro.units import align_down


class Space:
    """A contiguous region with bump-pointer allocation."""

    def __init__(self, name: str, start: int, end: int) -> None:
        if end <= start:
            raise ConfigError(f"space {name!r} is empty")
        if start % 8 or end % 8:
            raise ConfigError(f"space {name!r} must be 8-byte aligned")
        self.name = name
        self.start = start
        self.end = end
        self.top = start

    @property
    def capacity(self) -> int:
        return self.end - self.start

    @property
    def used(self) -> int:
        return self.top - self.start

    @property
    def free(self) -> int:
        return self.end - self.top

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end

    def can_allocate(self, size: int) -> bool:
        return self.top + size <= self.end

    def allocate(self, size: int) -> int:
        """Bump-allocate ``size`` bytes; raises OutOfMemoryError when full."""
        if size <= 0 or size % 8:
            raise ConfigError(f"allocation size {size} must be a positive "
                              "multiple of 8")
        if not self.can_allocate(size):
            raise OutOfMemoryError(
                f"space {self.name!r} cannot fit {size} bytes "
                f"({self.free} free)")
        addr = self.top
        self.top += size
        return addr

    def reset(self) -> None:
        """Empty the space (MinorGC clears Eden and From)."""
        self.top = self.start

    def occupancy(self) -> float:
        return self.used / self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Space({self.name!r}, [{self.start:#x}, {self.end:#x}), "
                f"used={self.used})")


@dataclass
class HeapLayout:
    """Eden / Survivor(From) / Survivor(To) / Old carved from one range."""

    config: HeapConfig
    eden: Space = field(init=False)
    survivor_a: Space = field(init=False)
    survivor_b: Space = field(init=False)
    old: Space = field(init=False)

    def __post_init__(self) -> None:
        cfg = self.config
        base = cfg.base_address
        young = align_down(cfg.young_bytes, 1024)
        survivor = align_down(young // (cfg.survivor_ratio + 2), 1024)
        eden = young - 2 * survivor
        if survivor < 1024 or eden < 1024:
            raise ConfigError("heap too small for the generational split")
        cursor = base
        self.eden = Space("eden", cursor, cursor + eden)
        cursor += eden
        self.survivor_a = Space("survivor-a", cursor, cursor + survivor)
        cursor += survivor
        self.survivor_b = Space("survivor-b", cursor, cursor + survivor)
        cursor += survivor
        old_end = base + align_down(cfg.heap_bytes, 1024)
        self.old = Space("old", cursor, old_end)
        # From/To designation flips at every MinorGC (Fig. 1 step 2).
        self._from_is_a = True

    # -- survivor semispace roles ------------------------------------------

    @property
    def survivor_from(self) -> Space:
        return self.survivor_a if self._from_is_a else self.survivor_b

    @property
    def survivor_to(self) -> Space:
        return self.survivor_b if self._from_is_a else self.survivor_a

    def swap_survivors(self) -> None:
        """Designate the current From space as To and vice versa."""
        self._from_is_a = not self._from_is_a

    # -- classification -----------------------------------------------------

    @property
    def spaces(self) -> List[Space]:
        return [self.eden, self.survivor_a, self.survivor_b, self.old]

    @property
    def heap_start(self) -> int:
        return self.eden.start

    @property
    def heap_end(self) -> int:
        return self.old.end

    def in_young(self, addr: int) -> bool:
        return self.eden.start <= addr < self.survivor_b.end

    def in_old(self, addr: int) -> bool:
        return self.old.contains(addr)

    def space_of(self, addr: int) -> Optional[Space]:
        for space in self.spaces:
            if space.contains(addr):
                return space
        return None
