"""The object stack (marking/scavenging work list).

HotSpot's parallel collectors drain per-thread task queues with work
stealing; functionally the drain order does not affect the result, so we
model a single LIFO stack with depth statistics.  The timing layer
spreads the recorded work over the configured GC thread count.
"""

from __future__ import annotations

from typing import Generic, List, TypeVar

T = TypeVar("T")


class ObjectStack(Generic[T]):
    """A LIFO work list with high-water statistics."""

    def __init__(self) -> None:
        self._items: List[T] = []
        self.pushes = 0
        self.pops = 0
        self.max_depth = 0

    def push(self, item: T) -> None:
        self._items.append(item)
        self.pushes += 1
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)

    def pop(self) -> T:
        self.pops += 1
        return self._items.pop()

    def take(self) -> List[T]:
        """Remove and return every item, bottom first (for a drain
        that keeps its own stack)."""
        items, self._items = self._items, []
        return items

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)
