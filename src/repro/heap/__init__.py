"""A byte-addressed, HotSpot-like managed heap.

This is the functional substrate under the collectors: a real numpy
buffer holding real object headers, a generational layout (Eden, two
Survivor semispaces, Old), a card table remembering old-to-young
references, and begin/end mark bitmaps over the old generation.  The
collectors in :mod:`repro.gcalgo` mutate this heap for real — objects
are genuinely copied, promoted and compacted — while emitting the
primitive traces that the timing layer replays.
"""

from repro.heap.klass import KlassDescriptor, KlassKind, KlassTable
from repro.heap.object_model import MarkWord, ObjectView
from repro.heap.spaces import HeapInfo, HeapLayout, Space
from repro.heap.card_table import CardTable
from repro.heap.mark_bitmap import MarkBitmaps
from repro.heap.heap import JavaHeap
from repro.heap.verifier import verify_heap, verify_space

__all__ = [
    "KlassDescriptor",
    "KlassKind",
    "KlassTable",
    "MarkWord",
    "ObjectView",
    "HeapInfo",
    "HeapLayout",
    "Space",
    "CardTable",
    "MarkBitmaps",
    "JavaHeap",
    "verify_heap",
    "verify_space",
]
