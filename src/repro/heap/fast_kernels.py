"""Vectorized functional-layer heap kernels (the fast path).

The collectors in :mod:`repro.gcalgo` walk the heap object by object in
pure Python — bit-at-a-time bitmap walks, per-object header decode,
card-by-card Search.  This module gives them batched numpy equivalents
in the spirit of the paper's wide popcount/subtract hardware (Sec. 3.2):

* :class:`CoverageIndex` — a popcount-prefix-sum index over the
  begin/end mark bitmaps answering ``live_words_in_range`` queries in
  O(1) with partial-word masking;
* :func:`mark_objects_bulk` — OR whole uint64 bitmap words for batches
  of objects (with :meth:`~repro.heap.mark_bitmap.MarkBitmaps.clear_range`
  as its AND-masked counterpart);
* :func:`search_blocks_fast` — the dirty-card Search in one
  ``np.nonzero``-style pass;
* :func:`parse_space` / :func:`gather_ref_slots` — header decode of a
  parseable space (a C walk) and batched reference-slot gathering;
* :class:`HeapOps` — cheap, bounds-checked header decode for the
  inherently sequential marking and G1 stack drains.

The busiest loops are not here: in fast mode ParallelScavenge's drain
(``scavenge_drain``, called by
:meth:`~repro.gcalgo.parallel_scavenge.MinorGC._drain_native`),
MajorGC's mark, adjust and compact (``major_mark``, ``major_adjust``,
``major_compact``, called by
:class:`~repro.gcalgo.mark_compact.MajorGC`) and :func:`parse_space`'s
header walk run in C (``repro/platform/_scavenge.c``), on the heap
buffer and these layout tables.

**Bit-exactness contract**: every kernel is a drop-in replacement for
the scalar path it shadows — same GCTrace event streams, same residual
totals, byte-identical post-GC heap buffers.  The differential fuzzer
(``repro fuzz --kernels``) runs every collector under both modes and
asserts exactly that.  The ``REPRO_HEAP_KERNELS`` knob (read through
:func:`repro.config.settings`, once per collection and mutator batch
call — :func:`mode_read_once`; :func:`set_kernel_mode` /
:func:`use_kernel_mode` override it) selects the path; ``fast`` is the
default and ``scalar`` stays as the oracle.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.config import HEAP_KERNEL_MODES, settings
from repro.errors import ConfigError, InvalidObjectError
from repro.heap.klass import (ARRAY_ELEMENTS_OFFSET, ARRAY_LENGTH_OFFSET,
                              KlassKind, KlassTable)
from repro.heap.mark_bitmap import MarkBitmaps
from repro.units import WORD

_U64_ONE = np.uint64(1)

#: Kind codes used by the layout tables (``-1`` marks unused ids).
KIND_INSTANCE = 0
KIND_OBJ_ARRAY = 1
KIND_TYPE_ARRAY = 2


class FastKernelFallback(Exception):
    """The fast kernels cannot serve this heap (pre-flight check)."""


# ---------------------------------------------------------------------------
# Mode switch
# ---------------------------------------------------------------------------

_MODE_OVERRIDE: Optional[str] = None

#: The knob's value for the collection or batch call in progress.
_MODE_READ: Optional[str] = None


def kernel_mode() -> str:
    """The selected heap-kernel mode: ``fast`` (default) or ``scalar``."""
    if _MODE_OVERRIDE is not None:
        return _MODE_OVERRIDE
    if _MODE_READ is not None:
        return _MODE_READ
    return settings().heap_kernels


@contextmanager
def mode_read_once() -> Iterator[None]:
    """Read the ``REPRO_HEAP_KERNELS`` knob once for a collection or a
    mutator batch call: :func:`kernel_mode` inside returns that value
    (an override still wins), and the next call reads the knob again."""
    global _MODE_READ
    if _MODE_READ is not None or _MODE_OVERRIDE is not None:
        yield
        return
    _MODE_READ = settings().heap_kernels
    try:
        yield
    finally:
        _MODE_READ = None


def set_kernel_mode(mode: Optional[str]) -> None:
    """Override the kernel mode process-wide (``None`` returns to the
    ``REPRO_HEAP_KERNELS`` knob)."""
    global _MODE_OVERRIDE
    if mode is not None and mode not in HEAP_KERNEL_MODES:
        raise ConfigError(f"kernel mode must be one of "
                          f"{HEAP_KERNEL_MODES}, got {mode!r}")
    _MODE_OVERRIDE = mode


@contextmanager
def use_kernel_mode(mode: str) -> Iterator[None]:
    """Scoped kernel-mode override (the differential fuzzer's lever)."""
    global _MODE_OVERRIDE
    previous = _MODE_OVERRIDE
    set_kernel_mode(mode)
    try:
        yield
    finally:
        _MODE_OVERRIDE = previous


def fast_enabled(heap=None) -> bool:
    """True when collectors should take the fast path.

    With a ``heap``, also pre-flights the fast path: an unsupported
    klass table records a ``heap.kernel_fallbacks`` metric and demotes
    the run to the scalar path, and the compiled kernels
    (:func:`repro.platform.native.library`) are loaded, so a missing
    compiler raises :class:`ConfigError` — both *before* any mutation
    happens (the kernels never fall back mid-collection — by then the
    scalar and fast paths must already agree).
    """
    if kernel_mode() != "fast":
        return False
    if heap is not None:
        try:
            layouts_for(heap.klasses)
        except FastKernelFallback as error:
            record_fallback("layouts", str(error))
            return False
        from repro.platform import native  # repro.platform imports us
        native.library()
    return True


# ---------------------------------------------------------------------------
# Metrics (heap.kernel_* — reported by `repro stats`)
# ---------------------------------------------------------------------------

def record_call(op: str, kernel: str = "fast",
                items: Optional[int] = None) -> None:
    """Count one kernel invocation (and its batch size, for batches)."""
    from repro.obs.metrics import global_metrics

    registry = global_metrics()
    registry.counter("heap.kernel_calls",
                     "heap-kernel invocations by op and path",
                     op=op, kernel=kernel).add(1)
    if items is not None:
        registry.counter("heap.kernel_batch_items",
                         "items processed by batched heap kernels",
                         op=op).add(float(items))


def record_fallback(op: str, why: str) -> None:
    """Count a silent demotion from fast to scalar kernels."""
    from repro.obs.metrics import global_metrics

    global_metrics().counter(
        "heap.kernel_fallbacks",
        "collector runs demoted to scalar heap kernels",
        op=op).add(1)


# ---------------------------------------------------------------------------
# Klass layout tables (cached per KlassTable + version)
# ---------------------------------------------------------------------------

@dataclass
class KlassLayouts:
    """Dense per-klass-id layout tables for batched decode."""

    version: int
    #: numpy tables indexed by klass id (0 and unused ids are -1/0)
    kind_code: np.ndarray
    fixed_size: np.ndarray
    ref_count: np.ndarray
    off_start: np.ndarray
    flat_offsets: np.ndarray
    #: python-list twins for the sequential parse/drain loops
    kind_list: List[int]
    size_list: List[int]
    offsets_list: List[Tuple[int, ...]]


_LAYOUT_CACHE: "weakref.WeakKeyDictionary[KlassTable, KlassLayouts]" = \
    weakref.WeakKeyDictionary()


def layouts_for(table: KlassTable) -> KlassLayouts:
    """The (cached) layout tables for ``table``.

    Raises :class:`FastKernelFallback` if any descriptor falls outside
    the three GC-relevant layout families — the pre-flight check
    :func:`fast_enabled` uses to demote to the scalar path.
    """
    cached = _LAYOUT_CACHE.get(table)
    if cached is not None and cached.version == table.version:
        return cached
    max_id = max((k.klass_id for k in table), default=0)
    kind_code = np.full(max_id + 1, -1, dtype=np.int64)
    fixed_size = np.zeros(max_id + 1, dtype=np.int64)
    ref_count = np.zeros(max_id + 1, dtype=np.int64)
    off_start = np.zeros(max_id + 1, dtype=np.int64)
    offsets_list: List[Tuple[int, ...]] = [()] * (max_id + 1)
    flat: List[int] = []
    for klass in table:
        kid = klass.klass_id
        if klass.kind is KlassKind.OBJ_ARRAY:
            kind_code[kid] = KIND_OBJ_ARRAY
        elif klass.kind is KlassKind.TYPE_ARRAY:
            kind_code[kid] = KIND_TYPE_ARRAY
        else:
            kind_code[kid] = KIND_INSTANCE
            size = klass.instance_bytes()
            if size % WORD:
                raise FastKernelFallback(
                    f"klass {klass.name!r} has unaligned size {size}")
            fixed_size[kid] = size
            offsets = tuple(klass.reference_offsets())
            ref_count[kid] = len(offsets)
            off_start[kid] = len(flat)
            offsets_list[kid] = offsets
            flat.extend(offsets)
    layouts = KlassLayouts(
        version=table.version, kind_code=kind_code,
        fixed_size=fixed_size, ref_count=ref_count, off_start=off_start,
        flat_offsets=np.asarray(flat, dtype=np.int64),
        kind_list=kind_code.tolist(), size_list=fixed_size.tolist(),
        offsets_list=offsets_list)
    _LAYOUT_CACHE[table] = layouts
    return layouts


def object_sizes(table: KlassTable, kids: np.ndarray,
                 lengths: np.ndarray) -> np.ndarray:
    """Allocation sizes in bytes of objects of klass ids ``kids`` and
    lengths ``lengths`` (ignored for instances), as
    :meth:`~repro.heap.klass.KlassDescriptor.instance_bytes` gives
    them."""
    layouts = layouts_for(table)
    kinds = layouts.kind_code[kids]
    return np.where(
        kinds == KIND_INSTANCE, layouts.fixed_size[kids],
        ARRAY_ELEMENTS_OFFSET + np.where(
            kinds == KIND_OBJ_ARRAY, lengths * WORD,
            (lengths + WORD - 1) // WORD * WORD))


# ---------------------------------------------------------------------------
# Popcount over uint64 arrays
# ---------------------------------------------------------------------------

if hasattr(np, "bitwise_count"):
    def popcount_u64(words: np.ndarray) -> np.ndarray:
        """Per-word popcount of a uint64 array (native instruction)."""
        return np.bitwise_count(words).astype(np.int64)
else:  # pragma: no cover - exercised only on older numpy
    _SWAR = tuple(np.uint64(c) for c in
                  (0x5555555555555555, 0x3333333333333333,
                   0x0F0F0F0F0F0F0F0F, 0x0101010101010101))

    def popcount_u64(words: np.ndarray) -> np.ndarray:
        """Per-word popcount via the SWAR reduction (numpy < 2)."""
        m1, m2, m4, h01 = _SWAR
        v = words.copy()
        v -= (v >> _U64_ONE) & m1
        v = (v & m2) + ((v >> np.uint64(2)) & m2)
        v = (v + (v >> np.uint64(4))) & m4
        return ((v * h01) >> np.uint64(56)).astype(np.int64)


# ---------------------------------------------------------------------------
# Space parsing and reference gathering
# ---------------------------------------------------------------------------

@dataclass
class ParsedSpace:
    """Columnar decode of every object in a parseable range."""

    addrs: np.ndarray      #: object start addresses (int64)
    kids: np.ndarray       #: klass ids (int64)
    lengths: np.ndarray    #: array lengths (0 for instances)
    sizes: np.ndarray      #: aligned object sizes in bytes

    def __len__(self) -> int:
        return int(self.addrs.shape[0])

    @property
    def end_addrs(self) -> np.ndarray:
        return self.addrs + self.sizes


def parse_space(heap, start: int, top: int) -> ParsedSpace:
    """Decode every object header in ``[start, top)`` in one pass.

    The walk runs in C (``parse_space`` in
    ``repro/platform/_scavenge.c``) on the heap buffer — the batched
    replacement for ``iterate_space``'s per-object ``object_at``
    decode.  It reads the words ``object_at`` reads, and raises
    :class:`InvalidObjectError` where the scalar walk would (a zero or
    unknown klass id, a header word off the heap).
    """
    from repro.platform import native  # repro.platform imports us
    layouts = layouts_for(heap.klasses)
    heap.word_index(start)
    rows = max(64, (top - start) // 256)
    columns = ("addrs", "kids", "lengths", "sizes")
    block = native.Block(native.PARSE_FIELDS, {
        "words": heap.words, "base": heap.base,
        "n_words": heap.words.shape[0], "cursor": start, "top": top,
        "n_kinds": layouts.kind_code.shape[0], "kind": layouts.kind_code,
        "fixed_size": layouts.fixed_size,
        **{name: np.empty(rows, dtype=np.int64) for name in columns},
        "count": 0, "cap": rows, "fault_addr": 0})
    state = block.struct
    run = native.library().parse_space
    while True:
        code = run(block.address)
        if code != native.SCAVENGE_GROW_ROWS:
            break
        for name in columns:
            state.cap = block.grow(name, state.count).shape[0]
    addr = state.fault_addr
    if code == native.SCAVENGE_BAD_WORD:
        heap.read_u64(addr)
    elif code == native.SCAVENGE_BAD_OBJECT:
        heap.object_at(addr)
    elif code == native.PARSE_BAD_LENGTH:
        raise InvalidObjectError(f"array at {addr:#x} is longer than "
                                 f"the heap")
    if code != native.SCAVENGE_DONE:
        raise AssertionError(f"parse_space fault {code} at {addr:#x} "
                             f"does not fault in Python")
    count = state.count
    record_call("parse", items=count)
    return ParsedSpace(*(block.arrays[name][:count] for name in columns))


@dataclass
class RefBatch:
    """Flattened reference slots of a batch of objects."""

    counts: np.ndarray     #: reference slots per object
    slots: np.ndarray      #: absolute slot addresses, object-major
    targets: np.ndarray    #: current slot values (0 = null)
    obj_index: np.ndarray  #: owning object index per slot

    def __len__(self) -> int:
        return int(self.slots.shape[0])



def gather_ref_slots(heap, addrs: np.ndarray, kids: np.ndarray,
                     lengths: np.ndarray) -> RefBatch:
    """Compute and load every reference slot of a batch of objects.

    Slot order within an object and object order across the batch match
    the scalar ``reference_slots()`` walk exactly, so flattened
    young/old masks replay the scalar push order.
    """
    layouts = layouts_for(heap.klasses)
    kinds = layouts.kind_code[kids]
    counts = np.where(kinds == KIND_OBJ_ARRAY, lengths,
                      layouts.ref_count[kids])
    total = int(counts.sum())
    record_call("scan", items=total)
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return RefBatch(counts=counts, slots=empty, targets=empty,
                        obj_index=empty)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    obj_index = np.repeat(np.arange(len(addrs), dtype=np.int64),
                          counts)
    within = np.arange(total, dtype=np.int64) - starts[obj_index]
    is_array = kinds[obj_index] == KIND_OBJ_ARRAY
    flat_index = np.where(
        is_array, 0, layouts.off_start[kids[obj_index]] + within)
    instance_off = (layouts.flat_offsets[flat_index]
                    if layouts.flat_offsets.shape[0] else flat_index)
    offsets = np.where(is_array,
                       ARRAY_ELEMENTS_OFFSET + within * WORD,
                       instance_off)
    slots = addrs[obj_index] + offsets
    targets = heap.words[(slots - heap.base) // WORD].astype(np.int64)
    return RefBatch(counts=counts, slots=slots, targets=targets,
                    obj_index=obj_index)


# ---------------------------------------------------------------------------
# Bulk bitmap marking
# ---------------------------------------------------------------------------

def mark_objects_bulk(bitmaps: MarkBitmaps, addrs: np.ndarray,
                      sizes: np.ndarray) -> None:
    """Set begin/end bits for a batch of objects at once.

    OR-accumulates whole uint64 bitmap words (``np.bitwise_or.at``
    handles colliding words), equivalent to per-object
    :meth:`~repro.heap.mark_bitmap.MarkBitmaps.mark_object` calls.
    """
    if len(addrs) == 0:
        return
    record_call("mark_bitmap", items=len(addrs))
    first = (addrs - bitmaps.covered_start) // WORD
    last = (addrs + sizes - WORD - bitmaps.covered_start) // WORD
    for array, indices in ((bitmaps.beg, first), (bitmaps.end, last)):
        masks = np.left_shift(_U64_ONE,
                              (indices & 63).astype(np.uint64))
        np.bitwise_or.at(array, indices >> 6, masks)


# ---------------------------------------------------------------------------
# Coverage index: popcount-prefix-sum live_words_in_range
# ---------------------------------------------------------------------------

class CoverageIndex:
    """O(1) ``live_words_in_range`` over frozen begin/end bitmaps.

    Materialises the *coverage* map — bit ``k`` set iff heap word ``k``
    lies inside a live object — as ``(end << 1) - beg`` evaluated
    word-streamed (each begin/end pair ``(i, j)`` contributes
    ``2^(j+1) - 2^i``, i.e. exactly bits ``i..j``; pairs are disjoint
    and ordered so no carries cross pairs).  The per-word borrow chain
    is recovered without a sequential scan: the borrow into word ``w``
    is 1 exactly when a pair straddles the word boundary, which equals
    the prefix-sum difference of begin-bit and shifted-end-bit
    popcounts.  Per-word popcounts of the coverage map plus an
    exclusive prefix sum then answer any range query with two masked
    lookups — the same arithmetic the paper's Bitmap Count unit wires
    into hardware, applied functionally.
    """

    def __init__(self, bitmaps: MarkBitmaps) -> None:
        record_call("coverage_index", items=int(bitmaps.beg.shape[0]))
        self.covered_start = bitmaps.covered_start
        self.covered_end = bitmaps.covered_end
        self.num_bits = bitmaps.num_bits
        beg = bitmaps.beg
        end = bitmaps.end
        shifted = np.left_shift(end, _U64_ONE)
        if shifted.shape[0] > 1:
            shifted[1:] |= end[:-1] >> np.uint64(63)
        borrow_balance = np.cumsum(popcount_u64(beg)
                                   - popcount_u64(shifted))
        if borrow_balance.shape[0]:
            low, high = int(borrow_balance.min()), \
                int(borrow_balance[:-1].max()) if \
                borrow_balance.shape[0] > 1 else 0
            if low < 0 or high > 1:
                raise ConfigError("inconsistent begin/end bitmaps")
        borrow_in = np.concatenate(
            ([0], borrow_balance[:-1])).astype(np.uint64)
        coverage = shifted - beg - borrow_in
        word_live = popcount_u64(coverage)
        # One sentinel word so queries at covered_end stay in bounds.
        self.coverage = np.concatenate(
            (coverage, np.zeros(1, dtype=np.uint64)))
        self.prefix = np.concatenate(
            ([0], np.cumsum(word_live))).astype(np.int64)

    def _bit(self, addr: int) -> int:
        if not self.covered_start <= addr <= self.covered_end:
            raise ConfigError(f"address {addr:#x} outside bitmap "
                              "coverage")
        return (addr - self.covered_start) // WORD

    def live_upto(self, addr: int) -> int:
        """Live words in ``[covered_start, addr)``."""
        bit = self._bit(addr)
        word, rem = bit >> 6, bit & 63
        partial = int(self.coverage[word]) & ((1 << rem) - 1)
        return int(self.prefix[word]) + _popcount_word(partial)

    def live_words(self, start_addr: int, end_addr: int) -> int:
        """Drop-in for ``live_words_in_range_fast`` on frozen maps."""
        if end_addr <= start_addr:
            return 0
        return self.live_upto(min(end_addr, self.covered_end)) \
            - self.live_upto(start_addr)



def _popcount_word(value: int) -> int:
    from repro.core.bitmap_math import popcount_int
    return popcount_int(value)


# ---------------------------------------------------------------------------
# Dirty-card Search
# ---------------------------------------------------------------------------

def search_blocks_fast(card_table,
                       block_cards: int = 64
                       ) -> List[Tuple[int, int, bool]]:
    """The Search primitive's block scan in one vectorized pass.

    Returns tuples identical to ``CardTable.search_blocks``.
    """
    from repro.heap.card_table import CLEAN

    n_cards = card_table.num_cards
    n_blocks = -(-n_cards // block_cards)
    record_call("search", items=n_blocks)
    dirty = card_table.bytes != CLEAN
    padded = np.zeros(n_blocks * block_cards, dtype=bool)
    padded[:n_cards] = dirty
    found = padded.reshape(n_blocks, block_cards).any(axis=1).tolist()
    base = card_table.table_base
    return [(base + index * block_cards,
             min(block_cards, n_cards - index * block_cards),
             found[index])
            for index in range(n_blocks)]


# ---------------------------------------------------------------------------
# Cheap sequential decode (for the stack-drain loops)
# ---------------------------------------------------------------------------

class HeapOps:
    """Raw-word object decode for the inherently sequential loops.

    Stack drains (marking, G1 evacuation) are graph traversals whose
    order defines the trace, so they cannot batch — but they can skip
    ``object_at``'s ObjectView construction and read headers straight
    out of the u64 buffer via the layout tables.  Every access is
    checked for alignment and bounds and raises the scalar accessors'
    error, for the word the scalar path reads first.
    """

    __slots__ = ("words", "base", "n_words", "kind", "size", "offsets",
                 "n_kinds")

    def __init__(self, heap) -> None:
        layouts = layouts_for(heap.klasses)
        self.words = heap.words
        self.base = heap.base
        self.n_words = heap.words.shape[0]
        self.kind = layouts.kind_list
        self.size = layouts.size_list
        self.offsets = layouts.offsets_list
        self.n_kinds = len(layouts.kind_list)

    def _index(self, addr: int) -> int:
        if addr % WORD:
            raise InvalidObjectError(f"unaligned u64 read at {addr:#x}")
        index = (addr - self.base) // WORD
        if not 0 <= index < self.n_words:
            raise InvalidObjectError(f"address {addr:#x} outside heap")
        return index

    def read_word(self, addr: int) -> int:
        return int(self.words[self._index(addr)])

    def decode(self, addr: int) -> Tuple[int, int, int]:
        """``(klass_id, length, size_bytes)`` of the object at ``addr``."""
        kid = int(self.words[self._index(addr + WORD)])
        kind = self.kind[kid] if 0 < kid < self.n_kinds else -1
        if kind < 0:
            if kid == 0:
                raise InvalidObjectError(f"no object at {addr:#x}")
            raise InvalidObjectError(
                f"garbage klass id {kid:#x} at {addr:#x}")
        if kind == KIND_INSTANCE:
            return kid, 0, self.size[kid]
        length = int(self.words[self._index(addr + ARRAY_LENGTH_OFFSET)])
        if kind == KIND_OBJ_ARRAY:
            return kid, length, ARRAY_ELEMENTS_OFFSET + length * WORD
        return kid, length, (ARRAY_ELEMENTS_OFFSET
                             + (length + WORD - 1) // WORD * WORD)

    def ref_slots(self, addr: int, kid: int, length: int) -> List[int]:
        """Absolute reference-slot addresses, in scalar walk order."""
        if self.kind[kid] == KIND_OBJ_ARRAY:
            first = addr + ARRAY_ELEMENTS_OFFSET
            return list(range(first, first + length * WORD, WORD))
        return [addr + off for off in self.offsets[kid]]
