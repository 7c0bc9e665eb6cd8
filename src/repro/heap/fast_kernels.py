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
* :func:`parse_space` / :func:`gather_ref_slots` — batched header
  decode and reference-slot gathering over a parseable space;
* :class:`HeapOps` — cheap header decode for the inherently sequential
  stack-drain loops.

**Bit-exactness contract**: every kernel is a drop-in replacement for
the scalar path it shadows — same GCTrace event streams, same residual
totals, byte-identical post-GC heap buffers.  The differential fuzzer
(``repro fuzz --kernels``) runs every collector under both modes and
asserts exactly that.  The ``REPRO_HEAP_KERNELS`` environment variable
(or :func:`set_kernel_mode` / :func:`use_kernel_mode`) selects the
path; ``fast`` is the default and ``scalar`` stays as the oracle.
"""

from __future__ import annotations

import os
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.config import HEAP_KERNEL_MODES, HEAP_KERNELS_ENV
from repro.errors import ConfigError, InvalidObjectError
from repro.heap.klass import (ARRAY_ELEMENTS_OFFSET, KlassKind,
                              KlassTable)
from repro.heap.mark_bitmap import MarkBitmaps
from repro.units import WORD

_U64_ONE = np.uint64(1)
_MASK64 = (1 << 64) - 1

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


def kernel_mode() -> str:
    """The selected heap-kernel mode: ``fast`` (default) or ``scalar``."""
    if _MODE_OVERRIDE is not None:
        return _MODE_OVERRIDE
    mode = os.environ.get(HEAP_KERNELS_ENV) or "fast"
    if mode not in HEAP_KERNEL_MODES:
        raise ConfigError(
            f"{HEAP_KERNELS_ENV} must be one of {HEAP_KERNEL_MODES}, "
            f"got {mode!r}")
    return mode


def set_kernel_mode(mode: Optional[str]) -> None:
    """Override the kernel mode process-wide (``None`` re-reads the
    environment)."""
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

    With a ``heap``, also pre-flights the layout tables; an unsupported
    klass table records a ``heap.kernel_fallbacks`` metric and demotes
    the run to the scalar path *before* any mutation happens (the
    kernels never fall back mid-collection — by then the scalar and
    fast paths must already agree).
    """
    if kernel_mode() != "fast":
        return False
    if heap is not None:
        try:
            layouts_for(heap.klasses)
        except FastKernelFallback as error:
            record_fallback("layouts", str(error))
            return False
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


def record_scalar(op: str) -> None:
    """Count one scalar-path collector run (the oracle path)."""
    record_call(op, kernel="scalar")


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

    One bulk u64→int conversion of the range plus a tight int loop —
    the batched replacement for ``iterate_space``'s per-object
    ``object_at`` decode.  Raises :class:`InvalidObjectError` exactly
    where the scalar walk would (a zero or unknown klass id).
    """
    layouts = layouts_for(heap.klasses)
    kind_list = layouts.kind_list
    size_list = layouts.size_list
    n_kinds = len(kind_list)
    lo = heap.word_index(start)
    words = heap.words[lo:lo + (top - start) // WORD].tolist()
    n_words = len(words)
    addrs: List[int] = []
    kids: List[int] = []
    lengths: List[int] = []
    sizes: List[int] = []
    cursor = 0
    while cursor < n_words:
        kid = words[cursor + 1]
        kind = kind_list[kid] if 0 < kid < n_kinds else -1
        if kind < 0:
            addr = start + cursor * WORD
            if kid == 0:
                raise InvalidObjectError(f"no object at {addr:#x}")
            raise InvalidObjectError(
                f"garbage klass id {kid:#x} at {addr:#x}")
        if kind == KIND_INSTANCE:
            length = 0
            size = size_list[kid]
        else:
            length = words[cursor + 2]
            if kind == KIND_OBJ_ARRAY:
                size = ARRAY_ELEMENTS_OFFSET + length * WORD
            else:
                size = (ARRAY_ELEMENTS_OFFSET
                        + (length + WORD - 1) // WORD * WORD)
        addrs.append(start + cursor * WORD)
        kids.append(kid)
        lengths.append(length)
        sizes.append(size)
        cursor += size // WORD
    record_call("parse", items=len(addrs))
    return ParsedSpace(addrs=np.asarray(addrs, dtype=np.int64),
                       kids=np.asarray(kids, dtype=np.int64),
                       lengths=np.asarray(lengths, dtype=np.int64),
                       sizes=np.asarray(sizes, dtype=np.int64))


@dataclass
class RefBatch:
    """Flattened reference slots of a batch of objects."""

    counts: np.ndarray     #: reference slots per object
    slots: np.ndarray      #: absolute slot addresses, object-major
    targets: np.ndarray    #: current slot values (0 = null)
    obj_index: np.ndarray  #: owning object index per slot

    def __len__(self) -> int:
        return int(self.slots.shape[0])

    def per_object(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(object_index, slots, targets)`` per object with
        at least one reference slot, in object order."""
        boundaries = np.concatenate(
            ([0], np.cumsum(self.counts))).astype(np.int64)
        for index in np.flatnonzero(self.counts):
            lo, hi = boundaries[index], boundaries[index + 1]
            yield int(index), self.slots[lo:hi], self.targets[lo:hi]


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


def set_words_bulk(heap, addrs: np.ndarray, value: int) -> None:
    """Store one u64 ``value`` at a batch of word addresses."""
    heap.words[(addrs - heap.base) // WORD] = np.uint64(value)


def and_words_bulk(heap, addrs: np.ndarray, mask: int) -> None:
    """AND a batch of u64 words with ``mask`` (bulk mark-bit clears)."""
    indices = (addrs - heap.base) // WORD
    heap.words[indices] &= np.uint64(mask & _MASK64)


def or_words_bulk(heap, addrs: np.ndarray, bits: int) -> None:
    """OR ``bits`` into a batch of u64 words (bulk mark-bit sets)."""
    indices = (addrs - heap.base) // WORD
    heap.words[indices] |= np.uint64(bits & _MASK64)


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
        self._coverage = np.concatenate(
            (coverage, np.zeros(1, dtype=np.uint64)))
        self._prefix = np.concatenate(
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
        partial = int(self._coverage[word]) & ((1 << rem) - 1)
        return int(self._prefix[word]) + _popcount_word(partial)

    def live_words(self, start_addr: int, end_addr: int) -> int:
        """Drop-in for ``live_words_in_range_fast`` on frozen maps."""
        if end_addr <= start_addr:
            return 0
        return self.live_upto(min(end_addr, self.covered_end)) \
            - self.live_upto(start_addr)

    def live_upto_batch(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`live_upto` over an address batch."""
        record_call("bitmap_count", items=len(addrs))
        bits = (addrs - self.covered_start) // WORD
        words = bits >> 6
        rems = (bits & 63).astype(np.uint64)
        masks = np.left_shift(_U64_ONE, rems) - _U64_ONE
        partial = popcount_u64(self._coverage[words] & masks)
        return self._prefix[words] + partial


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

    Stack drains (scavenge, marking, G1 evacuation) are graph
    traversals whose order defines the trace, so they cannot batch —
    but they can skip ``object_at``'s ObjectView construction and read
    headers straight out of the u64 buffer via the layout tables.
    """

    __slots__ = ("words", "base", "kind", "size", "offsets",
                 "n_kinds")

    def __init__(self, heap) -> None:
        layouts = layouts_for(heap.klasses)
        self.words = heap.words
        self.base = heap.base
        self.kind = layouts.kind_list
        self.size = layouts.size_list
        self.offsets = layouts.offsets_list
        self.n_kinds = len(layouts.kind_list)

    def read_word(self, addr: int) -> int:
        return int(self.words[(addr - self.base) // WORD])

    def write_word(self, addr: int, value: int) -> None:
        self.words[(addr - self.base) // WORD] = np.uint64(
            value & _MASK64)

    def decode(self, addr: int) -> Tuple[int, int, int]:
        """``(klass_id, length, size_bytes)`` of the object at ``addr``."""
        base_word = (addr - self.base) // WORD
        kid = int(self.words[base_word + 1])
        kind = self.kind[kid] if 0 < kid < self.n_kinds else -1
        if kind < 0:
            if kid == 0:
                raise InvalidObjectError(f"no object at {addr:#x}")
            raise InvalidObjectError(
                f"garbage klass id {kid:#x} at {addr:#x}")
        if kind == KIND_INSTANCE:
            return kid, 0, self.size[kid]
        length = int(self.words[base_word + 2])
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
