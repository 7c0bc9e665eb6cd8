"""The managed heap facade.

:class:`JavaHeap` owns the backing numpy buffer, the generational
layout, the klass table, the card table and the mark bitmaps, and
provides the object-level operations collectors and mutators use:
allocation, header formatting, reference loads/stores (with the
old-to-young write barrier), and parseable-space iteration.

Everything is *real*: object headers are encoded in the buffer, copies
move actual bytes, and tests verify object contents survive collection
byte-for-byte.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

import numpy as np

from repro.config import HeapConfig
from repro.errors import ConfigError, InvalidObjectError, OutOfMemoryError
from repro.heap import fast_kernels
from repro.heap.card_table import CardTable
from repro.heap.klass import (ARRAY_LENGTH_OFFSET, HEADER_BYTES,
                              KlassDescriptor, KlassKind, KlassTable,
                              standard_klass_table)
from repro.heap.mark_bitmap import MarkBitmaps
from repro.heap.object_model import MarkWord, ObjectView
from repro.heap.spaces import HeapLayout, Space
from repro.units import WORD, align_up


class JavaHeap:
    """A generational heap with real object storage."""

    def __init__(self, config: Optional[HeapConfig] = None,
                 klasses: Optional[KlassTable] = None) -> None:
        self.config = config or HeapConfig()
        self.layout = HeapLayout(self.config)
        self.klasses = klasses or standard_klass_table()
        self.base = self.layout.heap_start
        size = self.layout.heap_end - self.layout.heap_start
        # np.zeros is calloc: pages are committed only once touched, so
        # a scaled heap costs RSS for the bytes the workload uses.
        self.buffer = np.zeros(size, dtype=np.uint8)
        self._u64 = self.buffer.view(np.uint64)
        # Metadata regions sit above the heap in the virtual address
        # space (their *contents* live in dedicated structures; the
        # addresses are what the traffic models see).  The base is
        # huge-page aligned so the heap's huge-page mapping and the
        # metadata's finer pinned mapping never overlap.
        metadata_base = align_up(self.layout.heap_end, 1 << 20)
        old = self.layout.old
        self.card_table = CardTable(old.start, old.end,
                                    card_bytes=self.config.card_bytes,
                                    table_base=metadata_base)
        bitmap_base = align_up(metadata_base + self.card_table.num_cards,
                               4096)
        self.bitmaps = MarkBitmaps(self.layout.heap_start,
                                   self.layout.heap_end,
                                   bitmap_base=bitmap_base)
        #: the root set: object addresses reachable from outside the heap
        #: (stack slots, globals).  Collectors update entries in place.
        self.roots: List[int] = []
        #: pre-write barrier observers: each mutator reference store
        #: calls ``hook(slot_addr, old_value, new_value)`` *before* the
        #: store lands.  The concurrent-marking collector installs its
        #: SATB logging barrier here; the list is empty otherwise and
        #: the old value is only read while a hook is installed.
        self.ref_write_hooks: List[Callable[[int, int, int], None]] = []
        # Filler klasses keep swept/compacted spaces parseable (dead
        # ranges are overwritten with pseudo arrays/objects, as HotSpot
        # does).  The 16-byte header-only instance covers gaps too small
        # for an array filler.
        self.filler_klass = self.klasses.define(
            "fillerArray", KlassKind.TYPE_ARRAY)
        self.filler_object_klass = self.klasses.define(
            "fillerObject", KlassKind.INSTANCE)
        self.allocated_objects = 0
        self.allocated_bytes = 0

    # -- raw memory -------------------------------------------------------

    def _index(self, addr: int) -> int:
        offset = addr - self.base
        if not 0 <= offset < self.buffer.shape[0]:
            raise InvalidObjectError(f"address {addr:#x} outside heap")
        return offset

    def word_index(self, addr: int) -> int:
        """Index of ``addr`` into :attr:`words` (the u64 heap view)."""
        if addr % WORD:
            raise InvalidObjectError(f"unaligned word index at {addr:#x}")
        return self._index(addr) // WORD

    @property
    def words(self) -> np.ndarray:
        """The heap buffer as a u64 array (for the batched kernels)."""
        return self._u64

    def read_u64(self, addr: int) -> int:
        if addr % WORD:
            raise InvalidObjectError(f"unaligned u64 read at {addr:#x}")
        return int(self._u64[self._index(addr) // WORD])

    def write_u64(self, addr: int, value: int) -> None:
        if addr % WORD:
            raise InvalidObjectError(f"unaligned u64 write at {addr:#x}")
        self._u64[self._index(addr) // WORD] = np.uint64(value & (2**64 - 1))

    def read_bytes(self, addr: int, size: int) -> bytes:
        start = self._index(addr)
        return self.buffer[start:start + size].tobytes()

    def copy_bytes(self, src: int, dst: int, size: int) -> None:
        """The Copy primitive's functional effect (Fig. 7 lines 1-3)."""
        s, d = self._index(src), self._index(dst)
        self.buffer[d:d + size] = self.buffer[s:s + size]

    def move_bytes(self, src: int, dst: int, size: int) -> None:
        """Overlap-safe copy (compaction slides objects left)."""
        s, d = self._index(src), self._index(dst)
        self.buffer[d:d + size] = self.buffer[s:s + size].copy()

    def fill_bytes(self, addr: int, size: int, value: int = 0) -> None:
        start = self._index(addr)
        self.buffer[start:start + size] = value

    # -- object allocation --------------------------------------------------

    def allocate_raw(self, space: Space, size: int) -> int:
        """Bump-allocate ``size`` (rounded to 8) bytes in ``space``."""
        return space.allocate(align_up(size, WORD))

    def format_object(self, addr: int, klass: KlassDescriptor,
                      length: Optional[int] = None) -> ObjectView:
        """Write a fresh header (and zeroed body) at ``addr``."""
        view = ObjectView(addr=addr, klass=klass, length=length)
        self.fill_bytes(addr, view.size_bytes, 0)
        self.write_u64(addr, MarkWord.fresh().raw)
        self.write_u64(addr + 8, klass.klass_id)
        if klass.kind.is_array:
            self.write_u64(addr + ARRAY_LENGTH_OFFSET, length or 0)
        return view

    def format_object_run(self, start: int, kids: np.ndarray,
                          lengths: np.ndarray) -> np.ndarray:
        """Format back-to-back objects of per-object shapes at once.

        ``kids`` and ``lengths`` give each object's klass id and length
        (ignored for instances).  The run's bytes are zeroed with one
        slice store and the headers written with three scattered stores
        — byte-identical to calling :meth:`format_object` per object
        over the same addresses.  Returns the objects' addresses.
        """
        sizes = fast_kernels.object_sizes(self.klasses, kids, lengths)
        addrs = start + np.cumsum(sizes) - sizes
        begin = self._index(start)
        self.buffer[begin:begin + int(sizes.sum())] = 0
        heads = begin // WORD + (addrs - start) // WORD
        self._u64[heads] = np.uint64(MarkWord.fresh().raw)
        self._u64[heads + 1] = kids
        arrays = fast_kernels.layouts_for(self.klasses).kind_code[kids] \
            != fast_kernels.KIND_INSTANCE
        self._u64[heads[arrays] + 2] = lengths[arrays]
        return addrs

    def new_object(self, klass_name: str, length: Optional[int] = None,
                   space: Optional[Space] = None) -> ObjectView:
        """Allocate and format a new object (in Eden by default).

        Raises :class:`OutOfMemoryError` when the space is full — the
        mutator is expected to trigger a MinorGC and retry.
        """
        klass = self.klasses.by_name(klass_name)
        target = space if space is not None else self.layout.eden
        size = align_up(klass.instance_bytes(length), WORD)
        addr = target.allocate(size)
        view = self.format_object(addr, klass, length)
        self.allocated_objects += 1
        self.allocated_bytes += size
        return view

    # -- header access ---------------------------------------------------------

    def mark_word(self, addr: int) -> MarkWord:
        return MarkWord(self.read_u64(addr))

    def set_mark_word(self, addr: int, mark: MarkWord) -> None:
        self.write_u64(addr, mark.raw)

    def object_at(self, addr: int) -> ObjectView:
        """Decode the object header at ``addr``.

        Follows no forwarding — callers resolve forwarding themselves.
        """
        klass_id = self.read_u64(addr + 8)
        if klass_id == 0:
            raise InvalidObjectError(f"no object at {addr:#x}")
        try:
            klass = self.klasses.by_id(klass_id)
        except ConfigError:
            raise InvalidObjectError(
                f"garbage klass id {klass_id:#x} at {addr:#x}") from None
        length: Optional[int] = None
        if klass.kind.is_array:
            length = self.read_u64(addr + ARRAY_LENGTH_OFFSET)
        return ObjectView(addr=addr, klass=klass, length=length)

    def object_size(self, addr: int) -> int:
        return self.object_at(addr).size_bytes

    # -- references --------------------------------------------------------------

    def load_ref(self, slot_addr: int) -> int:
        """Read a reference slot; 0 is null."""
        return self.read_u64(slot_addr)

    def store_ref(self, slot_addr: int, target: int) -> None:
        """Mutator reference store, with the generational write barrier.

        Storing a young-generation reference into an old-generation slot
        dirties the card holding the slot (Sec. 3.2).  Any installed
        :attr:`ref_write_hooks` (the SATB pre-write barrier) observe the
        overwritten value first.
        """
        if self.ref_write_hooks:
            old = self.read_u64(slot_addr)
            for hook in self.ref_write_hooks:
                hook(slot_addr, old, target)
        self.write_u64(slot_addr, target)
        if target and self.layout.in_old(slot_addr) \
                and self.layout.in_young(target):
            self.card_table.dirty(slot_addr)

    def set_field(self, view: ObjectView, ref_index: int,
                  target: int) -> None:
        """Store into the ``ref_index``-th reference slot of ``view``."""
        slots = view.reference_slots()
        if not 0 <= ref_index < len(slots):
            raise ConfigError(f"ref index {ref_index} out of range for "
                              f"{view.klass.name}")
        self.store_ref(slots[ref_index], target)

    def get_field(self, view: ObjectView, ref_index: int) -> int:
        slots = view.reference_slots()
        return self.load_ref(slots[ref_index])

    def array_store(self, array_addr: int, index: int,
                    target: int) -> None:
        """Store a reference into an objArray element (fast path)."""
        view = self.object_at(array_addr)
        if view.klass.kind is not KlassKind.OBJ_ARRAY:
            raise ConfigError("array_store targets objArrays")
        if not 0 <= index < (view.length or 0):
            raise ConfigError(f"array index {index} out of bounds")
        self.store_ref(array_addr + ARRAY_LENGTH_OFFSET + WORD
                       + index * WORD, target)

    def array_load(self, array_addr: int, index: int) -> int:
        """Load a reference from an objArray element (fast path)."""
        view = self.object_at(array_addr)
        if view.klass.kind is not KlassKind.OBJ_ARRAY:
            raise ConfigError("array_load targets objArrays")
        if not 0 <= index < (view.length or 0):
            raise ConfigError(f"array index {index} out of bounds")
        return self.load_ref(array_addr + ARRAY_LENGTH_OFFSET + WORD
                             + index * WORD)

    def ref_slot(self, obj: int, index: int) -> int:
        """Address of reference ``index`` of the object at ``obj``: an
        objArray element, or an instance's ``index``-th reference
        field (the slot :meth:`array_store` and :meth:`set_field`
        store to, with their checks)."""
        view = self.object_at(obj)
        if view.klass.kind is KlassKind.OBJ_ARRAY:
            if not 0 <= index < (view.length or 0):
                raise ConfigError(f"array index {index} out of bounds")
            return obj + ARRAY_LENGTH_OFFSET + WORD + index * WORD
        if view.klass.kind is KlassKind.TYPE_ARRAY:
            raise ConfigError("reference slots are in objArrays and "
                              "instances")
        slots = view.reference_slots()
        if not 0 <= index < len(slots):
            raise ConfigError(f"ref index {index} out of range for "
                              f"{view.klass.name}")
        return slots[index]

    def _ref_slots(self, objs, indices) -> np.ndarray:
        """:meth:`ref_slot` over ``objs`` and ``indices`` broadcast
        together, decoded in bulk; the first invalid pair raises
        :meth:`ref_slot`'s error."""
        objs, indices = (column.ravel() for column in np.broadcast_arrays(
            np.asarray(objs, dtype=np.int64),
            np.asarray(indices, dtype=np.int64)))
        layouts = fast_kernels.layouts_for(self.klasses)
        heads = (objs - self.base) // WORD
        valid = ((objs % WORD == 0) & (heads >= 0)
                 & (heads + 2 < self._u64.shape[0]))
        words = self._u64.view(np.int64)
        kids = np.zeros(objs.shape, dtype=np.int64)
        kids[valid] = words[heads[valid] + 1]
        kids[(kids < 0) | (kids >= layouts.kind_code.shape[0])] = 0
        kinds = layouts.kind_code[kids]
        is_array = kinds == fast_kernels.KIND_OBJ_ARRAY
        limit = layouts.ref_count[kids]
        limit[is_array] = words[heads[is_array] + 2]
        valid &= ((kinds == fast_kernels.KIND_INSTANCE) | is_array) \
            & (indices >= 0) & (indices < limit)
        if not valid.all():
            return np.array([self.ref_slot(obj, index) for obj, index
                             in zip(objs.tolist(), indices.tolist())],
                            dtype=np.int64)
        fields = layouts.off_start[kids] + indices
        instance_offsets = (layouts.flat_offsets[np.where(is_array, 0,
                                                          fields)]
                            if layouts.flat_offsets.shape[0] else 0)
        return objs + np.where(
            is_array, ARRAY_LENGTH_OFFSET + WORD + indices * WORD,
            instance_offsets)

    def load_refs(self, objs, indices) -> np.ndarray:
        """:meth:`array_load` / :meth:`get_field` over a batch:
        reference ``indices`` of ``objs``, broadcast together.  Under
        the scalar heap kernels each goes through :meth:`load_ref`."""
        if not fast_kernels.fast_enabled(self):
            return np.array([
                self.load_ref(self.ref_slot(obj, index))
                for obj, index in zip(*_pairs(objs, indices))],
                dtype=np.int64)
        slots = self._ref_slots(objs, indices)
        return self._u64[(slots - self.base) // WORD].astype(np.int64)

    def store_refs(self, objs, indices, targets) -> None:
        """:meth:`array_store` / :meth:`set_field` over a batch:
        reference ``indices`` of ``objs`` get ``targets``, all three
        broadcast together, with the write barrier applied through
        :meth:`CardTable.dirty_slots`.  Under the scalar heap kernels,
        or with :attr:`ref_write_hooks` installed (which see each
        store), each goes through :meth:`store_ref`, in order."""
        fast = fast_kernels.fast_enabled(self)
        if fast and self.ref_write_hooks:
            fast_kernels.record_fallback(
                "store", "reference write hooks are installed")
            fast = False
        if not fast:
            for obj, index, target in zip(*_pairs(objs, indices,
                                                  targets)):
                self.store_ref(self.ref_slot(obj, index), target)
            return
        slots = self._ref_slots(objs, indices)
        targets = np.broadcast_to(np.asarray(targets, dtype=np.int64),
                                  slots.shape)
        # A slot stored more than once keeps its last store (a scatter
        # does not promise an order).
        _, last = np.unique(slots[::-1], return_index=True)
        final = slots.shape[0] - 1 - last
        self._u64[(slots[final] - self.base) // WORD] = targets[final]
        layout = self.layout
        old = layout.old
        barrier = ((targets != 0) & (slots >= old.start)
                   & (slots < old.end) & (targets >= layout.eden.start)
                   & (targets < layout.survivor_b.end))
        self.card_table.dirty_slots(slots[barrier])

    def references_of(self, view: ObjectView) -> List[int]:
        """Non-null reference targets of ``view``."""
        return [ref for slot in view.reference_slots()
                if (ref := self.load_ref(slot))]

    # -- payload (for content-preservation tests) ----------------------------------

    def write_payload(self, view: ObjectView, data: bytes) -> None:
        """Fill a type-array's payload with ``data``."""
        if view.klass.kind is not KlassKind.TYPE_ARRAY:
            raise ConfigError("payload writes target type arrays")
        if len(data) > (view.length or 0):
            raise ConfigError("payload larger than array")
        start = self._index(view.addr + ARRAY_LENGTH_OFFSET + WORD)
        self.buffer[start:start + len(data)] = np.frombuffer(
            bytes(data), dtype=np.uint8)

    def read_payload(self, view: ObjectView) -> bytes:
        if view.klass.kind is not KlassKind.TYPE_ARRAY:
            raise ConfigError("payload reads target type arrays")
        return self.read_bytes(view.addr + ARRAY_LENGTH_OFFSET + WORD,
                               view.length or 0)

    # -- space iteration --------------------------------------------------------------

    def iterate_space(self, space: Space) -> Iterator[ObjectView]:
        """Walk a parseable space from bottom to its allocation top."""
        cursor = space.start
        while cursor < space.top:
            view = self.object_at(cursor)
            yield view
            cursor = view.end_addr

    def fill_dead_range(self, start: int, end: int) -> None:
        """Overwrite ``[start, end)`` with filler objects.

        Dead ranges are always multiples of 8 and at least 16 bytes
        (the minimum object size); a 16-byte gap gets a header-only
        filler instance, anything larger a filler array.
        """
        size = end - start
        if size == 0:
            return
        if size % WORD or size < HEADER_BYTES:
            raise ConfigError(f"dead range {size} cannot be filled")
        self.fill_bytes(start, size, 0)
        if size == HEADER_BYTES:
            self.write_u64(start, MarkWord.fresh().raw)
            self.write_u64(start + 8, self.filler_object_klass.klass_id)
            return
        payload = size - (HEADER_BYTES + WORD)
        self.write_u64(start, MarkWord.fresh().raw)
        self.write_u64(start + 8, self.filler_klass.klass_id)
        self.write_u64(start + ARRAY_LENGTH_OFFSET, payload)

    def is_filler(self, view: ObjectView) -> bool:
        return view.klass.klass_id in (self.filler_klass.klass_id,
                                       self.filler_object_klass.klass_id)

    # -- summaries ----------------------------------------------------------------------

    def used_bytes(self) -> int:
        return sum(space.used for space in self.layout.spaces)

    def describe(self) -> str:
        parts = [f"{s.name}: {s.used}/{s.capacity}"
                 for s in self.layout.spaces]
        return ", ".join(parts)


def _pairs(*columns) -> List[List[int]]:
    """``columns`` broadcast together and flattened, as int lists."""
    return [column.ravel().tolist() for column in np.broadcast_arrays(
        *(np.asarray(column, dtype=np.int64) for column in columns))]
