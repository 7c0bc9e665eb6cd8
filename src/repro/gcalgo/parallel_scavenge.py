"""MinorGC: the ParallelScavenge copying collection (Fig. 3a).

Operation flow, exactly as the paper describes:

1. push the root set into the object stack;
2. *Search* the card table for dirty cards and push the old-generation
   slots that may reference young objects;
3. drain the stack: *Pop* a slot, check the referee's mark word; if not
   yet forwarded, *Copy* it to the To survivor space (or promote it to
   Old when aged enough or when To overflows), install a forwarding
   pointer, and *Scan&Push* the copy's references;
4. clean Eden and From, then swap the survivor semispaces.

The collector performs these steps functionally on the real heap while
recording Search / Copy / Scan&Push events and residual work into a
:class:`~repro.gcalgo.trace.GCTrace`.

Two kernel modes (:mod:`repro.heap.fast_kernels`): ``scalar`` runs
:meth:`MinorGC._drain` / :meth:`MinorGC._evacuate` object by object
and is the oracle; ``fast`` (the default) searches the card table with
numpy and runs step 3 in C — ``scavenge_drain`` in
``repro/platform/_scavenge.c``, built by :mod:`repro.platform.native`
— in place on the heap's u64 buffer, recording the same rows,
residuals and stats and leaving the same heap, roots, tops and cards.
"""

from __future__ import annotations


import numpy as np

from repro.errors import OutOfMemoryError
from repro.gcalgo.stack import ObjectStack
from repro.gcalgo.trace import (FIXED_GC_INSTRUCTIONS, GCTrace,
                                PRIMITIVE_TYPE_CODES, Primitive,
                                RESIDUAL_COSTS, chunk_columns, chunk_refs)
from repro.heap import fast_kernels
from repro.heap.heap import JavaHeap
from repro.heap.object_model import MarkWord
from repro.obs.tracer import get_tracer
from repro.units import CACHE_LINE

#: The evacuate rows' columns ``scavenge_drain`` fills (``ev_<name>``),
#: and their first length (doubled whenever a step needs more).
_EVENT_COLUMNS = ("prim", "src", "dst", "size_bytes", "refs", "pushes")
_FIRST_ROWS = 4096


class MinorGC:
    """One-shot scavenger; construct per heap and call :meth:`collect`."""

    def __init__(self, heap: JavaHeap,
                 tenuring_threshold: int = None) -> None:
        self.heap = heap
        self.tenuring_threshold = (
            heap.config.tenuring_threshold if tenuring_threshold is None
            else tenuring_threshold)

    # -- preconditions ----------------------------------------------------

    def promotion_safe(self) -> bool:
        """True when Old can absorb a worst-case full promotion.

        ParallelScavenge performs the same check and falls back to a
        full collection when it fails, so a scavenge never dies halfway.
        """
        layout = self.heap.layout
        worst_case = layout.eden.used + layout.survivor_from.used
        return layout.old.free >= worst_case

    # -- collection --------------------------------------------------------

    def collect(self) -> GCTrace:
        """Run the scavenge; returns the primitive trace."""
        if not self.promotion_safe():
            raise OutOfMemoryError(
                "scavenge refused: old generation cannot guarantee "
                "promotion; run a MajorGC first")
        heap = self.heap
        layout = heap.layout
        obs = get_tracer()
        fast = fast_kernels.fast_enabled(heap)
        if fast and heap.ref_write_hooks:
            # The native drain stores references without running them.
            fast_kernels.record_fallback(
                "minor", "reference write hooks are installed")
            fast = False
        fast_kernels.record_call("minor",
                                 kernel="fast" if fast else "scalar")
        trace = GCTrace("minor", heap_bytes=heap.config.heap_bytes)
        stack: ObjectStack[int] = ObjectStack()
        # Fixed collection overheads: VM-op setup, thread-stack roots,
        # termination protocol, policy updates (the Fig. 4 "other").
        trace.residual("setup", FIXED_GC_INSTRUCTIONS["minor"],
                       64 * 1024)

        with obs.span("collect", cat="collector", gc="minor"):
            # Step 1: roots.  Root slot i is encoded as -(i + 1); heap
            # slots are their (positive) addresses.
            with obs.span("roots", cat="collector", gc="minor"):
                for index in range(len(heap.roots)):
                    stack.push(-(index + 1))
                    trace.residual("root", RESIDUAL_COSTS["root"],
                                   CACHE_LINE)

            # Step 2: Search the card table, then collect old slots on
            # dirty cards that hold young references.
            with obs.span("card-search", cat="collector", gc="minor"):
                if fast:
                    card_slots = self._card_search_fast(trace)
                else:
                    self._card_search(trace, stack)

            # Step 3: drain.
            with obs.span("drain", cat="collector", gc="minor"):
                if fast:
                    self._drain_native(trace, stack, card_slots)
                else:
                    self._drain(trace, stack)

            # Step 4: clean up and swap semispaces (Fig. 1).
            eden, from_space = layout.eden, layout.survivor_from
            with obs.span("cleanup", cat="collector", gc="minor"):
                freed = eden.used + from_space.used - trace.bytes_copied
                trace.bytes_freed = max(0, freed)
                eden.reset()
                from_space.reset()
                layout.swap_survivors()
        return trace

    def _drain(self, trace: GCTrace, stack: ObjectStack) -> None:
        """Scalar drain loop (the oracle path)."""
        heap = self.heap
        eden = heap.layout.eden
        from_space = heap.layout.survivor_from
        while stack:
            slot = stack.pop()
            trace.residual("drain", RESIDUAL_COSTS["pop"])
            ref = self._read_slot(slot)
            if ref == 0:
                continue
            if not (eden.contains(ref)
                    or from_space.contains(ref)):
                # null, old, or already-evacuated To-space object
                continue
            mark = heap.mark_word(ref)
            trace.residual("drain", RESIDUAL_COSTS["check_mark"],
                           CACHE_LINE)
            if mark.is_forwarded:
                new_addr = mark.forwarding_address
            else:
                new_addr = self._evacuate(ref, mark, trace,
                                          stack)
                trace.objects_visited += 1
            self._write_slot(slot, new_addr)
            trace.residual("drain",
                           RESIDUAL_COSTS["forward_update"])

    def _drain_native(self, trace: GCTrace, stack: ObjectStack,
                      card_slots: np.ndarray) -> None:
        """:meth:`_drain` in C (``scavenge_drain``, ``_scavenge.c``),
        in place on the heap buffer, over the stack's root entries with
        ``card_slots`` pushed on top: the same rows, residual, stats
        and heap, roots, tops and card table."""
        from repro.platform import native  # repro.platform imports us
        items = np.concatenate((np.array(stack.take(), dtype=np.int64),
                                card_slots))
        if not items.shape[0]:
            return
        heap, layout = self.heap, self.heap.layout
        tables = fast_kernels.layouts_for(heap.klasses)
        roots = np.array(heap.roots, dtype=np.int64)
        rows = _FIRST_ROWS
        block = native.Block(native.SCAVENGE_FIELDS, {
            "words": heap.words, "base": heap.base,
            "n_words": heap.words.shape[0], "roots": roots,
            "stack": items,
            "depth": items.shape[0], "stack_cap": items.shape[0],
            "eden_lo": layout.eden.start, "eden_hi": layout.eden.end,
            "from_lo": layout.survivor_from.start,
            "from_hi": layout.survivor_from.end,
            "young_lo": layout.eden.start,
            "young_hi": layout.survivor_b.end,
            "to_top": layout.survivor_to.top,
            "to_end": layout.survivor_to.end, "old_lo": layout.old.start,
            "old_top": layout.old.top, "old_end": layout.old.end,
            "tenuring_threshold": self.tenuring_threshold,
            "n_kinds": tables.kind_code.shape[0],
            "kind": tables.kind_code, "fixed_size": tables.fixed_size,
            "ref_count": tables.ref_count, "off_start": tables.off_start,
            "flat_offsets": tables.flat_offsets,
            "cards": heap.card_table.bytes,
            "card_start": heap.card_table.covered_start,
            "card_bytes": heap.card_table.card_bytes,
            "pop_cost": RESIDUAL_COSTS["pop"],
            "check_cost": RESIDUAL_COSTS["check_mark"],
            "forward_cost": RESIDUAL_COSTS["forward_update"],
            "allocate_cost": RESIDUAL_COSTS["allocate"],
            "push_cost": RESIDUAL_COSTS["push"],
            "trivial_cost": RESIDUAL_COSTS["scan_trivial"],
            "cache_line": CACHE_LINE,
            "ev_prim": np.empty(rows, dtype=np.uint8),
            **{f"ev_{name}": np.empty(rows, dtype=np.int64)
               for name in _EVENT_COLUMNS[1:]},
            "n_events": 0, "ev_cap": rows, "drain": 0.0,
            "drain_bytes": 0, "copied": 0, "bytes_copied": 0,
            "promoted": 0, "fault_addr": 0})
        state = block.struct
        run = native.library().scavenge_drain
        while True:
            code = run(block.address)
            if code == native.SCAVENGE_GROW_STACK:
                state.stack_cap = block.grow("stack", state.depth).shape[0]
            elif code == native.SCAVENGE_GROW_ROWS:
                for name in _EVENT_COLUMNS:
                    state.ev_cap = block.grow(f"ev_{name}",
                                              state.n_events).shape[0]
            else:
                break
        layout.survivor_to.top = state.to_top
        layout.old.top = state.old_top
        heap.roots[:] = roots.tolist()
        if code != native.SCAVENGE_DONE:
            self._raise_fault(code, state.fault_addr)
        count = state.n_events
        trace.append_columns("evacuate", **{
            name: block.arrays[f"ev_{name}"][:count]
            for name in _EVENT_COLUMNS})
        # The stack was not empty, so the scalar drain has created its
        # "drain" residual by now too.
        trace.residual("drain", state.drain, state.drain_bytes)
        trace.objects_visited += state.copied
        trace.objects_copied += state.copied
        trace.bytes_copied += state.bytes_copied
        trace.objects_promoted += state.promoted

    def _raise_fault(self, code: int, addr: int) -> None:
        """Raise the scalar path's error for a native drain fault by
        repeating, in Python, the access that faulted at ``addr``."""
        from repro.platform import native
        heap = self.heap
        if code == native.SCAVENGE_BAD_WORD:
            heap.read_u64(addr)
        elif code == native.SCAVENGE_BAD_OBJECT:
            heap.object_at(addr)
        elif code == native.SCAVENGE_NO_SPACE:
            heap.layout.old.allocate(heap.object_at(addr).size_bytes)
        raise AssertionError(f"scavenge_drain fault {code} at {addr:#x} "
                             f"does not fault in Python")

    # -- internals ------------------------------------------------------------

    def _card_search(self, trace: GCTrace, stack: ObjectStack) -> None:
        heap = self.heap
        card_table = heap.card_table
        for table_addr, n_cards, found in card_table.search_blocks():
            trace.search("card-search", table_addr, n_cards, found)
        dirty = set(int(i) for i in card_table.dirty_card_indices())
        card_table.clear()
        if not dirty:
            return
        # Find the objects on dirty cards.  HotSpot resolves each dirty
        # card to its first object through the block-offset table; we
        # charge that lookup per dirty card, while (functionally) using
        # a parseable-space walk to locate the same objects.
        for _ in dirty:
            trace.residual("card-scan", RESIDUAL_COSTS["card_lookup"],
                           CACHE_LINE)
        for view in heap.iterate_space(heap.layout.old):
            if heap.is_filler(view):
                continue
            first = card_table.card_index(view.addr)
            last = card_table.card_index(view.end_addr - 1)
            if not any(card in dirty for card in range(first, last + 1)):
                continue
            slots = view.reference_slots()
            pushes = 0
            for slot in slots:
                target = heap.load_ref(slot)
                if target and heap.layout.in_young(target):
                    stack.push(slot)
                    pushes += 1
            if slots:
                for refs, chunk_pushes in chunk_refs(len(slots), pushes):
                    trace.scan_push("card-scan", view.addr, refs,
                                    chunk_pushes)
            else:
                trace.residual("card-scan",
                               RESIDUAL_COSTS["scan_trivial"])

    def _card_search_fast(self, trace: GCTrace) -> np.ndarray:
        """Vectorized Search: one pass over cards, a C header walk of
        Old and batched candidate decode — the events of
        :meth:`_card_search`, and the slots it pushes, in push order."""
        heap = self.heap
        card_table = heap.card_table
        no_slots = np.empty(0, dtype=np.int64)
        for table_addr, n_cards, found in \
                fast_kernels.search_blocks_fast(card_table):
            trace.search("card-search", table_addr, n_cards, found)
        dirty_indices = card_table.dirty_card_indices()
        card_table.clear()
        n_dirty = int(dirty_indices.shape[0])
        if not n_dirty:
            return no_slots
        trace.residual("card-scan",
                       RESIDUAL_COSTS["card_lookup"] * n_dirty,
                       CACHE_LINE * n_dirty)
        old = heap.layout.old
        parsed = fast_kernels.parse_space(heap, old.start, old.top)
        if not len(parsed):
            return no_slots
        not_filler = ((parsed.kids != heap.filler_klass.klass_id)
                      & (parsed.kids
                         != heap.filler_object_klass.klass_id))
        first = ((parsed.addrs - card_table.covered_start)
                 // card_table.card_bytes)
        last = ((parsed.end_addrs - 1 - card_table.covered_start)
                // card_table.card_bytes)
        flags = np.zeros(card_table.num_cards, dtype=np.int64)
        flags[dirty_indices] = 1
        cum = np.concatenate(([0], np.cumsum(flags)))
        candidates = np.flatnonzero(
            not_filler & (cum[last + 1] - cum[first] > 0))
        if not candidates.shape[0]:
            return no_slots
        batch = fast_kernels.gather_ref_slots(
            heap, parsed.addrs[candidates], parsed.kids[candidates],
            parsed.lengths[candidates])
        layout = heap.layout
        young = ((batch.targets != 0)
                 & (batch.targets >= layout.eden.start)
                 & (batch.targets < layout.survivor_b.end))
        pushes = np.bincount(batch.obj_index[young],
                             minlength=len(candidates))
        scanned = batch.counts > 0
        trivial = len(candidates) - int(np.count_nonzero(scanned))
        src, refs, shares = chunk_columns(
            parsed.addrs[candidates][scanned], batch.counts[scanned],
            pushes[scanned])
        trace.append_columns("card-scan", prim=np.full(
            len(src), PRIMITIVE_TYPE_CODES[Primitive.SCAN_PUSH],
            dtype=np.uint8), src=src, refs=refs, pushes=shares)
        if trivial:
            trace.residual("card-scan",
                           RESIDUAL_COSTS["scan_trivial"] * trivial)
        # Flattened slot order equals the scalar per-object push order.
        return batch.slots[np.flatnonzero(young)]

    def _read_slot(self, slot: int) -> int:
        if slot < 0:
            return self.heap.roots[-slot - 1]
        return self.heap.load_ref(slot)

    def _write_slot(self, slot: int, value: int) -> None:
        if slot < 0:
            self.heap.roots[-slot - 1] = value
        else:
            self.heap.store_ref(slot, value)

    def _evacuate(self, addr: int, mark: MarkWord, trace: GCTrace,
                  stack: ObjectStack) -> int:
        """Copy ``addr`` to To (or promote to Old); returns the new address."""
        heap = self.heap
        layout = heap.layout
        view = heap.object_at(addr)
        size = view.size_bytes
        age = min(mark.age + 1, 15)
        promote = age >= self.tenuring_threshold
        if not promote and not layout.survivor_to.can_allocate(size):
            promote = True  # survivor overflow promotes early
        if promote:
            dst = layout.old.allocate(size)
            new_mark = MarkWord.fresh()
            trace.objects_promoted += 1
        else:
            dst = layout.survivor_to.allocate(size)
            new_mark = MarkWord.fresh().with_age(age)
        trace.residual("drain", RESIDUAL_COSTS["allocate"])

        heap.copy_bytes(addr, dst, size)
        trace.copy("evacuate", addr, dst, size)
        trace.objects_copied += 1
        trace.bytes_copied += size
        heap.set_mark_word(dst, new_mark)
        heap.set_mark_word(addr, mark.forwarded_to(dst))

        # Scan&Push the copy's references (push_contents, Fig. 11).
        # Reference-free klasses (type arrays) have a no-op iterate
        # strategy and are never offloaded; large object arrays are
        # scanned in bounded chunks as HotSpot does.
        new_view = heap.object_at(dst)
        pushes = 0
        slots = new_view.reference_slots()
        for slot in slots:
            target = heap.load_ref(slot)
            if target and layout.in_young(target):
                stack.push(slot)
                pushes += 1
                trace.residual("drain", RESIDUAL_COSTS["push"])
        if slots:
            for refs, chunk_pushes in chunk_refs(len(slots), pushes):
                trace.scan_push("evacuate", dst, refs, chunk_pushes)
        else:
            trace.residual("drain", RESIDUAL_COSTS["scan_trivial"])
        # A promoted object whose young references have not been updated
        # yet keeps its card dirty through the write barrier when the
        # drain updates each pushed slot.
        return dst
