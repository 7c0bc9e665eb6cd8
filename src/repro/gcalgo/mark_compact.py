"""MajorGC: mark-compact collection (Fig. 3b).

Phases, following HotSpot's PSParallelCompact as the paper describes:

* **Marking** — pop objects from the stack; unmarked ones get their
  header mark bit set, their begin/end bitmap bits recorded (old
  generation), and their references *Scan&Push*-ed (``follow_contents``
  in Fig. 11).
* **Summary** — per-region live-word totals, accumulated during marking
  (the paper measures this phase below 0.03% of MajorGC and excludes it
  from offloading; we charge it as residual work).
* **Adjust pointers** — every reference to an old-generation object is
  rewritten to the referee's post-compaction address, computed as
  ``region destination + live_words_in_range(region start, referee)``.
  Each such computation is a *Bitmap Count* invocation — this is where
  the primitive's call volume comes from.
* **Compact** — live old objects slide left to their destinations
  (*Copy*), leaving the old generation densely packed.

Like PSParallelCompact, the collector keeps a **dense prefix**: the
bottom run of old-generation regions whose live density is already
high never moves.  Objects inside it keep their addresses (references
to them need no Bitmap Count), and the few dead gaps are overwritten
with filler objects (HotSpot's deadwood), keeping the space parseable.
This is what keeps Bitmap Count and Copy from dominating MajorGC on
pointer-dense heaps — exactly the balance Fig. 4(b) shows.

The young generation is marked and pointer-adjusted but not moved (the
next scavenge evacuates it), which matches the division of labour
between ParallelScavenge's two collectors.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gcalgo.stack import ObjectStack
from repro.gcalgo.trace import (FIXED_GC_INSTRUCTIONS, GCTrace,
                               PRIMITIVE_TYPE_CODES, Primitive,
                               RESIDUAL_COSTS, chunk_refs)
from repro.heap import fast_kernels
from repro.heap.heap import JavaHeap
from repro.heap.object_model import ObjectView
from repro.obs.tracer import get_tracer
from repro.units import CACHE_LINE, WORD

_SCAN_PUSH, _BITMAP_COUNT = (PRIMITIVE_TYPE_CODES[primitive] for primitive
                             in (Primitive.SCAN_PUSH,
                                 Primitive.BITMAP_COUNT))

#: First length of the native mark's stack, live-object and row
#: columns (doubled whenever a step needs more).
_FIRST_ROWS = 4096

#: Compaction region size: 512 heap words, HotSpot's RegionSize.
REGION_WORDS = 512
REGION_BYTES = REGION_WORDS * WORD

#: A region at least this live joins the dense prefix (HotSpot chooses
#: the prefix with a deadwood cost model; a density cut-off captures
#: its effect).
DENSE_PREFIX_DENSITY = 0.85


class MajorGC:
    """One full mark-compact collection over the heap."""

    def __init__(self, heap: JavaHeap) -> None:
        self.heap = heap
        #: (region_start, last queried addr) — the software query cache.
        self._last_query: Tuple[int, int] = None

    def collect(self) -> GCTrace:
        heap = self.heap
        obs = get_tracer()
        fast = fast_kernels.fast_enabled(heap)
        fast_kernels.record_call("major",
                                 kernel="fast" if fast else "scalar")
        trace = GCTrace("major", heap_bytes=heap.config.heap_bytes)
        trace.residual("setup", FIXED_GC_INSTRUCTIONS["major"],
                       96 * 1024)
        heap.bitmaps.clear()
        old_used_before = heap.layout.old.used

        with obs.span("collect", cat="collector", gc="major"):
            if fast:
                self._collect_fast(trace, obs)
            else:
                self._collect_scalar(trace, obs)

        trace.bytes_freed = old_used_before - heap.layout.old.used
        return trace

    def _collect_scalar(self, trace: GCTrace, obs) -> None:
        with obs.span("mark", cat="collector", gc="major"):
            live_old, live_young = self._mark(trace)
        with obs.span("summary", cat="collector", gc="major"):
            region_live = self._region_live(trace, live_old)
            prefix_end = self._effective_prefix_end(
                live_old, self._dense_prefix_end(region_live))
            region_dest = self._summarize(trace, region_live,
                                          prefix_end)
        with obs.span("adjust", cat="collector", gc="major"):
            self._adjust_pointers(trace, live_old, live_young,
                                  region_dest, prefix_end)
        with obs.span("compact", cat="collector", gc="major"):
            self._compact(trace, live_old, region_dest, prefix_end)
            self._unmark_young(live_young)
        with obs.span("card-rebuild", cat="collector", gc="major"):
            self._rebuild_cards(trace)

    def _collect_fast(self, trace: GCTrace, obs) -> None:
        """The native phase pipeline: mark, adjust and compact run in
        C (``major_mark``, ``major_adjust``, ``major_compact`` in
        ``repro/platform/_scavenge.c``), the summary in numpy — bit-exact
        with the scalar one (the differential fuzzer enforces it)."""
        heap = self.heap
        with obs.span("mark", cat="collector", gc="major"):
            old_addrs, old_sizes, young, slots = self._mark_native(trace)
        with obs.span("summary", cat="collector", gc="major"):
            # Freeze the bitmaps into the popcount-prefix-sum index —
            # every live_words_in_range below becomes O(1).
            index = fast_kernels.CoverageIndex(heap.bitmaps)
            region_live = self._region_live_fast(trace, old_addrs,
                                                 old_sizes)
            prefix_end = self._effective_prefix_end_fast(
                old_addrs, old_sizes, self._dense_prefix_end(region_live))
            destination = self._destination(
                prefix_end, self._summarize_fast(trace, region_live,
                                                 prefix_end, index),
                index)
        with obs.span("adjust", cat="collector", gc="major"):
            self._adjust_native(trace, np.concatenate((old_addrs, young)),
                                slots, destination)
        with obs.span("compact", cat="collector", gc="major"):
            self._compact_native(trace, old_addrs, old_sizes, young,
                                 destination)
        with obs.span("card-rebuild", cat="collector", gc="major"):
            self._rebuild_cards_fast(trace)

    # -- marking ------------------------------------------------------------

    def _mark(self, trace: GCTrace
              ) -> Tuple[List[ObjectView], List[ObjectView]]:
        heap = self.heap
        layout = heap.layout
        stack: ObjectStack[int] = ObjectStack()
        marked = set()
        live_old: List[ObjectView] = []
        live_young: List[ObjectView] = []

        for addr in heap.roots:
            trace.residual("mark", RESIDUAL_COSTS["root"], CACHE_LINE)
            if addr and addr not in marked:
                marked.add(addr)
                stack.push(addr)

        while stack:
            addr = stack.pop()
            trace.residual("mark", RESIDUAL_COSTS["pop"])
            view = heap.object_at(addr)
            trace.objects_visited += 1
            heap.set_mark_word(addr, heap.mark_word(addr).marked())
            if layout.in_old(addr):
                heap.bitmaps.mark_object(addr, view.size_bytes)
                live_old.append(view)
            else:
                live_young.append(view)
            slots = view.reference_slots()
            pushes = 0
            for slot in slots:
                target = heap.load_ref(slot)
                trace.residual("mark", RESIDUAL_COSTS["check_mark"])
                if target and target not in marked:
                    marked.add(target)  # mark_obj: atomic RMW in HotSpot
                    stack.push(target)
                    pushes += 1
            if slots:
                for refs, chunk_pushes in chunk_refs(len(slots), pushes):
                    trace.scan_push("mark", addr, refs, chunk_pushes)
            else:
                trace.residual("mark", RESIDUAL_COSTS["scan_trivial"])

        live_old.sort(key=lambda v: v.addr)
        return live_old, live_young

    # -- summary ---------------------------------------------------------------

    def _region_live(self, trace: GCTrace,
                     live_old: List[ObjectView]) -> List[int]:
        """Live words per old-generation region (accumulated during
        marking in HotSpot; charged as residual summary work)."""
        heap = self.heap
        old = heap.layout.old
        n_regions = -(-old.capacity // REGION_BYTES)
        region_live = [0] * n_regions
        for view in live_old:
            start = view.addr
            remaining = view.size_bytes
            while remaining > 0:
                region = (start - old.start) // REGION_BYTES
                region_end = old.start + (region + 1) * REGION_BYTES
                span = min(remaining, region_end - start)
                region_live[region] += span // WORD
                start += span
                remaining -= span
            trace.residual("summary", RESIDUAL_COSTS["summary_region"])
        return region_live

    def _dense_prefix_end(self, region_live: List[int]) -> int:
        """Address where compaction starts moving objects.

        Regions at the bottom of the old generation whose live density
        is at least :data:`DENSE_PREFIX_DENSITY` stay in place.
        """
        old = self.heap.layout.old
        prefix_regions = 0
        for live_words in region_live:
            region_start = old.start + prefix_regions * REGION_BYTES
            if region_start >= old.top:
                break
            # The last (partially used) region is judged against its
            # used portion, not the full region size.
            used_words = min(REGION_WORDS,
                             (old.top - region_start) // WORD)
            if live_words < used_words * DENSE_PREFIX_DENSITY:
                break
            prefix_regions += 1
        return old.start + prefix_regions * REGION_BYTES

    def _effective_prefix_end(self, live_old: List[ObjectView],
                              region_prefix_end: int) -> int:
        """Snap the region-granular prefix to an object boundary.

        The prefix ends exactly at the end of its last live object: a
        live object spanning the region boundary stays in place (and
        extends the prefix), while dead space at the prefix tail is
        handed to the compacted area, where moved objects overwrite it.
        """
        prefix_end = self.heap.layout.old.start
        for view in live_old:
            if view.addr >= region_prefix_end:
                break
            prefix_end = max(prefix_end, view.end_addr)
        return prefix_end

    def _summarize(self, trace: GCTrace, region_live: List[int],
                   prefix_end: int) -> Dict[int, int]:
        """Destination word offsets (from old start) per moved region.

        The first moved object lands at ``prefix_end``.  The region
        containing ``prefix_end`` may hold live words *before* the
        boundary (prefix objects); its destination subtracts them so
        ``dest + live_words_in_range(region start, addr)`` stays exact.
        """
        heap = self.heap
        old = heap.layout.old
        first_moved = (prefix_end - old.start) // REGION_BYTES
        dest: Dict[int, int] = {}
        prefix_words = (prefix_end - old.start) // WORD
        cumulative = prefix_words
        for region in range(len(region_live)):
            region_start = old.start + region * REGION_BYTES
            if region < first_moved:
                dest[region] = region * REGION_WORDS
                continue
            if region == first_moved and prefix_end > region_start:
                pre = heap.bitmaps.live_words_in_range_fast(
                    region_start, prefix_end)
                dest[region] = cumulative - pre
                cumulative = dest[region] + region_live[region]
            else:
                dest[region] = cumulative
                cumulative += region_live[region]
            trace.residual("summary", RESIDUAL_COSTS["summary_region"])
        return dest

    # -- pointer adjustment -------------------------------------------------------

    def _new_address(self, trace: GCTrace, phase: str,
                     region_dest: Dict[int, int], addr: int,
                     prefix_end: int) -> int:
        """Post-compaction address of old-gen object ``addr``.

        Dense-prefix objects do not move — the check is a compare, no
        bitmap query.  For moved objects this is one Bitmap Count
        invocation: live words in ``[region start, addr)`` (the paper's
        ``live_words_in_range``).  The software baseline's per-thread
        query cache is modelled: a query extending the immediately
        preceding one within the same region only walks the delta bits.
        """
        heap = self.heap
        old = heap.layout.old
        if addr < prefix_end:
            trace.residual(phase, RESIDUAL_COSTS["check_mark"])
            return addr
        region = (addr - old.start) // REGION_BYTES
        region_start = old.start + region * REGION_BYTES
        words = heap.bitmaps.live_words_in_range_fast(region_start, addr)
        bits = (addr - region_start) // WORD
        cached = None
        last = self._last_query
        if last is not None and last[0] == region_start \
                and last[1] <= addr:
            cached = (addr - last[1]) // WORD
        self._last_query = (region_start, addr)
        trace.bitmap_count(phase, region_start, bits=bits,
                           bits_cached=cached)
        return old.start + (region_dest[region] + words) * WORD

    def _adjust_pointers(self, trace: GCTrace, live_old: List[ObjectView],
                         live_young: List[ObjectView],
                         region_dest: Dict[int, int],
                         prefix_end: int) -> None:
        heap = self.heap
        layout = heap.layout
        # Roots first.
        for index, addr in enumerate(heap.roots):
            trace.residual("adjust", RESIDUAL_COSTS["forward_update"])
            if addr and layout.in_old(addr):
                heap.roots[index] = self._new_address(
                    trace, "adjust", region_dest, addr, prefix_end)
        # Then every reference slot of every live object.
        for view in self._all_live(live_old, live_young):
            for slot in view.reference_slots():
                target = heap.load_ref(slot)
                trace.residual("adjust", RESIDUAL_COSTS["check_mark"])
                if target and layout.in_old(target):
                    new_target = self._new_address(
                        trace, "adjust", region_dest, target, prefix_end)
                    if new_target != target:
                        heap.write_u64(slot, new_target)
                        trace.residual("adjust",
                                       RESIDUAL_COSTS["forward_update"])

    @staticmethod
    def _all_live(live_old: List[ObjectView],
                  live_young: List[ObjectView]):
        yield from live_old
        yield from live_young

    # -- compaction -------------------------------------------------------------------

    def _compact(self, trace: GCTrace, live_old: List[ObjectView],
                 region_dest: Dict[int, int], prefix_end: int) -> None:
        heap = self.heap
        old = heap.layout.old
        # Dense prefix: nothing moves; dead gaps between its live
        # objects become deadwood fillers so the space stays parseable
        # (the prefix ends exactly at its last live object).
        cursor = old.start
        new_top = prefix_end
        for view in live_old:
            if view.addr >= prefix_end:
                break
            if view.addr > cursor:
                heap.fill_dead_range(cursor, view.addr)
                trace.residual("compact", RESIDUAL_COSTS["sweep_step"])
            heap.set_mark_word(view.addr,
                               heap.mark_word(view.addr).unmarked())
            cursor = max(cursor, view.end_addr)
        # Moved objects slide left to just after the prefix.
        for view in live_old:
            if view.addr < prefix_end:
                continue
            dst = self._new_address(trace, "compact", region_dest,
                                    view.addr, prefix_end)
            size = view.size_bytes
            if dst != view.addr:
                heap.move_bytes(view.addr, dst, size)
                trace.copy("compact", view.addr, dst, size)
                trace.objects_copied += 1
                trace.bytes_copied += size
            # Clear the mark bit in the (possibly moved) header.
            heap.set_mark_word(dst, heap.mark_word(dst).unmarked())
            new_top = dst + size
        old.top = new_top
        heap.bitmaps.clear()

    def _unmark_young(self, live_young: List[ObjectView]) -> None:
        for view in live_young:
            mark = self.heap.mark_word(view.addr)
            self.heap.set_mark_word(view.addr, mark.unmarked())

    # -- card table reconstruction -------------------------------------------------------

    def _rebuild_cards(self, trace: GCTrace) -> None:
        """Re-dirty cards of old objects holding young references.

        Compaction moved old objects, so the pre-GC card state is
        meaningless; HotSpot similarly re-dirties during the move.
        """
        heap = self.heap
        heap.card_table.clear()
        for view in heap.iterate_space(heap.layout.old):
            trace.residual("card-rebuild", RESIDUAL_COSTS["card_clean"])
            if heap.is_filler(view):
                continue
            for slot in view.reference_slots():
                target = heap.load_ref(slot)
                if target and heap.layout.in_young(target):
                    heap.card_table.dirty(slot)

    # -- fast-path phases ---------------------------------------------------
    #
    # Same phase structure, same trace events and residuals (created in
    # the same order), same final heap — the traversal, the pointer
    # updates and the compaction run in C on the heap buffer, and the
    # summary and card rebuild in numpy.

    def _layout_values(self) -> dict:
        heap = self.heap
        tables = fast_kernels.layouts_for(heap.klasses)
        return {"words": heap.words, "base": heap.base,
                "n_kinds": tables.kind_code.shape[0],
                "kind": tables.kind_code, "fixed_size": tables.fixed_size,
                "ref_count": tables.ref_count,
                "off_start": tables.off_start,
                "flat_offsets": tables.flat_offsets}

    def _run(self, name: str, block) -> int:
        """Call native ``name`` on ``block``; raise the scalar path's
        error for a fault."""
        from repro.platform import native  # repro.platform imports us
        fast_kernels.record_call(name)
        code = getattr(native.library(), name)(block.address)
        if code in (native.SCAVENGE_DONE, native.SCAVENGE_GROW_ROWS,
                    native.SCAVENGE_GROW_STACK, native.MAJOR_GROW_LIVE):
            return code
        heap = self.heap
        addr = block.struct.fault_addr
        if code == native.SCAVENGE_BAD_WORD:
            heap.read_u64(addr)
        elif code == native.SCAVENGE_BAD_OBJECT:
            heap.object_at(addr)
        elif code == native.MAJOR_BAD_SPAN:
            heap.bitmaps.mark_object(addr, heap.object_size(addr))
        elif code == native.MAJOR_BAD_GAP:
            heap.fill_dead_range(addr, block.struct.fault_end)
        raise AssertionError(f"{name} fault {code} at {addr:#x} does not "
                             f"fault in Python")

    def _mark_native(self, trace: GCTrace) -> Tuple[
            np.ndarray, np.ndarray, np.ndarray, int]:
        """:meth:`_mark` in C: sets the header mark bits and the Old
        objects' bitmap bits, records the Scan&Push rows and returns
        the live Old objects' addresses and sizes by address, the other
        live objects in mark order and the slots scanned."""
        from repro.platform import native
        heap = self.heap
        old = heap.layout.old
        roots = np.array(heap.roots, dtype=np.int64)
        first = _FIRST_ROWS
        block = native.Block(native.MARK_FIELDS, {
            **self._layout_values(), "n_words": heap.words.shape[0],
            "roots": roots, "n_roots": roots.shape[0], "roots_done": 0,
            "stack": np.empty(max(first, roots.shape[0]), dtype=np.int64),
            "depth": 0, "stack_cap": max(first, roots.shape[0]),
            "pushed": np.zeros(heap.words.shape[0] // 64 + 1,
                               dtype=np.uint64),
            "old_lo": old.start, "old_hi": old.end,
            "beg": heap.bitmaps.beg, "end": heap.bitmaps.end,
            "root_cost": RESIDUAL_COSTS["root"],
            "pop_cost": RESIDUAL_COSTS["pop"],
            "check_cost": RESIDUAL_COSTS["check_mark"],
            "trivial_cost": RESIDUAL_COSTS["scan_trivial"],
            "cache_line": CACHE_LINE,
            **{name: np.empty(first, dtype=np.int64)
               for name in ("old_addr", "old_size", "young", "ev_src",
                            "ev_refs", "ev_pushes")},
            "n_old": 0, "old_cap": first, "n_young": 0, "young_cap": first,
            "n_events": 0, "ev_cap": first, "mark": 0.0, "mark_bytes": 0,
            "touched": 0, "slots": 0, "fault_addr": 0})
        state = block.struct
        while True:
            code = self._run("major_mark", block)
            if code == native.SCAVENGE_GROW_STACK:
                state.stack_cap = block.grow("stack", state.depth).shape[0]
            elif code == native.SCAVENGE_GROW_ROWS:
                for name in ("ev_src", "ev_refs", "ev_pushes"):
                    state.ev_cap = block.grow(name,
                                              state.n_events).shape[0]
            elif code == native.MAJOR_GROW_LIVE:
                if state.n_old == state.old_cap:
                    block.grow("old_addr", state.n_old)
                    state.old_cap = block.grow("old_size",
                                               state.n_old).shape[0]
                else:
                    state.young_cap = block.grow(
                        "young", state.n_young).shape[0]
            else:
                break
        if state.touched:
            trace.residual("mark", state.mark, state.mark_bytes)
        rows = state.n_events
        trace.append_columns(
            "mark", src=block.arrays["ev_src"][:rows],
            prim=np.full(rows, _SCAN_PUSH, dtype=np.uint8),
            refs=block.arrays["ev_refs"][:rows],
            pushes=block.arrays["ev_pushes"][:rows])
        trace.objects_visited += state.n_old + state.n_young
        old_addrs = block.arrays["old_addr"][:state.n_old]
        order = np.argsort(old_addrs, kind="stable")
        return (old_addrs[order],
                block.arrays["old_size"][:state.n_old][order],
                block.arrays["young"][:state.n_young].copy(), state.slots)

    def _region_live_fast(self, trace: GCTrace, addrs: np.ndarray,
                          sizes: np.ndarray) -> np.ndarray:
        """:meth:`_region_live` over address and size columns: an
        object's words split between its first region, its last region
        and the whole regions in between."""
        old = self.heap.layout.old
        n_regions = -(-old.capacity // REGION_BYTES)
        region_live = np.zeros(n_regions, dtype=np.int64)
        if not len(addrs):
            return region_live
        trace.residual("summary",
                       RESIDUAL_COSTS["summary_region"] * len(addrs))
        ends = addrs + sizes
        first = (addrs - old.start) // REGION_BYTES
        last = (ends - WORD - old.start) // REGION_BYTES
        first_end = old.start + (first + 1) * REGION_BYTES
        np.add.at(region_live, first,
                  (np.minimum(ends, first_end) - addrs) // WORD)
        spans = last > first
        np.add.at(region_live, last[spans],
                  (ends[spans] - old.start
                   - last[spans] * REGION_BYTES) // WORD)
        inner = np.zeros(n_regions + 1, dtype=np.int64)
        np.add.at(inner, first[spans] + 1, REGION_WORDS)
        np.add.at(inner, last[spans], -REGION_WORDS)
        return region_live + np.cumsum(inner[:-1])

    def _effective_prefix_end_fast(self, addrs: np.ndarray,
                                   sizes: np.ndarray,
                                   region_prefix_end: int) -> int:
        inside = addrs < region_prefix_end
        prefix_end = self.heap.layout.old.start
        if inside.any():
            prefix_end = max(prefix_end,
                             int((addrs[inside] + sizes[inside]).max()))
        return prefix_end

    def _summarize_fast(self, trace: GCTrace, region_live: np.ndarray,
                        prefix_end: int,
                        index: "fast_kernels.CoverageIndex") -> np.ndarray:
        """:meth:`_summarize` as an array: regions below the dense
        prefix keep their own offset, the rest follow the first moved
        region's destination by an exclusive running sum."""
        old = self.heap.layout.old
        n_regions = len(region_live)
        first_moved = min((prefix_end - old.start) // REGION_BYTES,
                          n_regions)
        dest = np.arange(n_regions, dtype=np.int64) * REGION_WORDS
        # The scalar loop only charges regions at or past the dense
        # prefix (the prefix branch ``continue``s before its residual).
        charged = n_regions - first_moved
        if not charged:
            return dest
        trace.residual("summary",
                       RESIDUAL_COSTS["summary_region"] * charged)
        region_start = old.start + first_moved * REGION_BYTES
        start = ((prefix_end - old.start) // WORD
                 - index.live_words(region_start, prefix_end))
        moved = region_live[first_moved:]
        dest[first_moved:] = start + np.cumsum(moved) - moved
        return dest

    def _destination(self, prefix_end: int, region_dest: np.ndarray,
                     index: "fast_kernels.CoverageIndex") -> dict:
        """The ``Destination`` fields of the adjust and compact blocks
        (the query cache starts empty)."""
        return {"old_lo": self.heap.layout.old.start,
                "prefix_end": prefix_end, "region_dest": region_dest,
                "coverage": index.coverage, "prefix": index.prefix,
                "covered_start": index.covered_start,
                "covered_end": index.covered_end, "last_region": -1,
                "last_addr": 0}

    def _adjust_native(self, trace: GCTrace, live: np.ndarray, slots: int,
                       destination: dict) -> None:
        """:meth:`_adjust_pointers` in C, over the live Old objects by
        address and then the others in mark order; leaves the query
        cache in ``destination`` for the compaction."""
        from repro.platform import native
        heap = self.heap
        roots = np.array(heap.roots, dtype=np.int64)
        rows = roots.shape[0] + slots
        block = native.Block(native.ADJUST_FIELDS, {
            **self._layout_values(), "roots": roots, "n_roots": roots.shape[0],
            "live": live, "n_live": live.shape[0],
            "old_hi": heap.layout.old.end, **destination,
            "check_cost": RESIDUAL_COSTS["check_mark"],
            "forward_cost": RESIDUAL_COSTS["forward_update"],
            **{name: np.empty(rows, dtype=np.int64)
               for name in ("ev_src", "ev_bits", "ev_bits_cached")},
            "n_events": 0, "adjust": 0.0, "touched": 0})
        self._run("major_adjust", block)
        state = block.struct
        heap.roots[:] = roots.tolist()
        if state.touched:
            trace.residual("adjust", state.adjust)
        count = state.n_events
        trace.append_columns("adjust", src=block.arrays["ev_src"][:count],
                             prim=np.full(count, _BITMAP_COUNT,
                                          dtype=np.uint8),
                             bits=block.arrays["ev_bits"][:count],
                             bits_cached=block.arrays[
                                 "ev_bits_cached"][:count])
        destination.update(last_region=state.last_region,
                           last_addr=state.last_addr)

    def _compact_native(self, trace: GCTrace, addrs: np.ndarray,
                        sizes: np.ndarray, young: np.ndarray,
                        destination: dict) -> None:
        """:meth:`_compact` and :meth:`_unmark_young` in C."""
        from repro.platform import native
        heap = self.heap
        rows = 2 * int(np.count_nonzero(
            addrs >= destination["prefix_end"]))
        block = native.Block(native.COMPACT_FIELDS, {
            "words": heap.words, "base": heap.base, "old_addr": addrs,
            "old_size": sizes, "n_old": addrs.shape[0], "young": young,
            "n_young": young.shape[0], **destination,
            "filler_kid": heap.filler_klass.klass_id,
            "filler_object_kid": heap.filler_object_klass.klass_id,
            "sweep_cost": RESIDUAL_COSTS["sweep_step"],
            "ev_prim": np.empty(rows, dtype=np.uint8),
            **{name: np.empty(rows, dtype=np.int64)
               for name in ("ev_src", "ev_dst", "ev_size_bytes",
                            "ev_bits", "ev_bits_cached")},
            "n_events": 0, "compact": 0.0, "touched": 0, "copied": 0,
            "bytes_copied": 0, "new_top": 0, "fault_addr": 0,
            "fault_end": 0})
        self._run("major_compact", block)
        state = block.struct
        if state.touched:
            trace.residual("compact", state.compact)
        count = state.n_events
        trace.append_columns("compact", **{
            name: block.arrays[f"ev_{name}"][:count]
            for name in ("prim", "src", "dst", "size_bytes", "bits",
                         "bits_cached")})
        trace.objects_copied += state.copied
        trace.bytes_copied += state.bytes_copied
        heap.layout.old.top = state.new_top
        heap.bitmaps.clear()

    def _rebuild_cards_fast(self, trace: GCTrace) -> None:
        heap = self.heap
        card_table = heap.card_table
        card_table.clear()
        old = heap.layout.old
        parsed = fast_kernels.parse_space(heap, old.start, old.top)
        if not len(parsed):
            return
        trace.residual("card-rebuild",
                       RESIDUAL_COSTS["card_clean"] * len(parsed))
        not_filler = ((parsed.kids != heap.filler_klass.klass_id)
                      & (parsed.kids
                         != heap.filler_object_klass.klass_id))
        keep = np.flatnonzero(not_filler)
        if not keep.shape[0]:
            return
        batch = fast_kernels.gather_ref_slots(
            heap, parsed.addrs[keep], parsed.kids[keep],
            parsed.lengths[keep])
        layout = heap.layout
        young = ((batch.targets != 0)
                 & (batch.targets >= layout.eden.start)
                 & (batch.targets < layout.survivor_b.end))
        card_table.dirty_slots(batch.slots[np.flatnonzero(young)])
