"""The reachability oracle: live-graph snapshots and trace laws.

A :class:`LiveSnapshot` is an *address-free* canonical form of
everything a collection must preserve: which objects are reachable from
the roots, their klasses and array lengths, their primitive field
values and array payloads, and the full reference topology.  Objects
get canonical ids in BFS discovery order (roots first, in index order;
reference slots in layout order), so two snapshots of the same logical
graph compare equal no matter where the collector moved the objects —
before vs. after one collection, or across entirely different
collectors.

On top of the graph checks, :func:`check_trace_conservation` asserts
the ``GCTrace`` bookkeeping laws against the independent pre-GC
snapshot:

* copy totals are internally consistent and never exceed the live
  bytes that existed before the collection;
* Scan&Push totals match the out-degree sums of the traversed graph
  (exactly for marking collectors, which visit precisely the reachable
  set; as a lower bound for the scavenger, which may additionally
  evacuate young objects kept alive by *dead* old objects on dirty
  cards);
* per-event bounds: pushes never exceed refs, chunks respect the
  array-scan limit, bitmap query caches never exceed the query.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import HeapError, InvalidObjectError, OracleViolation
from repro.gcalgo.trace import (ARRAY_SCAN_CHUNK, GCTrace, Primitive,
                                is_marking_phase)
from repro.heap.heap import JavaHeap
from repro.heap.klass import KlassKind
from repro.units import WORD


@dataclass(frozen=True)
class LiveNode:
    """One reachable object in canonical (address-free) form."""

    klass_name: str
    length: Optional[int]
    refs: Tuple[Optional[int], ...]  #: canonical ids, None = null
    prim_words: Tuple[int, ...]  #: non-reference 64-bit field values
    payload_digest: str  #: sha256 of a type array's payload ("" else)


@dataclass(frozen=True)
class LiveSnapshot:
    """The canonical live graph plus side data for trace checks."""

    root_map: Tuple[Optional[int], ...]  #: root index -> canonical id
    nodes: Tuple[LiveNode, ...]
    total_bytes: int  #: sum of live object sizes
    total_ref_slots: int  #: out-degree sum (slots, nulls included)
    young_ref_slots: int  #: out-degree sum over young-gen objects
    young_count: int  #: reachable objects in the young generation
    #: bytes allocated in the young spaces (live or dead) at snapshot
    #: time — the upper bound on what a scavenge can copy.
    young_used_bytes: int = 0

    def fingerprint(self) -> str:
        """Content hash of the canonical graph (side data excluded)."""
        hasher = hashlib.sha256()
        hasher.update(repr(self.root_map).encode())
        for node in self.nodes:
            hasher.update(repr(node).encode())
        return hasher.hexdigest()


def snapshot_live(heap: JavaHeap) -> LiveSnapshot:
    """BFS the reachable graph into canonical form.

    Raises :class:`OracleViolation` when the traversal hits a
    non-decodable object — a dangling reference *is* the kind of bug
    the oracle exists to catch.
    """
    ids = {}
    order: List[int] = []
    queue: List[int] = []
    for root in heap.roots:
        if root and root not in ids:
            ids[root] = len(order)
            order.append(root)
            queue.append(root)
    raw_refs: List[List[int]] = []
    cursor = 0
    while cursor < len(queue):
        addr = queue[cursor]
        cursor += 1
        try:
            view = heap.object_at(addr)
            targets = [heap.load_ref(slot)
                       for slot in view.reference_slots()]
        except (InvalidObjectError, HeapError) as error:
            raise OracleViolation(
                f"live traversal hit a bad object at {addr:#x}: "
                f"{error}") from error
        raw_refs.append(targets)
        for target in targets:
            if target and target not in ids:
                ids[target] = len(order)
                order.append(target)
                queue.append(target)

    nodes: List[LiveNode] = []
    total_bytes = total_ref_slots = young_ref_slots = young_count = 0
    for addr, targets in zip(order, raw_refs):
        view = heap.object_at(addr)
        klass = view.klass
        payload_digest = ""
        prim_words: Tuple[int, ...] = ()
        if klass.kind is KlassKind.TYPE_ARRAY:
            payload_digest = hashlib.sha256(
                heap.read_payload(view)).hexdigest()
        elif not klass.kind.is_array:
            ref_offsets = set(klass.reference_offsets())
            prim_words = tuple(
                heap.read_u64(addr + off)
                for off in range(16, 16 + klass.field_words * WORD,
                                 WORD)
                if off not in ref_offsets)
        refs = tuple(ids[t] if t else None for t in targets)
        nodes.append(LiveNode(klass.name, view.length, refs,
                              prim_words, payload_digest))
        total_bytes += view.size_bytes
        total_ref_slots += len(targets)
        if heap.layout.in_young(addr):
            young_count += 1
            young_ref_slots += len(targets)
    root_map = tuple(ids[r] if r else None for r in heap.roots)
    young_used = (heap.layout.eden.used
                  + heap.layout.survivor_from.used
                  + heap.layout.survivor_to.used)
    return LiveSnapshot(root_map=root_map, nodes=tuple(nodes),
                        total_bytes=total_bytes,
                        total_ref_slots=total_ref_slots,
                        young_ref_slots=young_ref_slots,
                        young_count=young_count,
                        young_used_bytes=young_used)


def assert_isomorphic(before: LiveSnapshot, after: LiveSnapshot,
                      context: str = "") -> None:
    """Raise :class:`OracleViolation` unless the graphs are identical.

    Canonicalization makes isomorphism a plain equality check; the
    error pinpoints the first diverging root or node for debugging.
    """
    prefix = f"{context}: " if context else ""
    if before.root_map != after.root_map:
        for index, (b, a) in enumerate(zip(before.root_map,
                                           after.root_map)):
            if b != a:
                raise OracleViolation(
                    f"{prefix}root[{index}] maps to node {b} before "
                    f"the collection but {a} after")
        raise OracleViolation(
            f"{prefix}root table length changed "
            f"({len(before.root_map)} -> {len(after.root_map)})")
    if len(before.nodes) != len(after.nodes):
        raise OracleViolation(
            f"{prefix}live object count changed: "
            f"{len(before.nodes)} -> {len(after.nodes)}")
    for index, (b, a) in enumerate(zip(before.nodes, after.nodes)):
        if b != a:
            raise OracleViolation(
                f"{prefix}live node {index} changed across the "
                f"collection:\n  before: {b}\n  after:  {a}")


def check_trace_conservation(trace: GCTrace,
                             before: LiveSnapshot) -> None:
    """Assert the trace's bookkeeping laws against the pre-GC graph."""
    kind = trace.kind
    of = {primitive: [] for primitive in Primitive}
    for event in trace.iter_events():
        of[event.primitive].append(event)
    copy_events = of[Primitive.COPY]
    copied_bytes = sum(e.size_bytes for e in copy_events)
    if trace.bytes_copied != copied_bytes:
        raise OracleViolation(
            f"{kind}: bytes_copied={trace.bytes_copied} but Copy "
            f"events total {copied_bytes}")
    if trace.objects_copied != len(copy_events):
        raise OracleViolation(
            f"{kind}: objects_copied={trace.objects_copied} but "
            f"{len(copy_events)} Copy events recorded")
    if kind == "minor":
        # The scavenger copies only young objects, but possibly *more*
        # than the reachable ones: dead old objects on dirty cards keep
        # extra young objects alive.  Bound by young bytes allocated.
        if trace.bytes_copied > before.young_used_bytes:
            raise OracleViolation(
                f"minor: copied {trace.bytes_copied} bytes but the "
                f"young generation held only "
                f"{before.young_used_bytes}")
    elif kind in ("sweep", "concurrent"):
        # Mark-sweep and the concurrent cycle never relocate anything.
        if copy_events:
            raise OracleViolation(
                f"{kind}: recorded {len(copy_events)} Copy events; "
                f"a non-moving collector must copy nothing")
    elif trace.bytes_copied > before.total_bytes:
        # Compacting collectors relocate only the live (marked) set.
        raise OracleViolation(
            f"{kind}: copied {trace.bytes_copied} bytes but only "
            f"{before.total_bytes} live bytes existed before the GC")
    if trace.objects_promoted > trace.objects_copied:
        raise OracleViolation(
            f"{kind}: promoted {trace.objects_promoted} objects but "
            f"copied only {trace.objects_copied}")
    if trace.bytes_freed < 0:
        raise OracleViolation(f"{kind}: negative bytes_freed "
                              f"{trace.bytes_freed}")
    for event in of[Primitive.SCAN_PUSH]:
        if not 0 <= event.pushes <= event.refs <= ARRAY_SCAN_CHUNK:
            raise OracleViolation(
                f"{kind}: Scan&Push event refs={event.refs} "
                f"pushes={event.pushes} violates "
                f"0 <= pushes <= refs <= {ARRAY_SCAN_CHUNK}")
    for event in of[Primitive.BITMAP_COUNT]:
        if event.bits < 0:
            raise OracleViolation(f"{kind}: negative bitmap query")
        if event.bits_cached is not None \
                and not 0 <= event.bits_cached <= event.bits:
            raise OracleViolation(
                f"{kind}: bitmap cache walk {event.bits_cached} "
                f"exceeds query of {event.bits} bits")
    for event in of[Primitive.SEARCH]:
        if event.size_bytes <= 0:
            raise OracleViolation(f"{kind}: empty Search block")

    mark_refs = sum(e.refs for e in of[Primitive.SCAN_PUSH]
                    if is_marking_phase(e.phase))
    if kind in ("major", "sweep", "g1"):
        # Stop-the-world marking traverses exactly the reachable set,
        # so Scan&Push ref totals must equal the snapshot's out-degree
        # sum and every live object must be visited exactly once.
        if trace.objects_visited != len(before.nodes):
            raise OracleViolation(
                f"{kind}: marked {trace.objects_visited} objects but "
                f"the live graph holds {len(before.nodes)}")
        if mark_refs != before.total_ref_slots:
            raise OracleViolation(
                f"{kind}: mark-phase Scan&Push covered {mark_refs} "
                f"reference slots, live out-degree sum is "
                f"{before.total_ref_slots}")
    elif kind == "concurrent":
        # SATB marking is *relaxed*: everything reachable when the
        # final-mark pause runs (``before``) must have been visited,
        # but floating garbage — live at the snapshot, dead by
        # final-mark — is legitimately visited too.  Hence lower
        # bounds where the STW collectors get equalities.
        if trace.objects_visited < len(before.nodes):
            raise OracleViolation(
                f"concurrent: marked {trace.objects_visited} objects "
                f"but the live graph holds {len(before.nodes)} — SATB "
                f"may over-mark, never under-mark")
        if mark_refs < before.total_ref_slots:
            raise OracleViolation(
                f"concurrent: marking Scan&Push covered {mark_refs} "
                f"reference slots, live out-degree sum is "
                f"{before.total_ref_slots}")
    if kind == "minor":
        evac_refs = sum(e.refs for e in of[Primitive.SCAN_PUSH]
                        if e.phase == "evacuate")
        # The scavenger evacuates every reachable young object, plus
        # possibly young objects kept alive only by dead old objects on
        # dirty cards — hence lower bounds, not equalities.
        if trace.objects_copied < before.young_count:
            raise OracleViolation(
                f"minor: evacuated {trace.objects_copied} objects but "
                f"{before.young_count} reachable young objects "
                f"existed")
        if evac_refs < before.young_ref_slots:
            raise OracleViolation(
                f"minor: evacuation Scan&Push covered {evac_refs} "
                f"reference slots, reachable young out-degree sum is "
                f"{before.young_ref_slots}")


class GCOracle:
    """Hook bundle: snapshot before each GC, re-verify after.

    Install :meth:`before` / :meth:`after` as the driver's (or the G1
    collector's) pre/post hooks.  Collections may nest — the scavenger
    runs a full GC first when promotion is unsafe — so snapshots live
    on a stack.
    """

    def __init__(self, verify_spaces: bool = True,
                 post_verify: Optional[Callable[[JavaHeap, str],
                                                None]] = None) -> None:
        #: run the structural heap verifier after every collection
        #: (valid only for the classic generational layout; G1 lays its
        #: regions over the whole range, so its backend disables this).
        self.verify_spaces = verify_spaces
        self.post_verify = post_verify
        self._stack: List[LiveSnapshot] = []
        self.collections = 0
        self.last_snapshot: Optional[LiveSnapshot] = None

    def before(self, heap: JavaHeap, kind: str) -> None:
        self._stack.append(snapshot_live(heap))

    def after(self, heap: JavaHeap, kind: str,
              trace: Optional[GCTrace] = None) -> None:
        if not self._stack:
            raise OracleViolation("post-GC hook fired without a "
                                  "matching pre-GC snapshot")
        before = self._stack.pop()
        after = snapshot_live(heap)
        assert_isomorphic(before, after, context=f"{kind} GC")
        if trace is not None:
            check_trace_conservation(trace, before)
        if kind == "major" and heap.bitmaps.beg.any():
            raise OracleViolation(
                "major GC left stale bits in the mark bitmap")
        if self.verify_spaces:
            from repro.heap.verifier import verify_heap
            # The card table is exact right after minor (re-dirtied
            # through the write barrier) and major (rebuilt) GCs; the
            # sweeper never touches cards.  Young-space reference
            # checks are only valid after a scavenge — mark-compact
            # and sweep leave dead young objects behind whose refs
            # were never adjusted (see verify_space).
            try:
                verify_heap(heap,
                            strict_cards=kind in ("minor", "major"),
                            young_refs=(kind == "minor"))
            except HeapError as error:
                raise OracleViolation(
                    f"{kind} GC left the heap structurally invalid: "
                    f"{error}") from error
        if self.post_verify is not None:
            self.post_verify(heap, kind)
        self.collections += 1
        self.last_snapshot = after


def reachable_addresses(heap: JavaHeap) -> set:
    """The root-reachable object addresses, as raw addresses.

    :func:`snapshot_live` canonicalizes addresses away so snapshots
    compare across moving collectors; the SATB laws are the opposite
    case — they talk about *identity over time* ("the objects live at
    the snapshot"), which only a non-moving collector makes meaningful,
    and which needs the addresses kept.
    """
    seen = set()
    queue: List[int] = []
    for root in heap.roots:
        if root and root not in seen:
            seen.add(root)
            queue.append(root)
    cursor = 0
    while cursor < len(queue):
        addr = queue[cursor]
        cursor += 1
        try:
            view = heap.object_at(addr)
            targets = [heap.load_ref(slot)
                       for slot in view.reference_slots()]
        except (InvalidObjectError, HeapError) as error:
            raise OracleViolation(
                f"live traversal hit a bad object at {addr:#x}: "
                f"{error}") from error
        for target in targets:
            if target and target not in seen:
                seen.add(target)
                queue.append(target)
    return seen


class SATBOracle:
    """The snapshot-at-the-beginning marking laws, checked per cycle.

    Install :meth:`cycle_start` / :meth:`cycle_end` as a
    :class:`~repro.gcalgo.concurrent_mark.ConcurrentMarkGC`'s cycle
    hooks.  At the initial-mark pause it records the reachable address
    set L0; after the final-mark drain it asserts, against the
    collector's own marking state:

    * **weak-reachability safety** — everything reachable *now* is
      marked: the sweep about to run can never free a live object;
    * **no resurrection** — everything marked was either reachable at
      the snapshot or allocated during the cycle: marking invents
      nothing (the complement bounds floating garbage);
    * **drain completeness** — every reference the write barrier
      logged was drained, and the buffer is empty: no logged edge can
      be dropped on the floor between pauses.
    """

    def __init__(self) -> None:
        self._snapshot: Optional[set] = None
        self.cycles = 0

    def cycle_start(self, heap: JavaHeap, collector) -> None:
        self._snapshot = reachable_addresses(heap)

    def cycle_end(self, heap: JavaHeap, collector) -> None:
        if self._snapshot is None:
            raise OracleViolation("SATB cycle-end hook fired without "
                                  "a matching cycle start")
        snapshot = self._snapshot
        self._snapshot = None
        reachable = reachable_addresses(heap)
        unmarked = reachable - collector.marked
        if unmarked:
            addr = min(unmarked)
            raise OracleViolation(
                f"SATB weak-reachability violation: {len(unmarked)} "
                f"reachable objects unmarked at final-mark (first at "
                f"{addr:#x}) — the sweep would free live objects")
        phantom = collector.marked - snapshot \
            - collector.allocated_during_cycle
        if phantom:
            addr = min(phantom)
            raise OracleViolation(
                f"SATB resurrection: {len(phantom)} marked objects "
                f"(first at {addr:#x}) were neither live at the "
                f"snapshot nor allocated during the cycle")
        if collector.satb_drained != collector.satb_logged:
            raise OracleViolation(
                f"SATB drain incomplete: barrier logged "
                f"{collector.satb_logged} references but only "
                f"{collector.satb_drained} were drained")
        if collector.satb_buffer:
            raise OracleViolation(
                f"SATB buffer still holds {len(collector.satb_buffer)} "
                f"entries after the final-mark drain")
        self.cycles += 1
