"""Primitive traces: what a GC run looked like, platform-independently.

Collectors record every invocation of the four offloadable primitives
(Search, Copy, Scan&Push, Bitmap Count) into a :class:`GCTrace` with
real addresses and sizes, and accumulate the *residual* work — pops,
mark checks, allocation, linked-list walks — as per-phase instruction
and byte counts (the paper explicitly keeps those on the host,
Sec. 3.3).  The timing layer replays a :class:`GCTrace` on a platform
model to produce durations, bandwidth and energy.

A trace keeps its events as columns.  Each recording method appends one
row tuple in :data:`EVENT_DTYPE` field order and interns the phase
name (:meth:`GCTrace.append_columns` appends a whole block of one
phase's rows, as a native kernel returns them); sealing the trace
(:func:`repro.gcalgo.columnar.compile_trace`, which the first read of
:attr:`GCTrace.events` runs) turns the rows into one structured array
and drops them.  Phase structure is recovered as
*runs* of consecutive events with the same phase id.
:meth:`GCTrace.iter_events` is the one place a trace builds per-event
:class:`TraceEvent` objects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np


class Primitive(enum.Enum):
    """The offloadable GC primitives (Sec. 3.3)."""

    SEARCH = "search"
    COPY = "copy"
    SCAN_PUSH = "scan_push"
    BITMAP_COUNT = "bitmap_count"


#: Offload-request type encodings used in the 4-bit packet field.
PRIMITIVE_TYPE_CODES = {
    Primitive.COPY: 0x1,
    Primitive.SEARCH: 0x2,
    Primitive.SCAN_PUSH: 0x3,
    Primitive.BITMAP_COUNT: 0x4,
}

#: Primitive decoding (the packet type codes double as column codes).
CODE_TO_PRIMITIVE: Dict[int, Primitive] = {
    code: primitive for primitive, code in PRIMITIVE_TYPE_CODES.items()
}

_COPY, _SEARCH, _SCAN_PUSH, _BITMAP_COUNT = (
    PRIMITIVE_TYPE_CODES[primitive] for primitive in
    (Primitive.COPY, Primitive.SEARCH, Primitive.SCAN_PUSH,
     Primitive.BITMAP_COUNT))

#: ``bits_cached`` is Optional on a :class:`TraceEvent`; the column
#: encodes "no cache hit" as -1 (real values are bit counts, never
#: negative).
NO_BITS_CACHED = -1

EVENT_DTYPE = np.dtype([
    ("prim", np.uint8),        # PRIMITIVE_TYPE_CODES value
    ("phase", np.uint16),      # index into GCTrace.phase_names
    ("src", np.int64),
    ("dst", np.int64),
    ("size_bytes", np.int64),
    ("refs", np.int64),
    ("pushes", np.int64),
    ("bits", np.int64),
    ("bits_cached", np.int64),  # NO_BITS_CACHED encodes None
    ("found", np.uint8),
])

#: Run-stats counters every trace carries.
STAT_FIELDS = ("objects_visited", "objects_copied", "bytes_copied",
               "objects_promoted", "bytes_freed")


@dataclass
class TraceEvent:
    """One offloadable primitive invocation.

    Field meaning depends on the primitive:

    * ``COPY`` — ``src``/``dst``/``size_bytes``;
    * ``SEARCH`` — ``src`` (range start), ``size_bytes`` (range length),
      ``found`` (early-exit hit);
    * ``SCAN_PUSH`` — ``src`` (object), ``refs`` (reference slots
      scanned), ``pushes`` (new objects pushed);
    * ``BITMAP_COUNT`` — ``src`` (bitmap range start address in heap
      terms), ``bits`` (range length in bitmap bits).
    """

    primitive: Primitive
    phase: str
    src: int = 0
    dst: int = 0
    size_bytes: int = 0
    refs: int = 0
    pushes: int = 0
    bits: int = 0
    #: for BITMAP_COUNT: bits the *software* baseline actually walks.
    #: HotSpot's ``live_words_in_range`` keeps a per-thread query cache
    #: (ParMarkBitMap), so a query extending the previous one in the
    #: same region only walks the delta — which is what the sequential
    #: compact-phase queries hit.  ``None`` means no cache hit (full
    #: range).  Charon always receives the full range; its bitmap cache
    #: captures the same locality in hardware.
    bits_cached: int = None
    found: bool = False


@dataclass
class ResidualWork:
    """Non-offloaded host work accumulated for one phase."""

    instructions: float = 0.0
    bytes_accessed: int = 0

    def add(self, instructions: float, bytes_accessed: int = 0) -> None:
        self.instructions += instructions
        self.bytes_accessed += bytes_accessed


class _PhaseIds(dict):
    """Phase name -> ``phase`` column id, interning a name the first
    time an event records it."""

    def __missing__(self, phase: str) -> int:
        pid = self[phase] = len(self)
        return pid


class GCTrace:
    """The full record of one collection.

    ``events`` is a structured array of :data:`EVENT_DTYPE` and
    ``phase_names`` interns the phase strings its ``phase`` column
    indexes into; reading either seals the trace, after which it records
    nothing more.  ``residuals`` is insertion-ordered (the replayers
    iterate it for residual-only phases).
    """

    def __init__(self, kind: str, heap_bytes: int = 0) -> None:
        if kind not in ("minor", "major", "sweep", "g1", "concurrent"):
            raise ValueError(f"unknown GC kind {kind!r}")
        self.kind = kind
        self.heap_bytes = heap_bytes
        self.residuals: Dict[str, ResidualWork] = {}
        # Functional outcome summaries, filled by the collector.
        self.objects_visited = 0
        self.objects_copied = 0
        self.bytes_copied = 0
        self.objects_promoted = 0
        self.bytes_freed = 0
        #: recorded rows, ``(len(_rows) at append, EVENT_DTYPE array)``
        #: column blocks and interned phases until the trace is sealed
        #: (all None after).
        self._rows: Optional[list] = []
        self._blocks: Optional[List[Tuple[int, np.ndarray]]] = []
        self._phase_ids: Optional[_PhaseIds] = _PhaseIds()
        self._events: Optional[np.ndarray] = None
        self._phase_names: Tuple[str, ...] = ()
        self._phase_runs: Optional[List[Tuple[str, int, int]]] = None
        self._derived: Optional[Dict[str, np.ndarray]] = None

    # -- recording ---------------------------------------------------------

    def copy(self, phase: str, src: int, dst: int, size_bytes: int) -> None:
        self._rows.append((_COPY, self._phase_ids[phase], src, dst,
                           size_bytes, 0, 0, 0, NO_BITS_CACHED, 0))

    def search(self, phase: str, start: int, length: int,
               found: bool) -> None:
        self._rows.append((_SEARCH, self._phase_ids[phase], start, 0,
                           length, 0, 0, 0, NO_BITS_CACHED,
                           1 if found else 0))

    def scan_push(self, phase: str, obj: int, refs: int,
                  pushes: int) -> None:
        self._rows.append((_SCAN_PUSH, self._phase_ids[phase], obj, 0, 0,
                           refs, pushes, 0, NO_BITS_CACHED, 0))

    def bitmap_count(self, phase: str, range_start: int, bits: int,
                     bits_cached: int = None) -> None:
        self._rows.append((_BITMAP_COUNT, self._phase_ids[phase],
                           range_start, 0, 0, 0, 0, bits,
                           NO_BITS_CACHED if bits_cached is None
                           else bits_cached, 0))

    def append_columns(self, phase: str, **columns: np.ndarray) -> None:
        """Append rows of one phase given as equal-length columns named
        after :data:`EVENT_DTYPE` fields (``bits_cached`` defaults to
        :data:`NO_BITS_CACHED`, the others to 0).  No rows, no phase
        interned."""
        count = len(next(iter(columns.values())))
        if not count:
            return
        block = np.zeros(count, dtype=EVENT_DTYPE)
        block["bits_cached"] = NO_BITS_CACHED
        for name, column in columns.items():
            block[name] = column
        block["phase"] = self._phase_ids[phase]
        self._blocks.append((len(self._rows), block))

    def residual(self, phase: str, instructions: float,
                 bytes_accessed: int = 0) -> None:
        self.residuals.setdefault(phase, ResidualWork()).add(
            instructions, bytes_accessed)

    # -- the columns -------------------------------------------------------

    def _seal(self, events: np.ndarray, phase_names: Tuple[str, ...]
              ) -> None:
        """Install the columns and drop the recording state (called by
        :mod:`repro.gcalgo.columnar` only)."""
        self._events = events
        self._phase_names = phase_names
        self._rows = self._blocks = self._phase_ids = None

    def _sealed(self) -> "GCTrace":
        if self._rows is not None:
            from repro.gcalgo import columnar
            columnar.compile_trace(self)
        return self

    @property
    def events(self) -> np.ndarray:
        return self._sealed()._events

    @property
    def phase_names(self) -> Tuple[str, ...]:
        return self._sealed()._phase_names

    def iter_events(self) -> Iterator[TraceEvent]:
        """The events as :class:`TraceEvent` objects, in order.

        The one place a trace builds per-event objects — for the
        event-by-event replayer, the fuzz oracle and the unit tests;
        every fast path reads the columns.
        """
        names = self.phase_names
        for prim, phase, src, dst, size, refs, pushes, bits, cached, \
                found in self.events.tolist():
            yield TraceEvent(
                CODE_TO_PRIMITIVE[prim], names[phase], src, dst, size,
                refs, pushes, bits,
                None if cached == NO_BITS_CACHED else cached, bool(found))

    def phase_runs(self) -> List[Tuple[str, int, int]]:
        """Maximal runs of consecutive same-phase events.

        Returns ``(phase_name, start, stop)`` triples covering
        ``events[start:stop]``, in order — the segmentation both
        replayers walk.  Pure in the events, so it is computed once and
        memoized (callers must not mutate the returned list).
        """
        runs = self._phase_runs
        if runs is None:
            ids = self.events["phase"]
            if len(ids) == 0:
                runs = []
            else:
                cuts = (np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist()
                bounds = [0] + cuts + [len(ids)]
                names = self.phase_names
                runs = [(names[int(ids[lo])], lo, hi)
                        for lo, hi in zip(bounds[:-1], bounds[1:])]
            self._phase_runs = runs
        return runs

    def derived_columns(self) -> Dict[str, np.ndarray]:
        """Config-independent per-event columns the replay kernels share.

        Everything here is a pure function of the recorded events, so it
        is computed once per trace and memoized (the trace cache hands
        the same trace to every platform's replayer).  Platform-dependent
        quantities (service times, cache models, energy) stay in the
        kernels.
        """
        derived = self._derived
        if derived is None:
            ev = self.events
            prim = ev["prim"]
            size = ev["size_bytes"]
            found = ev["found"] != 0
            cached = ev["bits_cached"]
            derived = {
                "is_copy": prim == _COPY,
                "is_search": prim == _SEARCH,
                "is_scan": prim == _SCAN_PUSH,
                "is_bitmap": prim == _BITMAP_COUNT,
                "found": found,
                # Bytes a search examines before clamping: half the range
                # on a hit, the full range on a miss (host and device
                # models clamp to different minima).
                "search_examined": np.where(found, size // 2, size),
                # Bitmap bits with the software-cache shortcut applied
                # (NO_BITS_CACHED means the count really ran).
                "eff_bits": np.where(cached == NO_BITS_CACHED,
                                     ev["bits"], cached),
            }
            self._derived = derived
        return derived

    # -- summaries ------------------------------------------------------------

    def count(self, primitive: Primitive) -> int:
        return int(np.count_nonzero(
            self.events["prim"] == PRIMITIVE_TYPE_CODES[primitive]))

    def summary(self) -> Dict[str, float]:
        """Compact description used by reports and tests."""
        ev = self.events
        prim = ev["prim"]
        copies = prim == _COPY
        scans = prim == _SCAN_PUSH
        bitmaps = prim == _BITMAP_COUNT
        return {
            "kind": self.kind,
            "events": len(ev),
            "copy_events": int(copies.sum()),
            "copy_bytes": int(ev["size_bytes"][copies].sum()),
            "search_events": int((prim == _SEARCH).sum()),
            "scan_push_events": int(scans.sum()),
            "scan_refs": int(ev["refs"][scans].sum()),
            "bitmap_events": int(bitmaps.sum()),
            "bitmap_bits": int(ev["bits"][bitmaps].sum()),
            "residual_instructions": sum(
                work.instructions for work in self.residuals.values()),
            "objects_copied": self.objects_copied,
            "bytes_copied": self.bytes_copied,
            "objects_promoted": self.objects_promoted,
        }


#: Rough host instruction costs of the residual operations, used by the
#: collectors when they record residual work.  These are small constant
#: code sequences in HotSpot (pop, null/forward checks, bump allocation,
#: stack maintenance); the exact values only shift the non-offloadable
#: fraction slightly and are held here in one place.
RESIDUAL_COSTS = {
    "pop": 12.0,           # pop + depth/termination checks
    "check_mark": 8.0,     # load mark word, decode, test
    "forward_update": 10.0, # store updated reference + barrier
    "allocate": 20.0,       # PLAB bump + overflow/refill test
    "push": 8.0,
    "card_clean": 4.0,
    "card_lookup": 25.0,   # block-offset-table walk per dirty card
    "summary_region": 20.0,
    "sweep_step": 14.0,
    "root": 10.0,
    # Reference-free objects (type arrays) have a no-op iterate
    # strategy: the collector only dispatches on the klass.
    "scan_trivial": 6.0,
    # SATB write barrier: read the old value, test for null, append to
    # the thread-local log buffer (G1/Shenandoah's pre-write barrier).
    "barrier_log": 10.0,
}

#: Fixed per-collection host work that never offloads: VM operation
#: setup, thread root scanning (stacks, JNI handles, string table),
#: parallel-task termination, adaptive-sizing policy.  Fig. 4 folds all
#: of this into the "other" slice, which averages ~25% of GC time.
#: A concurrent cycle pays two short safepoints (initial/final mark)
#: instead of one long one, but the combined VM-operation work lands
#: between the minor and major figures.
FIXED_GC_INSTRUCTIONS = {"minor": 60_000.0, "major": 100_000.0,
                         "sweep": 60_000.0, "concurrent": 80_000.0}

#: Phase names whose SCAN_PUSH events are *marking* scans (cold
#: mark-bitmap checks, two dependent accesses per slot) as opposed to
#: evacuation/remset scans.  Concurrent-mark traces suffix their
#: per-pause phases with ``-<n>`` so the replayers' per-phase-run
#: residual accounting stays exact; the prefixes cover those.
_MARKING_PHASE_PREFIXES = ("concurrent-mark", "final-mark", "barrier")


def is_marking_phase(name: str) -> bool:
    """True when SCAN_PUSH events in phase ``name`` are marking scans."""
    return name == "mark" or name.startswith(_MARKING_PHASE_PREFIXES)

#: HotSpot scans large object arrays in chunks of this many elements
#: (ParGCArrayScanChunk's order of magnitude), so one Scan&Push
#: invocation — host or offloaded — never covers an unbounded array.
ARRAY_SCAN_CHUNK = 50


def chunk_refs(refs: int, pushes: int):
    """Split an object's reference scan into array-scan chunks.

    Yields ``(chunk_refs, chunk_pushes)`` pairs; pushes are spread
    proportionally with the remainder on the first chunk.
    """
    if refs <= ARRAY_SCAN_CHUNK:
        yield refs, pushes
        return
    full, tail = divmod(refs, ARRAY_SCAN_CHUNK)
    counts = [ARRAY_SCAN_CHUNK] * full + ([tail] if tail else [])
    # Greedy front-loading: pushes never exceed refs, so every push is
    # placed, and the per-chunk bound chunk_pushes <= chunk_refs holds.
    # (Where pushes land within the array does not affect timing.)
    remaining = pushes
    for count in counts:
        share = min(count, remaining)
        yield count, share
        remaining -= share


def chunk_columns(objs: np.ndarray, refs: np.ndarray,
                  pushes: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`chunk_refs` over a batch of objects with at least one
    reference slot each: the ``(src, refs, pushes)`` columns of their
    Scan&Push rows, object by object, chunk by chunk.  Front-loading
    fills every chunk before the first one short of pushes, so chunk
    ``k`` gets ``min(its refs, max(0, pushes - k * ARRAY_SCAN_CHUNK))``.
    """
    chunks = (refs + ARRAY_SCAN_CHUNK - 1) // ARRAY_SCAN_CHUNK
    owner = np.repeat(np.arange(len(objs)), chunks)
    first = np.cumsum(chunks) - chunks
    lo = (np.arange(len(owner)) - first[owner]) * ARRAY_SCAN_CHUNK
    counts = np.minimum(refs[owner] - lo, ARRAY_SCAN_CHUNK)
    shares = np.clip(pushes[owner] - lo, 0, counts)
    return objs[owner], counts, shares
