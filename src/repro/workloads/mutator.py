"""The mutator driver: allocation, GC triggering, and stable handles.

:class:`MutatorDriver` plays the role of the JVM runtime around the
collectors:

* allocation goes to Eden; objects larger than a quarter of Eden go
  straight to the Old generation (HotSpot's humongous-allocation path);
* an allocation failure triggers a MinorGC — preceded by a MajorGC when
  the scavenger's promotion-safety check fails — and is retried; a
  retry failure after a full collection raises
  :class:`~repro.errors.OutOfMemoryError`, which the heap-sizing sweeps
  (Fig. 2) catch;
* every collection's trace is recorded for later replay.

Because collections move objects, workload code never holds raw
addresses across an allocation; it holds :class:`Handle`\\ s — root-table
slots the collectors update in place, exactly like JNI global refs.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.errors import OutOfMemoryError
from repro.gcalgo import columnar
from repro.gcalgo.mark_compact import MajorGC
from repro.gcalgo.mark_sweep import MarkSweepGC
from repro.gcalgo.parallel_scavenge import MinorGC
from repro.gcalgo.trace import GCTrace
from repro.heap import fast_kernels
from repro.heap.heap import JavaHeap
from repro.heap.object_model import ObjectView
from repro.units import align_up


class Handle:
    """A GC-stable object reference backed by a root-table slot."""

    def __init__(self, driver: "MutatorDriver", index: int) -> None:
        self._driver = driver
        self._index = index

    @property
    def addr(self) -> int:
        """The object's current address (collectors keep it fresh)."""
        return self._driver.heap.roots[self._index]

    def view(self) -> ObjectView:
        return self._driver.heap.object_at(self.addr)

    def set(self, addr: int) -> None:
        self._driver.heap.roots[self._index] = addr

    def release(self) -> None:
        """Drop the reference (the object may become garbage)."""
        self._driver.heap.roots[self._index] = 0


class WorkloadRun:
    """Everything a finished workload run produced.

    :attr:`traces` holds one sealed :class:`GCTrace` per collection:
    assigning or recording a trace seals it
    (:func:`~repro.gcalgo.columnar.compile_trace`), so a run keeps its
    events as columns only, whether it was captured or read from the
    trace cache.
    """

    def __init__(self, name: str, heap_bytes: int,
                 traces: Optional[List[GCTrace]] = None,
                 allocated_bytes: int = 0, allocated_objects: int = 0,
                 mutator_seconds: float = 0.0, minor_count: int = 0,
                 major_count: int = 0, sweep_count: int = 0) -> None:
        self.name = name
        self.heap_bytes = heap_bytes
        self.allocated_bytes = allocated_bytes
        self.allocated_objects = allocated_objects
        self.mutator_seconds = mutator_seconds
        self.minor_count = minor_count
        self.major_count = major_count
        self.sweep_count = sweep_count
        self.traces = traces or []

    @property
    def traces(self) -> List[GCTrace]:
        return self._traces

    @traces.setter
    def traces(self, traces: List[GCTrace]) -> None:
        self._traces = [columnar.compile_trace(trace) for trace in traces]

    def record(self, trace: GCTrace) -> None:
        """Append a just-collected trace, sealed."""
        self._traces.append(columnar.compile_trace(trace))

    @property
    def gc_count(self) -> int:
        return len(self._traces)


class MutatorDriver:
    """Allocation front-end that triggers and records collections."""

    #: objects larger than Eden/4 allocate directly in the old
    #: generation, as HotSpot does for humongous allocations.
    LARGE_OBJECT_EDEN_FRACTION = 4

    def __init__(self, heap: JavaHeap, run_name: str = "run",
                 verify_each_gc: bool = False) -> None:
        self.heap = heap
        self.run = WorkloadRun(name=run_name,
                               heap_bytes=heap.config.heap_bytes)
        self._free_roots: List[int] = []
        #: run the heap verifier after every collection (the
        #: -XX:+VerifyAfterGC analogue; slow, for debugging).
        self.verify_each_gc = verify_each_gc
        #: observers fired around *every* collection — explicit ones and
        #: the implicit allocation-failure ones alike.  The fuzzing
        #: oracle uses these to snapshot the live graph before a
        #: collection and re-check it afterwards.
        self.pre_gc_hooks: List[Callable[[JavaHeap, str], None]] = []
        self.post_gc_hooks: List[
            Callable[[JavaHeap, str, GCTrace], None]] = []
        #: fired at the top of every allocation — the driver's
        #: safepoint poll.  Concurrent collectors ride these to
        #: interleave bounded marking increments with mutator
        #: progress (see ConcurrentMarkGC.install_step_hook).
        self.step_hooks: List[Callable[[JavaHeap], None]] = []

    # -- handles ------------------------------------------------------------

    def handle(self, addr: int = 0) -> Handle:
        """Allocate a root-table slot holding ``addr``."""
        if self._free_roots:
            index = self._free_roots.pop()
            self.heap.roots[index] = addr
        else:
            index = len(self.heap.roots)
            self.heap.roots.append(addr)
        return Handle(self, index)

    def release(self, handle: Handle) -> None:
        handle.release()
        self._free_roots.append(handle._index)

    # -- allocation -----------------------------------------------------------

    def allocate(self, klass_name: str,
                 length: Optional[int] = None) -> ObjectView:
        """Allocate with GC-on-failure semantics.

        The returned view's address is valid only until the next
        allocation; stash it in a handle or a heap structure first.
        """
        for hook in self.step_hooks:
            hook(self.heap)
        heap = self.heap
        klass = heap.klasses.by_name(klass_name)
        size = align_up(klass.instance_bytes(length), 8)
        eden = heap.layout.eden
        large = size > eden.capacity // self.LARGE_OBJECT_EDEN_FRACTION
        space = heap.layout.old if large else None

        for attempt in range(3):
            try:
                view = heap.new_object(klass_name, length=length,
                                       space=space)
                self.run.allocated_bytes += size
                self.run.allocated_objects += 1
                return view
            except OutOfMemoryError:
                if attempt == 0:
                    if large:
                        self.major_gc()
                    else:
                        self.minor_gc()
                elif attempt == 1:
                    self.major_gc()
                else:
                    raise
        raise OutOfMemoryError("allocation failed after full GC")

    def shapes(self, klass_name: str, count: int,
               length: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """``(kids, lengths)`` columns of ``count`` objects of one
        shape, for :meth:`allocate_batch`."""
        kid = self.heap.klasses.by_name(klass_name).klass_id
        return (np.full(count, kid, dtype=np.int64),
                np.full(count, length, dtype=np.int64))

    @fast_kernels.mode_read_once()
    def allocate_batch(self, kids: np.ndarray, lengths: np.ndarray,
                       sink: Callable[[int, np.ndarray], None]) -> None:
        """Allocate objects of klass ids ``kids`` and lengths
        ``lengths`` (ignored for instances) in order, chunk by chunk.

        A chunk is the longest run of the objects still to allocate
        that fits in Eden's free tail: one bump reserves it and one
        :meth:`~repro.heap.heap.JavaHeap.format_object_run` formats it.
        The object after a chunk, and a large object, goes through
        :meth:`allocate` at its position, so collections happen exactly
        where ``len(kids)`` :meth:`allocate` calls would trigger them.
        After each chunk ``sink(first, addrs)`` receives the index of
        its first object and its addresses; it must make every store
        that follows those allocations in program order (anchoring
        them in handles or the heap) before it returns, because the
        next chunk may collect.  Then every collection sees the heap
        the per-object loop leaves.

        With :attr:`step_hooks` installed, or under the scalar heap
        kernels, every object goes through :meth:`allocate`.
        """
        heap = self.heap
        kids = np.asarray(kids, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)

        def one(index: int) -> None:
            klass = heap.klasses.by_id(int(kids[index]))
            view = self.allocate(klass.name,
                                 length=int(lengths[index])
                                 if klass.kind.is_array else None)
            sink(index, np.array([view.addr], dtype=np.int64))

        fast = fast_kernels.fast_enabled(heap)
        if fast and self.step_hooks:
            fast_kernels.record_fallback("alloc",
                                         "step hooks are installed")
            fast = False
        if not fast:
            for index in range(len(kids)):
                one(index)
            return
        kinds = fast_kernels.layouts_for(heap.klasses).kind_code
        known = (kids > 0) & (kids < kinds.shape[0])
        known[known] = kinds[kids[known]] >= 0
        if not known.all():
            heap.klasses.by_id(int(kids[~known][0]))
        sizes = fast_kernels.object_sizes(heap.klasses, kids, lengths)
        ends = np.cumsum(sizes)
        eden = heap.layout.eden
        # Each chunk stops before the next large object.
        large = np.flatnonzero(
            sizes > eden.capacity // self.LARGE_OBJECT_EDEN_FRACTION)
        limits = np.append(large, len(kids))
        index = 0
        while index < len(kids):
            done = int(ends[index - 1]) if index else 0
            stop = min(int(np.searchsorted(ends, done + eden.free,
                                           side="right")),
                       int(limits[np.searchsorted(limits, index)]))
            if stop == index:
                # A large object, or Eden's tail is full: the
                # per-object path collects where the plain loop would.
                one(index)
                index += 1
                continue
            total = int(ends[stop - 1]) - done
            fast_kernels.record_call("alloc", items=stop - index)
            addrs = heap.format_object_run(
                eden.allocate(total), kids[index:stop],
                lengths[index:stop])
            heap.allocated_objects += stop - index
            heap.allocated_bytes += total
            self.run.allocated_objects += stop - index
            self.run.allocated_bytes += total
            sink(index, addrs)
            index = stop

    # -- collections ----------------------------------------------------------------

    def minor_gc(self) -> GCTrace:
        """Scavenge, preceded by a full GC if promotion is unsafe.

        When even a full collection cannot guarantee a safe scavenge,
        the heap is genuinely too small: raise OutOfMemoryError, which
        the Fig. 2 heap-sizing sweeps rely on.
        """
        if not MinorGC(self.heap).promotion_safe():
            self.major_gc()
            if not MinorGC(self.heap).promotion_safe():
                raise OutOfMemoryError(
                    "old generation cannot absorb a worst-case "
                    "promotion even after a full GC; heap too small")
        return self._collect("minor")

    def major_gc(self) -> GCTrace:
        return self._collect("major")

    def sweep_gc(self) -> GCTrace:
        """A CMS-style mark-sweep over the old generation.

        Sweeping reclaims old-generation garbage into filler chunks but
        does not lower the bump pointer; a genuinely full old space
        still falls back to :meth:`major_gc` through the allocation
        path.
        """
        return self._collect("sweep")

    @fast_kernels.mode_read_once()
    def _collect(self, kind: str) -> GCTrace:
        for hook in self.pre_gc_hooks:
            hook(self.heap, kind)
        if kind == "minor":
            trace = MinorGC(self.heap).collect()
            self.run.minor_count += 1
        elif kind == "major":
            trace = MajorGC(self.heap).collect()
            self.run.major_count += 1
        else:
            trace = MarkSweepGC(self.heap).collect()
            self.run.sweep_count += 1
        self.run.record(trace)
        self._maybe_verify()
        for hook in self.post_gc_hooks:
            hook(self.heap, kind, trace)
        return trace

    def _maybe_verify(self) -> None:
        if self.verify_each_gc:
            from repro.heap.verifier import verify_heap
            verify_heap(self.heap)

    # -- mutator time ------------------------------------------------------------------

    #: Useful-work proxy: allocation throughput of the whole (8-core)
    #: mutator side -- big-data frameworks allocate from every worker
    #: thread, ~1.25 GB/s per core; the per-workload compute term comes
    #: on top.  Calibrated so GC overhead at 2x the minimum heap lands
    #: in the ~15% range the paper's Fig. 2 reports.
    ALLOCATION_RATE = 10e9  # bytes/second (all mutator threads)

    def finish(self, compute_seconds: float = 0.0) -> WorkloadRun:
        """Close out the run and compute the mutator-time proxy."""
        self.run.mutator_seconds = (
            self.run.allocated_bytes / self.ALLOCATION_RATE
            + compute_seconds)
        return self.run
