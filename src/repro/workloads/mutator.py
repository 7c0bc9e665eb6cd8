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

from typing import Callable, List, Optional

from repro.errors import OutOfMemoryError
from repro.gcalgo.columnar import CompiledTrace, compile_traces
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

    The columnar :attr:`compiled` list is the run's one in-memory trace
    form: a trace-cache hit builds the run from the columns alone, and a
    captured run compiles once, on the first read after capture ends.
    :attr:`traces` — the per-event objects that only the event-by-event
    oracle, the fuzzer and the JSON codec read — materialises from the
    columns on first access and is kept.
    """

    def __init__(self, name: str, heap_bytes: int,
                 traces: Optional[List[GCTrace]] = None,
                 allocated_bytes: int = 0, allocated_objects: int = 0,
                 mutator_seconds: float = 0.0, minor_count: int = 0,
                 major_count: int = 0, sweep_count: int = 0,
                 compiled: Optional[List[CompiledTrace]] = None) -> None:
        self.name = name
        self.heap_bytes = heap_bytes
        self.allocated_bytes = allocated_bytes
        self.allocated_objects = allocated_objects
        self.mutator_seconds = mutator_seconds
        self.minor_count = minor_count
        self.major_count = major_count
        self.sweep_count = sweep_count
        self._compiled = compiled
        self._traces = (list(traces) if traces is not None
                        else None if compiled is not None else [])

    @property
    def traces(self) -> List[GCTrace]:
        if self._traces is None:
            self._traces = [trace.to_trace() for trace in self._compiled]
        return self._traces

    @traces.setter
    def traces(self, traces: List[GCTrace]) -> None:
        self._traces = list(traces)
        self._compiled = None

    @property
    def compiled(self) -> List[CompiledTrace]:
        if self._compiled is None:
            self._compiled = compile_traces(self._traces)
        return self._compiled

    def record(self, trace: GCTrace) -> None:
        """Append a just-collected trace (drops any compiled form)."""
        self.traces.append(trace)
        self._compiled = None

    @property
    def gc_count(self) -> int:
        return len(self._traces if self._traces is not None
                   else self._compiled)


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

    def allocate_batch(self, klass_name: str, count: int,
                       length: Optional[int] = None,
                       sink: Optional[Callable[[List[int]], None]]
                       = None) -> int:
        """Allocate ``count`` identical objects with chunked bumps.

        Each GC-free chunk reserves its objects with one Eden bump and
        formats them with one
        :meth:`~repro.heap.heap.JavaHeap.format_object_run` — byte- and
        trigger-identical to ``count`` :meth:`allocate` calls (a
        collection happens exactly when Eden cannot fit the next
        object, between chunks).  ``sink`` receives each chunk's
        addresses *before* the next chunk can trigger a collection, so
        it must anchor them (handles or heap stores) before returning.
        """
        if count <= 0:
            return 0
        heap = self.heap
        klass = heap.klasses.by_name(klass_name)
        size = align_up(klass.instance_bytes(length), 8)
        eden = heap.layout.eden
        large = size > eden.capacity // self.LARGE_OBJECT_EDEN_FRACTION
        if large or not fast_kernels.fast_enabled(heap):
            for _ in range(count):
                view = self.allocate(klass_name, length=length)
                if sink is not None:
                    sink([view.addr])
            return count
        remaining = count
        while remaining:
            chunk = min(remaining, eden.fits_count(size))
            if chunk == 0:
                # Eden tail full: the single-object slow path triggers
                # the collection exactly where the plain loop would.
                view = self.allocate(klass_name, length=length)
                if sink is not None:
                    sink([view.addr])
                remaining -= 1
                continue
            fast_kernels.record_call("alloc", items=chunk)
            start = eden.allocate_many(size, chunk)
            heap.format_object_run(start, chunk, klass, length)
            heap.allocated_objects += chunk
            heap.allocated_bytes += size * chunk
            self.run.allocated_objects += chunk
            self.run.allocated_bytes += size * chunk
            if sink is not None:
                sink(list(range(start, start + size * chunk, size)))
            remaining -= chunk
        return count

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
