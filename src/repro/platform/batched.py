"""Replay kernels: one protocol, two families.

:class:`~repro.platform.fast_replay.FastTraceReplayer` costs a compiled
trace through the kernel :func:`kernel_for` picks for a platform and a
GC thread count.  Every kernel provides ``name``, ``begin(compiled)``
(stage 1, once per trace), ``run_phase(lo, hi, start, prim_seconds) ->
(barrier, busy)`` (stage 2, once per phase run) and
``chunks_processed``.

* **closed-form** (:class:`ClosedFormKernel`: ``ideal`` at any thread
  count, ``cpu-ddr4`` with one GC thread) — every event's duration is a
  pure function of the event, so ``begin`` prices the whole trace in a
  handful of numpy operations and ``run_phase`` only sums slices.
* **batched-stateful** (multi-threaded ``cpu-ddr4``, ``cpu-hmc``,
  ``charon`` — unified or ``--distributed`` — and ``charon-cpuside``)
  — costs couple events through shared state: FIFO bandwidth horizons,
  the anonymous round-robin cursor, per-unit busy clocks, the
  TLB/bitmap-cache ports and the bitmap cache's tag/LRU contents.

The batched kernels work in two stages:

* **stage 1** (:meth:`begin`) precomputes, over the compiled trace's
  columns, every order-independent per-event quantity — primitive
  classification, per-resource byte reservations and service times,
  latency/MLP/issue bound constants, request/response packet chains,
  cube routing and bitmap line addresses — and applies all
  order-independent *accounting* (byte counters, energy, packet and
  queue statistics) in bulk.  It emits the plan as flat typed columns:
  each distinct plan is interned once into a template table, and each
  event stores a template id.  Stream plans are CSR rows of ``(lane
  slot, service time)`` with their ``(a, b, i1, i2)`` bound constants;
  Charon templates add a kind code, TLB ``(slot, penalty)`` pairs,
  packet-chain addends and a tail time, and bitmap-count and
  marking-scan events carry a per-event CSR of ``(line, slice,
  penalty)`` bitmap-cache touches;
* **stage 2** (:meth:`run_phase`) replays only the order-dependent
  recurrence — thread clocks under least-loaded assignment, fluid
  resource ``busy_until`` horizons, unit busy clocks, the anonymous cube
  cursor, and the bitmap cache's real tag/LRU state — in one compiled C
  loop over those columns (``_stage2.c``: ``host_phase`` for the DDR4
  and HMC host kernels, ``charon_phase`` for Charon; built and loaded
  by :mod:`repro.platform.native`).  The state it touches is loaded
  from the platform objects into arrays before each phase run and
  written back after it, so between phases the objects stay
  authoritative for the scalar residual path and the phase-end hooks.

Equivalence is *exact by construction* for every integer counter and
every individual IEEE-754 operation on the critical path: stage 2
replicates the scalar code's operation order (``max`` placement,
addition association, division operands, the ``(clock, thread)``
heap order) and is compiled without floating-point contraction, so
clock values match bit for bit; only bulk-summed float accounting
(busy time, energy) and cross-phase float accumulations may differ
within the fast path's 1e-9 relative contract.
``tests/test_fast_replay_equivalence.py`` holds the golden
comparisons.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, ProtectionFault
from repro.gcalgo.columnar import (CODE_TO_PRIMITIVE, CompiledTrace,
                                   PRIMITIVE_TYPE_CODES)
from repro.gcalgo.trace import Primitive, is_marking_phase
from repro.platform import native
from repro.units import CACHE_LINE, HMC_MAX_REQUEST, WORD

#: Stage-2 accounting granularity: the ``replay.kernel.chunks`` metric
#: counts each phase run as this many events per chunk.
CHUNK_EVENTS = 4096

#: Stage-1 block size when rows expand into per-line bitmap-cache
#: accesses: the numpy temporaries scale with one block's lines, not
#: with the trace's.
PLAN_BLOCK_ROWS = 2048

#: Largest ``src >> 14`` whose marking-window hash
#: (``* 2654435761``) still fits int64; rows above it keep the scalar
#: planner's arbitrary-precision arithmetic.
_HASH_LIMIT = (2 ** 63 - 1) // 2654435761


def _prim_index(compiled: CompiledTrace
                ) -> Tuple[List[Primitive], np.ndarray]:
    """``(keys, per-event key index)`` for a compiled trace.

    Stage 2 accumulates per-primitive durations into a small array
    indexed by these ids instead of hashing enum members per event;
    the per-primitive addition order is untouched (each primitive's
    events still add in event order), so results stay bit-identical.
    Pure function of the trace, memoized on it (callers must not
    mutate the returned key list or int32 id array).
    """
    cache = _kernel_memo(compiled)
    hit = cache.get("prim_index")
    if hit is None:
        from repro.experiments import stage1_cache

        def produce():
            codes = compiled.events["prim"]
            uq = np.unique(codes)
            return uq, np.searchsorted(uq, codes)

        uq, ids = stage1_cache.fetch(compiled, "prim_index", (),
                                     produce)
        keys = [CODE_TO_PRIMITIVE[int(code)] for code in uq.tolist()]
        hit = cache["prim_index"] = (keys, ids.astype(np.int32))
    return hit


def _kernel_memo(compiled: CompiledTrace) -> Dict:
    """Per-trace memo for trace-pure stage-1 products.

    The trace cache hands the same :class:`CompiledTrace` to every
    platform's replayer, so anything that depends only on the trace (or
    on a hashable parameter key) is computed once per trace instead of
    once per ``begin``.  This memo is the in-process front of the
    persistent :mod:`~repro.experiments.stage1_cache`: on a memo miss
    the producers below read through it (and write back on a disk
    miss), so a warm sweep process recomputes no stage-1 arrays at all.
    """
    memo = compiled.__dict__.get("_kernel_memo")
    if memo is None:
        memo = compiled.__dict__["_kernel_memo"] = {}
    return memo


# ---------------------------------------------------------------------------
# Shared stage-1 helpers
# ---------------------------------------------------------------------------

class _CubeMap:
    """A pure mirror of :class:`~repro.mem.vm.VirtualMemory` placement.

    ``vm.lookup`` walks the page-size tables in *insertion order* and
    returns the first mapping covering the address; the mirror keeps the
    same table order so every lookup resolves identically.  The mirror
    is read-only — it never mutates the VM — and is rebuilt whenever the
    VM's total mapping count changes.
    """

    def __init__(self, vm, pcid: int) -> None:
        self.vm = vm
        self.pcid = pcid
        self._sizes: List[int] = []
        self._tables: List[Dict[int, Tuple[int, bool]]] = []
        self._np_tables = None
        self._count = -1
        self.refresh()

    def refresh(self) -> None:
        count = sum(len(t) for t in self.vm._tables.values())
        if count == self._count:
            return
        self._count = count
        self._sizes = list(self.vm._tables.keys())
        self._tables = [
            {vaddr: (m.cube, m.pinned)
             for (p, vaddr), m in table.items() if p == self.pcid}
            for table in self.vm._tables.values()
        ]
        self._np_tables = None

    def np_tables(self) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        """``(page_bytes, sorted page vaddrs, cubes)`` per table, for
        the vectorized column lookup (built lazily per refresh)."""
        tables = self._np_tables
        if tables is None:
            tables = []
            for size, table in zip(self._sizes, self._tables):
                keys = np.fromiter(table.keys(), dtype=np.int64,
                                   count=len(table))
                cubes = np.fromiter((e[0] for e in table.values()),
                                    dtype=np.int64, count=len(table))
                order = np.argsort(keys)
                tables.append((size, keys[order], cubes[order]))
            self._np_tables = tables
        return tables

    def lookup_columns(self, addrs: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`lookup` over an int64 address column.

        Returns ``(cube, page_bytes, mapped)`` arrays; unmapped rows
        have ``mapped`` False (their cube/page values are meaningless).
        Table precedence matches the scalar walk: earlier (insertion
        order) page-size tables win.
        """
        n = len(addrs)
        cube = np.zeros(n, dtype=np.int64)
        psize = np.ones(n, dtype=np.int64)
        mapped = np.zeros(n, dtype=bool)
        for size, keys, cubes in self.np_tables():
            if len(keys) == 0:
                continue
            todo = ~mapped
            if not todo.any():
                break
            sub = addrs[todo]
            page = sub - sub % size
            idx = np.searchsorted(keys, page)
            idxc = np.minimum(idx, len(keys) - 1)
            hit = keys[idxc] == page
            if hit.any():
                rows = np.flatnonzero(todo)[hit]
                cube[rows] = cubes[idxc[hit]]
                psize[rows] = size
                mapped[rows] = True
        return cube, psize, mapped

    def lookup(self, addr: int) -> Optional[Tuple[int, int, bool]]:
        """``(cube, page_bytes, pinned)`` of the mapping, or ``None``."""
        for size, table in zip(self._sizes, self._tables):
            entry = table.get(addr - addr % size)
            if entry is not None:
                return entry[0], size, entry[1]
        return None

    def cube_of(self, addr: int) -> int:
        entry = self.lookup(addr)
        if entry is None:
            raise ProtectionFault(
                f"no mapping for vaddr {addr:#x} in pcid {self.pcid}")
        return entry[0]

    def is_pinned(self, addr: int) -> bool:
        entry = self.lookup(addr)
        return entry is not None and entry[2]

    def split(self, start: int, length: int) -> List[Tuple[int, int]]:
        """``(run_length, cube)`` pieces, merged like
        :meth:`VirtualMemory.split_range_by_cube` (run starts are not
        needed by the kernels, only lengths and owners)."""
        runs: List[Tuple[int, int]] = []
        cursor = start
        end = start + length
        while cursor < end:
            entry = self.lookup(cursor)
            if entry is None:
                raise ProtectionFault(
                    f"no mapping for vaddr {cursor:#x} in pcid "
                    f"{self.pcid}")
            cube, page_bytes, _ = entry
            page_end = cursor - cursor % page_bytes + page_bytes
            run_end = end if end < page_end else page_end
            if runs and runs[-1][1] == cube:
                runs[-1] = (runs[-1][0] + run_end - cursor, cube)
            else:
                runs.append((run_end - cursor, cube))
            cursor = run_end
        return runs


class _Lanes:
    """Flat horizon array over the fluid resources stage 2 touches.

    Each registered :class:`FluidResource` owns two slots — the bulk
    FIFO lane at ``2i`` and the short-request priority lane at ``2i+1``
    — mirroring ``busy_until``/``small_busy_until``.  ``sync_in`` loads
    the real horizons before a phase, ``sync_out`` writes them back
    after, so outside :meth:`run_phase` the real objects stay
    authoritative (the scalar residual path and phase-end hooks run
    against them unchanged).  Dynamic accounting (streams whose target
    is only known in stage 2, e.g. anonymous fault traffic) accumulates
    in ``acc_bytes``/``acc_reqs`` and is deposited at ``sync_out``.
    Resources register while plans are built; :meth:`size` then sizes
    the arrays the compiled loop reads and writes.
    """

    def __init__(self) -> None:
        self.resources: List = []
        self._index: Dict[int, int] = {}
        self.H = np.zeros(0)
        self.acc_bytes = np.zeros(0, dtype=np.int64)
        self.acc_reqs = np.zeros(0, dtype=np.int64)

    def register(self, resource) -> int:
        """Resource index (lane slots are ``2i`` bulk, ``2i+1`` small)."""
        key = id(resource)
        index = self._index.get(key)
        if index is None:
            index = len(self.resources)
            self._index[key] = index
            self.resources.append(resource)
        return index

    def slot(self, resource, priority: bool) -> int:
        return 2 * self.register(resource) + (1 if priority else 0)

    def size(self) -> None:
        """(Re)allocate the state arrays for every registered resource."""
        count = len(self.resources)
        if len(self.acc_bytes) != count:
            self.H = np.zeros(2 * count)
            self.acc_bytes = np.zeros(count, dtype=np.int64)
            self.acc_reqs = np.zeros(count, dtype=np.int64)

    def sync_in(self) -> None:
        self.H[:] = [horizon for resource in self.resources
                     for horizon in (resource.busy_until,
                                     resource.small_busy_until)]

    def sync_out(self) -> None:
        H = self.H.tolist()
        for i, resource in enumerate(self.resources):
            resource.busy_until = H[2 * i]
            resource.small_busy_until = H[2 * i + 1]
        for i in np.flatnonzero(self.acc_reqs | self.acc_bytes).tolist():
            self.resources[i].account_bulk(int(self.acc_bytes[i]),
                                           int(self.acc_reqs[i]))
            self.acc_bytes[i] = 0
            self.acc_reqs[i] = 0


def host_event_columns(compiled: CompiledTrace, costs, ipc_hz: float,
                       hit_lat: float):
    """Per-event host-cost columns shared by the host-executed kernels.

    Vectorizes :class:`~repro.platform.host_costs.HostCostModel`'s
    per-primitive instruction/locality maths; returns ``(compute,
    miss_bytes, dependent_batches, priority)`` arrays where ``compute``
    is the roofline's compute-side duration, ``miss_bytes`` the miss
    stream pushed at the memory port, ``dependent_batches`` the serial
    dependence factor and ``priority`` whether the stream rides the
    short-request lane (everything except bulk copies).

    Pure in the trace and the listed cost parameters, so results are
    memoized on the trace keyed by those parameters (the same compiled
    trace replays on several platforms and, in benchmarks, repeatedly).
    The cached arrays are frozen read-only; kernels index them but
    never write.
    """
    key = ("host_cols", ipc_hz, hit_lat,
           costs.copy_instructions_per_byte,
           costs.copy_object_overhead_instructions,
           costs.copy_hit_fraction,
           costs.search_instructions_per_card,
           costs.search_hit_fraction,
           costs.scan_push_instructions_per_ref,
           costs.scan_push_hit_major, costs.scan_push_hit_minor,
           costs.bitmap_instructions_per_bit,
           costs.bitmap_hit_fraction)
    cache = _kernel_memo(compiled)
    hit = cache.get(key)
    if hit is not None:
        return hit
    from repro.experiments import stage1_cache

    compute, miss, dep, priority = stage1_cache.fetch(
        compiled, "host_cols", key[1:],
        lambda: _compute_host_columns(compiled, costs, ipc_hz, hit_lat))
    for array in (compute, miss, dep, priority):
        array.flags.writeable = False
    cache[key] = (compute, miss, dep, priority)
    return compute, miss, dep, priority


def _compute_host_columns(compiled: CompiledTrace, costs,
                          ipc_hz: float, hit_lat: float):
    """The actual :func:`host_event_columns` precompute (the producer
    behind the memo and the stage-1 cache)."""
    ev = compiled.events
    derived = compiled.derived_columns()
    n = len(ev)
    instr = np.zeros(n, dtype=np.float64)
    touched = np.zeros(n, dtype=np.int64)
    hitf = np.zeros(n, dtype=np.float64)
    dep = np.ones(n, dtype=np.float64)

    copy = derived["is_copy"]
    search = derived["is_search"]
    scan = derived["is_scan"]
    bitmap = derived["is_bitmap"]

    if copy.any():
        size = ev["size_bytes"][copy]
        instr[copy] = size * costs.copy_instructions_per_byte \
            + costs.copy_object_overhead_instructions
        touched[copy] = 2 * size
        hitf[copy] = costs.copy_hit_fraction
        dep[copy] = 2.0
    if search.any():
        examined = np.maximum(1, derived["search_examined"][search])
        instr[search] = examined * costs.search_instructions_per_card
        touched[search] = examined
        hitf[search] = costs.search_hit_fraction
    if scan.any():
        refs = np.maximum(1, ev["refs"][scan])
        instr[scan] = refs * costs.scan_push_instructions_per_ref
        touched[scan] = refs * CACHE_LINE
        mark_ids = [pid for pid, name in enumerate(compiled.phase_names)
                    if is_marking_phase(name)]
        if mark_ids:
            marking = np.isin(ev["phase"][scan],
                              np.asarray(mark_ids, dtype=np.uint16))
        else:
            marking = np.zeros(int(scan.sum()), dtype=bool)
        hitf[scan] = np.where(marking, costs.scan_push_hit_major,
                              costs.scan_push_hit_minor)
        dep[scan] = np.where(marking, 2.0, 1.0)
    if bitmap.any():
        b = np.maximum(1, derived["eff_bits"][bitmap])
        instr[bitmap] = 12.0 + b * costs.bitmap_instructions_per_bit
        touched[bitmap] = 2 * (b // 8 + 1)
        hitf[bitmap] = costs.bitmap_hit_fraction

    touched_f = touched.astype(np.float64)
    miss = (touched_f * (1.0 - hitf)).astype(np.int64)
    hits = touched_f / CACHE_LINE * hitf
    compute = instr / ipc_hz + hits * hit_lat / 4.0
    priority = ~copy
    return compute, miss, dep, priority


def _path_latency(resources: Sequence) -> float:
    """``ResourcePath.latency`` replicated operation for operation
    (``extra_latency + sum(...)``, with ``extra_latency`` always 0.0 for
    the paths the kernels drive)."""
    return 0.0 + sum(r.latency for r in resources)


# ---------------------------------------------------------------------------
# Closed-form kernels (ideal, cpu-ddr4 single-thread)
# ---------------------------------------------------------------------------

class ClosedFormKernel:
    """Replay of a platform whose event durations are pure functions of
    the event.

    ``begin`` prices the whole trace through ``price(compiled)``;
    ``run_phase`` then needs no state.  One GC thread runs a phase's
    events back to back, so the phase lasts their sum.  With several
    threads only the zero-duration ``ideal`` kernel is selected, where
    any assignment has a zero makespan.  Per-primitive seconds are
    reduced per phase in primitive-code order, and busy time counts
    only for host-executed (non-offloading) platforms.
    """

    name = "closed-form"

    def __init__(self, platform, threads: int, price) -> None:
        self.threads = threads
        self.price = price
        self.host_executed = not platform.offloads
        self.chunks_processed = 0
        self._durations = None
        self._codes = None

    def begin(self, compiled: CompiledTrace) -> None:
        self._durations = self.price(compiled)
        self._codes = compiled.events["prim"]

    def run_phase(self, lo: int, hi: int, start: float,
                  prim_seconds: Dict[Primitive, float]
                  ) -> Tuple[float, float]:
        seg = self._durations[lo:hi]
        span = float(seg.sum()) if self.threads == 1 else 0.0
        codes = self._codes[lo:hi]
        for code in np.unique(codes):
            key = CODE_TO_PRIMITIVE[int(code)]
            prim_seconds[key] = prim_seconds.get(key, 0.0) \
                + float(seg[codes == code].sum())
        return start + span, (span if self.host_executed else 0.0)


def _zero_durations(compiled: CompiledTrace) -> np.ndarray:
    """The ideal platform: offloaded primitives take zero cycles and
    generate no memory traffic."""
    return np.zeros(len(compiled.events), dtype=np.float64)


class _DDR4Streams:
    """``HostCostModel._roofline`` composed with ``DDR4System.stream``,
    lifted into per-event columns — the one builder both DDR4 kernels
    price with.

    Each channel serves ``int(round(miss / channels))`` bytes
    (round-half-to-even, i.e. ``np.rint``) with no issue bound for host
    streams; per-event arithmetic keeps the scalar code's IEEE-754
    operation order.  :meth:`columns` also does the stream's byte and
    energy accounting in bulk: ``ResourcePath.stream`` reserves the
    rounded share on every channel once per event with a positive share
    (a zero share returns before reserving).
    """

    def __init__(self, platform) -> None:
        core = platform.host.core
        self.costs = platform.config.costs
        self.ipc_hz = core.config.gc_ipc * core.config.freq_hz
        self.hit_lat = self.costs.cache_hit_latency_s
        self.channels = platform.ddr4.channels
        self.n_ch = len(self.channels)
        channel = self.channels[0]
        self.ch_rate = channel.rate
        self.ch_latency = channel.latency  # == ResourcePath.latency here
        self.ch_mlp = max(1.0, core.mlp / self.n_ch)

    def columns(self, compiled: CompiledTrace):
        """``(compute, miss, share, service, a_term, b_term, priority)``
        per event — ``share`` is the rounded bytes each channel serves,
        and a stream's latency bound is ``a_term + b_term`` past its
        issue time — after the channels' bulk accounting."""
        compute, miss, dep, priority = host_event_columns(
            compiled, self.costs, self.ipc_hz, self.hit_lat)
        r = np.rint(miss.astype(np.float64) / self.n_ch)
        r_i = r.astype(np.int64)
        service = r / self.ch_rate
        n_req = np.ceil(r / CACHE_LINE)
        lat = self.ch_latency
        a_term = lat * dep
        b_term = (n_req - 1.0) * (lat / self.ch_mlp)
        served = r_i > 0
        if served.any():
            total = int(r_i[served].sum())
            count = int(served.sum())
            for channel in self.channels:
                channel.account_bulk(total, count)
        return compute, miss, r_i, service, a_term, b_term, priority

    def durations(self, compiled: CompiledTrace) -> np.ndarray:
        """Single-thread event durations in closed form.

        With one GC thread the thread's clock is always at or past every
        channel-FIFO horizon it has reserved (each event finishes no
        earlier than its own bandwidth reservation), so ``max(now,
        busy_until)`` resolves to ``now`` and the horizons can be left
        untouched: every duration is a function of the event alone.
        """
        compute, miss, r_i, service, a_term, b_term, _ = \
            self.columns(compiled)
        mem = np.where(r_i > 0, np.maximum(service, a_term + b_term),
                       a_term)
        return np.where(miss > 0, np.maximum(compute, mem), compute)

# ---------------------------------------------------------------------------
# Flat plans: what stage 1 hands the compiled stage 2
# ---------------------------------------------------------------------------

class _Interner:
    """Dense ids for distinct hashable plans, in first-seen order."""

    def __init__(self) -> None:
        self.ids: Dict = {}
        self.items: List = []

    def __call__(self, item) -> int:
        index = self.ids.get(item)
        if index is None:
            index = self.ids[item] = len(self.items)
            self.items.append(item)
        return index


def _offsets(counts: Sequence[int]) -> np.ndarray:
    """CSR offsets (length ``len(counts) + 1``) of rows of ``counts``."""
    off = np.zeros(len(counts) + 1, dtype=np.int64)
    off[1:] = np.cumsum(np.asarray(counts, dtype=np.int64))
    return off


def _stream_columns(streams: Sequence[Tuple]) -> Dict[str, np.ndarray]:
    """Columns of interned stream plans ``(slots, svcs, a, b, i1, i2)``:
    a stream reserves ``slots[j]`` for ``svcs[j]`` seconds and ends no
    earlier than ``(now + a) + b`` or ``(now + i1) + i2``."""
    columns = {
        "s_off": _offsets([len(plan[0]) for plan in streams]),
        "s_slot": np.array([sl for plan in streams for sl in plan[0]],
                           dtype=np.int32),
        "s_svc": np.array([svc for plan in streams for svc in plan[1]],
                          dtype=np.float64)}
    for k, name in enumerate(("s_a", "s_b", "s_i1", "s_i2"), start=2):
        columns[name] = np.array([plan[k] for plan in streams],
                                 dtype=np.float64)
    return columns


class _PrimSums:
    """Per-primitive duration sums stage 2 accumulates, one slot per key
    of the trace's primitive index.  A "present" flag per slot makes a
    key enter ``prim_seconds`` exactly when its first event adds to it,
    and each key's events still add in event order."""

    def __init__(self, keys: List[Primitive]) -> None:
        self.keys = keys
        self.sums = np.zeros(len(keys))
        self.present = np.zeros(len(keys), dtype=np.uint8)

    def load(self, prim_seconds: Dict[Primitive, float]) -> None:
        for j, key in enumerate(self.keys):
            value = prim_seconds.get(key)
            self.present[j] = value is not None
            self.sums[j] = 0.0 if value is None else value

    def store(self, prim_seconds: Dict[Primitive, float]) -> None:
        for key, value, present in zip(self.keys, self.sums.tolist(),
                                       self.present.tolist()):
            if present:
                prim_seconds[key] = value


def _chunks(lo: int, hi: int, events: int) -> int:
    """``replay.kernel.chunks`` for one phase run, after checking that
    the run lies inside the trace (the C loop indexes the per-event
    columns unchecked)."""
    if not 0 <= lo <= hi <= events:
        raise IndexError(f"phase run [{lo}, {hi}) outside a trace of "
                         f"{events} events")
    return len(range(lo, hi, CHUNK_EVENTS))


# ---------------------------------------------------------------------------
# Host-executed kernels (cpu-ddr4 multi-thread, cpu-hmc)
# ---------------------------------------------------------------------------

class _HostBatchedKernel:
    """Stage 2 of the host-executed kernels: ``host_phase`` over flat
    host plans.

    An event with a memory stream points at a template: a list of runs
    (interned stream ids; each run reserves its lanes and is bounded by
    its latency term, and the event waits for the latest), or one
    anonymous stream (bytes, per-cube share, priority) spread over the
    cubes by the shared round-robin cursor, which stage 2 advances in
    event order.
    """

    def __init__(self, platform, threads: int) -> None:
        self.native = native.library()
        self.platform = platform
        self.threads = threads
        self.lanes = _Lanes()
        self.chunks_processed = 0
        self._port = None  # holds the anonymous cube cursor, if any
        self._anon = {"cubes": 0, "anon_off": np.zeros(1, dtype=np.int64),
                      "anon_res": np.zeros(0, dtype=np.int32),
                      "anon_rate": np.zeros(0), "anon_lat": np.zeros(0),
                      "mlp": 1.0}
        self._cursor = np.zeros(1, dtype=np.int64)
        self._out = np.zeros(2)
        self._block = None
        self._sums = None
        self._tid = np.zeros(0, dtype=np.int32)

    def _freeze(self, compiled: CompiledTrace, compute: np.ndarray,
                tid: np.ndarray, templates: Sequence[Tuple],
                streams: Sequence[Tuple]) -> None:
        """Flatten one trace's plans into the stage-2 argument block.

        ``templates`` are ``(0, stream ids)`` run lists or ``(1, nbytes,
        share, priority)`` anonymous streams.
        """
        keys, pid = _prim_index(compiled)
        self.lanes.size()
        self._sums = _PrimSums(keys)
        self._tid = tid
        runs = [t[1] if t[0] == 0 else () for t in templates]
        anon = [t if t[0] == 1 else (0, 0, 0, False) for t in templates]
        self._block = native.Block(native.HOST_FIELDS, {
            "threads": self.threads, "compute": compute, "tid": tid,
            "pid": pid,
            "t_anon": np.array([t[0] for t in templates], dtype=np.int8),
            "t_off": _offsets([len(r) for r in runs]),
            "t_stream": np.array([s for r in runs for s in r],
                                 dtype=np.int32),
            "t_nbytes": np.array([t[1] for t in anon], dtype=np.int64),
            "t_share": np.array([t[2] for t in anon], dtype=np.int64),
            "t_prio": np.array([t[3] for t in anon], dtype=np.int8),
            **_stream_columns(streams), **self._anon,
            "H": self.lanes.H, "acc_bytes": self.lanes.acc_bytes,
            "acc_reqs": self.lanes.acc_reqs, "cursor": self._cursor,
            "sums": self._sums.sums, "present": self._sums.present})

    def run_phase(self, lo: int, hi: int, start: float,
                  prim_seconds: Dict[Primitive, float]
                  ) -> Tuple[float, float]:
        self.chunks_processed += _chunks(lo, hi, len(self._tid))
        self.lanes.sync_in()
        port = self._port
        if port is not None:
            self._cursor[0] = port._anon_cube
        self._sums.load(prim_seconds)
        if self.native.host_phase(self._block.address, lo, hi, start,
                                  self._out.ctypes.data):
            raise MemoryError("stage-2 thread heap allocation failed")
        self._sums.store(prim_seconds)
        if port is not None:
            port._anon_cube = int(self._cursor[0])
        self.lanes.sync_out()
        barrier, busy = self._out.tolist()
        return barrier, busy


class DDR4BatchedKernel(_HostBatchedKernel):
    """Multi-threaded DDR4 replay: precomputed costs, horizon recurrence.

    Stage 1 builds the :class:`_DDR4Streams` columns and interns one
    stream per distinct (per-channel share, priority, dependence): both
    channels' bulk or priority lanes for the share's service time, or —
    for a miss too small to reach a channel — no lane and a latency
    bound of ``(now + a) + 0.0``, which is the scalar ``now + a``.  The
    only state left for stage 2 is the channels' FIFO horizons and the
    GC thread clocks.
    """

    name = "ddr4-batched"

    def __init__(self, platform, threads: int) -> None:
        super().__init__(platform, threads)
        self.streams = _DDR4Streams(platform)
        self.ch_slots = [(self.lanes.slot(ch, False),
                          self.lanes.slot(ch, True))
                         for ch in self.streams.channels]

    def begin(self, compiled: CompiledTrace) -> None:
        compute, miss, r_i, service, a_term, b_term, priority = \
            self.streams.columns(compiled)
        tid = np.full(len(miss), -1, dtype=np.int32)
        streams = []
        rows = np.flatnonzero(miss > 0)
        if len(rows):
            _, dep = np.unique(a_term[rows], return_inverse=True)
            key = (r_i[rows] * 2 + priority[rows]) * (int(dep.max()) + 1) \
                + dep
            _, first, inv = np.unique(key, return_index=True,
                                      return_inverse=True)
            for f0 in rows[first].tolist():
                a = float(a_term[f0])
                if r_i[f0] > 0:
                    slots = tuple(pair[1 if priority[f0] else 0]
                                  for pair in self.ch_slots)
                    svc = float(service[f0])
                    streams.append((slots, (svc,) * len(slots), a,
                                    float(b_term[f0]), 0.0, 0.0))
                else:
                    streams.append(((), (), a, 0.0, 0.0, 0.0))
            tid[rows] = inv
        self._freeze(compiled, compute, tid,
                     [(0, (s,)) for s in range(len(streams))], streams)


class HostHMCBatchedKernel(_HostBatchedKernel):
    """``cpu-hmc`` replay: per-cube routed host streams, batched.

    Stage 1 resolves every event's miss range into per-cube runs through
    the :class:`_CubeMap` mirror and freezes each run's path (host link,
    cube-to-cube hop, destination TSVs) into an interned stream; stage 2
    replays only the shared-FIFO horizon recurrence.  Ranges that fault
    (unmapped addresses) fall back — exactly like
    :meth:`HMCHostPort.stream_range` — to the anonymous round-robin
    stream, whose cube cursor is *shared state*: stage 2 loads it from
    the port and writes it back, so the interleaving with scalar
    residual work is preserved.
    """

    name = "hmc-batched"

    def __init__(self, platform, threads: int) -> None:
        super().__init__(platform, threads)
        core = platform.host.core
        costs = platform.config.costs
        self.costs = costs
        self.port = self._port = platform.port
        self.hmc = platform.hmc
        self.ipc_hz = core.config.gc_ipc * core.config.freq_hz
        self.hit_lat = costs.cache_hit_latency_s
        self.mlp = core.mlp
        self.map = _CubeMap(self.port.vm, self.port.pcid)
        # Per-cube host paths: resource lists and path latency, frozen
        # from the real topology objects (anonymous streams pick their
        # cube in stage 2, so every path's lanes exist up front).
        self._paths = []
        for cube in range(self.hmc.config.cubes):
            resources = self.hmc.host_path(cube).resources
            self._paths.append((resources, _path_latency(resources)))
        self._anon = {
            "cubes": len(self._paths),
            "anon_off": _offsets([len(r) for r, _ in self._paths]),
            "anon_res": np.array([self.lanes.register(r)
                                  for resources, _ in self._paths
                                  for r in resources], dtype=np.int32),
            "anon_rate": np.array([r.rate for resources, _ in self._paths
                                   for r in resources], dtype=np.float64),
            "anon_lat": np.array([lat for _, lat in self._paths],
                                 dtype=np.float64),
            "mlp": float(self.mlp)}
        self._plan_cache: Dict[Tuple, Tuple] = {}

    def _stream_plan(self, cube: int, nbytes: int, prio: bool,
                     dep: float) -> Tuple:
        """The stream plan of one run, cached by key."""
        key = (cube, nbytes, prio, dep)
        plan = self._plan_cache.get(key)
        if plan is None:
            resources, lat = self._paths[cube]
            n_req = math.ceil(nbytes / CACHE_LINE)
            plan = (tuple(self.lanes.slot(r, prio) for r in resources),
                    tuple(nbytes / r.rate for r in resources),
                    lat * dep, (n_req - 1) * (lat / self.mlp), 0.0, 0.0)
            self._plan_cache[key] = plan
        return plan

    def _account_runs(self, acc: Dict[int, List[int]], cube: int,
                      nbytes: int, count: int) -> None:
        """Accumulate ``count`` runs totalling ``nbytes`` on a cube's
        host path (deposited via ``account_bulk`` when begin ends)."""
        for resource in self._paths[cube][0]:
            ri = self.lanes.register(resource)
            counters = acc.get(ri)
            if counters is None:
                counters = acc[ri] = [0, 0]
            counters[0] += nbytes
            counters[1] += count

    def begin(self, compiled: CompiledTrace) -> None:
        compute, miss, dep, priority = host_event_columns(
            compiled, self.costs, self.ipc_hz, self.hit_lat)
        self.map.refresh()
        src = compiled.events["src"]
        n = len(src)
        tid = np.full(n, -1, dtype=np.int32)
        templates = _Interner()
        streams = _Interner()
        acc: Dict[int, List[int]] = {}
        need = np.flatnonzero(miss > 0)
        rest: List[int] = []
        if len(need):
            src_n = src[need]
            nb = miss[need]
            cube, psize, mapped = self.map.lookup_columns(src_n)
            # Single-page ranges (the vast majority) plan in bulk: one
            # run on the page's cube, grouped by (nbytes, cube,
            # priority, dependence) so each distinct plan is built once.
            fits = mapped & (src_n % psize + nb <= psize)
            rows = np.flatnonzero(fits)
            if len(rows):
                cube_s = cube[rows]
                nb_s = nb[rows]
                prio_s = priority[need][rows].astype(np.int64)
                dep2 = (dep[need][rows] == 2.0).astype(np.int64)
                key = ((nb_s * 256 + cube_s) * 2 + prio_s) * 2 + dep2
                _, first, inv = np.unique(key, return_index=True,
                                          return_inverse=True)
                ids = []
                for f0 in first.tolist():
                    r0 = int(need[rows[f0]])
                    sid = streams(self._stream_plan(
                        int(cube_s[f0]), int(nb_s[f0]),
                        bool(priority[r0]), float(dep[r0])))
                    ids.append(templates((0, (sid,))))
                tid[need[rows]] = np.asarray(ids, dtype=np.int32)[inv]
                bsum = np.bincount(cube_s,
                                   weights=nb_s.astype(np.float64))
                bcnt = np.bincount(cube_s)
                for c in np.flatnonzero(bcnt).tolist():
                    self._account_runs(acc, c, int(bsum[c]),
                                       int(bcnt[c]))
            rest = need[~fits].tolist()
        # Leftover events — multi-page ranges and faulting (anonymous)
        # streams — go through the scalar path, exactly as the
        # event-by-event port does.
        for i in rest:
            addr = int(src[i])
            nbytes = int(miss[i])
            prio = bool(priority[i])
            d = float(dep[i])
            try:
                runs = self.map.split(addr, nbytes)
            except ProtectionFault:
                # stream_anon fallback: cube choice is stage-2 state
                # (the shared round-robin cursor).
                tid[i] = templates((1, nbytes,
                                    self.port.anon_share(nbytes), prio))
                continue
            sids = []
            for run_len, cube_r in runs:
                sids.append(streams(self._stream_plan(cube_r, run_len,
                                                      prio, d)))
                self._account_runs(acc, cube_r, run_len, 1)
            tid[i] = templates((0, tuple(sids)))
        for ri, (nbytes, requests) in acc.items():
            self.lanes.resources[ri].account_bulk(nbytes, requests)
        self._freeze(compiled, compute, tid, templates.items,
                     streams.items)


# ---------------------------------------------------------------------------
# Charon offload kernel
# ---------------------------------------------------------------------------

#: Charon template kinds (``KIND_*`` in ``_stage2.c``).
FIXED, COPY, SEARCH, SCAN, BITMAP = range(5)

#: Per-slice bitmap-cache counters stage 2 returns (``BC_*``).
_BC_STATS = ("hits", "misses", "evictions", "writebacks")


class _Lines:
    """Per-event bitmap-cache lines ``(address, slice, penalty)``,
    gathered in any row order and laid out as one CSR in event order."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.pieces: List[Tuple] = []

    def add(self, rows, counts, addrs, slices, pens) -> None:
        """Lines of ``rows`` (``counts[k]`` lines for ``rows[k]``, in
        row order)."""
        if len(rows):
            self.pieces.append(tuple(np.asarray(a) for a in
                                     (rows, counts, addrs, slices, pens)))

    def columns(self) -> Dict[str, np.ndarray]:
        counts = np.zeros(self.n, dtype=np.int64)
        for rows, count, _, _, _ in self.pieces:
            counts[rows] = count
        off = _offsets(counts)
        total = int(off[-1])
        addrs = np.zeros(total, dtype=np.int64)
        slices = np.zeros(total, dtype=np.int32)
        pens = np.zeros(total, dtype=np.float64)
        for rows, count, addr, si, pen in self.pieces:
            seg = np.cumsum(count) - count
            dest = np.repeat(off[rows] - seg, count) \
                + np.arange(int(count.sum()), dtype=np.int64)
            addrs[dest] = addr
            slices[dest] = si
            pens[dest] = pen
        return {"line_off": off, "line_addr": addrs, "line_slice": slices,
                "line_pen": pens}


def _charon_template_columns(templates: Sequence[Tuple]
                             ) -> Dict[str, np.ndarray]:
    """Columns of interned Charon templates ``(kind, pool, request
    addends, response addends, TLB (slot, penalty) pairs, first stream
    group, second stream group, tail addend)``."""
    nt = len(templates)
    chain: List[float] = []
    t_chain = np.zeros(3 * nt, dtype=np.int64)
    groups: List[int] = []
    t_group = np.zeros(3 * nt, dtype=np.int64)
    tlb_slot = np.zeros(2 * nt, dtype=np.int32)
    tlb_pen = np.zeros(2 * nt, dtype=np.float64)
    for t, (_, _, req, resp, tlb, g0, g1, _) in enumerate(templates):
        t_chain[3 * t] = len(chain)
        chain += req
        t_chain[3 * t + 1] = len(chain)
        chain += resp
        t_chain[3 * t + 2] = len(chain)
        t_group[3 * t] = len(groups)
        groups += g0
        t_group[3 * t + 1] = len(groups)
        groups += g1
        t_group[3 * t + 2] = len(groups)
        for w, (slot, pen) in enumerate(tlb):
            tlb_slot[2 * t + w] = slot
            tlb_pen[2 * t + w] = pen
    return {"t_kind": np.array([t[0] for t in templates], dtype=np.int8),
            "t_pool": np.array([t[1] for t in templates], dtype=np.int32),
            "t_chain": t_chain,
            "chain": np.array(chain, dtype=np.float64),
            "t_ntlb": np.array([len(t[4]) for t in templates],
                               dtype=np.int8),
            "t_tlb_slot": tlb_slot, "t_tlb_pen": tlb_pen,
            "t_group": t_group,
            "t_stream": np.array(groups, dtype=np.int32),
            "t_tail": np.array([t[7] for t in templates],
                               dtype=np.float64)}


class CharonBatchedKernel:
    """Batched offload replay for ``charon`` / ``charon-cpuside``.

    Stage 1 routes every event to its (cube, unit-class) pool, freezes
    the request/response packet chains into flat time addends, compiles
    each unit execution into a template (kind, TLB lookups, stream
    groups, tail time) and per-event bitmap line lists, and
    bulk-applies every order-independent counter (offload tallies,
    packet/probe/link bytes, TLB lookup counts, unit local/remote
    bytes).  Stage 2 keeps only what is genuinely order-dependent: the
    per-unit busy clocks (least-loaded dispatch), the link/TSV and
    TLB/bitmap-cache port horizons, and the bitmap cache's tag/LRU
    state machine.

    Distributed charon is handled by resolving every TLB lookup and
    bitmap-cache access to its owning slice at plan time: templates
    carry ``(port slot, remote penalty)`` pairs (and lines carry
    ``(address, slice, penalty)``) instead of assuming the single
    central slice, and stage 2 keeps one port horizon and one tag array
    per slice.  With one slice the arithmetic degenerates to the
    unified case bit-for-bit.
    """

    name = "charon-batched"

    def __init__(self, platform, threads: int) -> None:
        self.native = native.library()
        device = platform.device
        cfg = platform.config
        self.platform = platform
        self.threads = threads
        self.device = device
        self.hmc = platform.hmc
        self.cpu_side = device.cpu_side
        self.pcid = device.context.pcid
        self.dispatch = cfg.costs.charon_dispatch_overhead_s
        self.cyc = device.context.unit_cycle_s
        self.access_lat = cfg.hmc.access_latency_s
        self.chunk = cfg.charon.request_granularity
        self.mai = cfg.charon.mai_entries_per_cube
        self.issue = cfg.charon.unit_freq_hz
        self.scan_local = (cfg.charon.scan_push_local
                           and not self.cpu_side)
        self.ref_cubes = cfg.hmc.cubes
        self.central = device.central

        self.lanes = _Lanes()
        self.map = _CubeMap(device.context.vm, self.pcid)

        # TLB / bitmap-cache slices.  Unified devices have one slice;
        # ``charon --distributed`` has one per cube, and every lookup
        # is dispatched to the slice owning the translated address
        # (mirroring ``CharonContext.translate`` /
        # ``BitmapCacheComplex.slice_for``).  Port rates and latencies
        # are uniform across slices, so only the slot and the remote
        # penalty vary per lookup.
        self.distributed = device.tlbs.distributed
        self.tlbs = device.tlbs.slices
        self.tlb_slots = [self.lanes.slot(t.port, False)
                          for t in self.tlbs]
        self.tlb_svc = 1 / self.tlbs[0].port.rate
        self._tlb_uses = {}  # (unit cube, slice) -> lookup tuple

        self.bcs = device.bitmap_cache.slices
        self.bc_slots = [self.lanes.slot(b.port, False)
                         for b in self.bcs]
        self.bc_svc = 1 / self.bcs[0].port.rate
        self.bc_mem = self.bcs[0].memory_latency_s
        self.bc_enabled = self.bcs[0].enabled
        # Per-slice home cubes and the remote penalty of each (slice,
        # remote?) pair at index ``2 * slice + remote``.
        self._bc_home = np.array([b.home_cube for b in self.bcs],
                                 dtype=np.int64)
        self._bc_pens = np.array(
            [pen for b in self.bcs for pen in (0.0, 2 * b.link_latency_s)],
            dtype=np.float64)
        # Tag/dirty/LRU-stamp arrays of every slice, loaded from the
        # real caches around each phase that touches them.
        cache = self.bcs[0].cache
        self._sets = cache.num_sets
        self._ways = cache.ways
        lines = len(self.bcs) * self._sets * self._ways
        self._tag = np.zeros(lines, dtype=np.int64)
        self._dirty = np.zeros(lines, dtype=np.uint8)
        self._stamp = np.zeros(lines, dtype=np.int64)
        self._clock = np.zeros(len(self.bcs), dtype=np.int64)
        self._bc_stats = np.zeros(6 * len(self.bcs), dtype=np.int64)

        # Unit pools, in the device's routing keys, flattened.
        self.pool_of: Dict[Tuple[str, int], int] = {}
        self._units: List = []
        sizes = []
        for key, units in device.units.items():
            self.pool_of[key] = len(sizes)
            sizes.append(len(units))
            self._units += units
        self._pool_off = _offsets(sizes)
        self._unit_busy = np.zeros(len(self._units))
        self._unit_cmds = np.zeros(len(self._units), dtype=np.int64)
        self._unit_time = np.zeros(len(self._units))

        # Per-(unit cube, target cube) stream paths.
        self._paths: Dict[Tuple[int, int], Tuple[List, float]] = {}
        self._plan_cache: Dict[Tuple, Tuple] = {}

        # Packet chains per destination cube, as the time addends the
        # request (dispatch first) and the response add in order.
        hl = self.hmc.host_link
        self._req_size = cfg.charon.request_packet_bytes
        self._resp_sizes = (cfg.charon.response_packet_bytes_noval,
                            cfg.charon.response_packet_bytes)
        self._req_chain: Dict[int, Tuple] = {}
        self._resp_chain: Dict[Tuple[int, int], Tuple] = {}
        if not self.cpu_side:
            for cube in range(cfg.hmc.cubes):
                cross = self.hmc._link_chain(self.central, cube)
                self._req_chain[cube] = (
                    self._req_size / hl.rate, hl.latency,
                    *(self._req_size / l.rate + l.latency for l in cross))
                back = self.hmc._link_chain(cube, self.central)
                for hv, size in ((0, self._resp_sizes[0]),
                                 (1, self._resp_sizes[1])):
                    self._resp_chain[(cube, hv)] = (
                        *(size / l.rate + l.latency for l in back),
                        size / hl.rate, hl.latency)
        self.chunks_processed = 0
        self._bc_uses: Dict[Tuple[int, int], Tuple[int, float]] = {}
        self._templates = _Interner()
        self._streams = _Interner()
        self._out = np.zeros(1)
        self._block = None
        self._sums = None
        self.plan: Dict[str, np.ndarray] = {}

    # -- stage-1 helpers ---------------------------------------------------

    def _path(self, c: int, t: int) -> Tuple[List, float]:
        key = (c, t)
        path = self._paths.get(key)
        if path is None:
            if self.cpu_side:
                resources = self.hmc.host_path(t).resources
            else:
                resources = self.hmc.unit_path(c, t).resources
            path = (resources, _path_latency(resources))
            self._paths[key] = path
        return path

    def _stream_plan(self, c: int, t: int, nbytes: int, chunk: int,
                     prio: bool) -> Tuple:
        key = (c, t, nbytes, chunk, prio)
        plan = self._plan_cache.get(key)
        if plan is None:
            resources, rt = self._path(c, t)
            slots = tuple(self.lanes.slot(r, prio) for r in resources)
            svcs = tuple(nbytes / r.rate for r in resources)
            n = math.ceil(nbytes / chunk)
            plan = (slots, svcs, rt * 1, (n - 1) * (rt / self.mai),
                    n / self.issue, rt)
            self._plan_cache[key] = plan
        return plan

    def _stream(self, c: int, t: int, nbytes: int, chunk: int,
                prio: bool) -> int:
        """Stream id (in this trace's table) of one unit stream."""
        return self._streams(self._stream_plan(c, t, nbytes, chunk, prio))

    def _account_stream(self, acc: Dict[int, List[int]], c: int, t: int,
                        nbytes: int, count: int = 1) -> None:
        """Accumulate ``count`` streams totalling ``nbytes`` from unit
        cube ``c`` to target cube ``t`` (deposited when begin ends)."""
        if not self.cpu_side:
            if c == t:
                self._local_bytes += nbytes
            else:
                self._remote_bytes += nbytes
        for resource in self._path(c, t)[0]:
            ri = self.lanes.register(resource)
            counters = acc.get(ri)
            if counters is None:
                counters = acc[ri] = [0, 0]
            counters[0] += nbytes
            counters[1] += count

    def _tlb_use(self, c: int, owner: int) -> Tuple:
        """(slot, penalty, slice, remote?) for one TLB lookup.

        ``c`` is the unit cube issuing the lookup; ``owner`` is the
        cube whose slice holds the translation (ignored when the TLB
        is unified).
        """
        si = owner if self.distributed else 0
        key = (c, si)
        use = self._tlb_uses.get(key)
        if use is None:
            tlb = self.tlbs[si]
            remote = c != tlb.home_cube
            pen = 2 * tlb.link_latency_s if remote else 0.0
            use = (self.tlb_slots[si], pen, si, remote)
            self._tlb_uses[key] = use
        return use

    def _bc_use(self, c: int, owner: int) -> Tuple[int, float]:
        """(slice, penalty) for one bitmap-cache access from cube
        ``c`` against the slice owning cube ``owner``."""
        si = owner if self.distributed else 0
        key = (c, si)
        use = self._bc_uses.get(key)
        if use is None:
            bc = self.bcs[si]
            pen = (2 * bc.link_latency_s
                   if c != bc.home_cube else 0.0)
            use = (si, pen)
            self._bc_uses[key] = use
        return use

    def _template(self, kind: int, kind_key: str, u: int, has_value: int,
                  tlb: Tuple = (), g0: Tuple = (), g1: Tuple = (),
                  tail: float = 0.0) -> int:
        """Template id of one unit execution on cube ``u``'s pool."""
        pool = self.pool_of[(kind_key, u)]
        if self.cpu_side:
            chains = ((), ())
        else:
            chains = (self._req_chain[u], self._resp_chain[(u, has_value)])
        return self._templates((kind, pool, *chains, tlb, g0, g1, tail))

    def begin(self, compiled: CompiledTrace) -> None:
        info = self.device._require_init()
        self.map.refresh()
        ev = compiled.events
        prim = ev["prim"]
        n = len(prim)
        derived = compiled.derived_columns()
        copy_m = derived["is_copy"]
        search_m = derived["is_search"]
        scan_m = derived["is_scan"]
        bitmap_m = derived["is_bitmap"]
        marking_kind = compiled.kind in ("major", "g1", "concurrent")
        cpu_side = self.cpu_side
        cyc = self.cyc
        chunk = self.chunk
        src = ev["src"]
        dst = ev["dst"]
        size = ev["size_bytes"]
        refs = ev["refs"]
        pushes = ev["pushes"]
        code_copy = PRIMITIVE_TYPE_CODES[Primitive.COPY]
        code_search = PRIMITIVE_TYPE_CODES[Primitive.SEARCH]
        code_scan = PRIMITIVE_TYPE_CODES[Primitive.SCAN_PUSH]

        self._local_bytes = 0
        self._remote_bytes = 0
        self._templates = _Interner()
        self._streams = _Interner()
        acc: Dict[int, List[int]] = {}
        batches: Dict[Tuple[int, int], int] = {}
        tallies = {"tlb": [0] * len(self.tlbs),
                   "tlb_remote": [0] * len(self.tlbs),
                   "bc_port": [0] * len(self.bcs),
                   "probes": 0}
        t_tlb = tallies["tlb"]
        t_rem = tallies["tlb_remote"]
        tid = np.full(n, -1, dtype=np.int32)
        lines = _Lines(n)

        # Rows found along the way that stage 1 leaves to the scalar
        # planner: multi-page ranges, bitmap rows touching an unmapped
        # address, and marking scans whose window hash overflows int64.
        leftover = np.zeros(n, dtype=bool)

        src_cube, src_psize, src_mapped = self.map.lookup_columns(src)
        dst_cube, dst_psize, dst_mapped = self.map.lookup_columns(dst)
        sized = size > 0
        if cpu_side:
            need_src = (copy_m & sized) | search_m \
                | (scan_m & (refs > 0))
        elif self.scan_local:
            need_src = copy_m | search_m | scan_m
        else:
            need_src = copy_m | search_m | (scan_m & (refs > 0))
        if (need_src & ~src_mapped).any() \
                or (copy_m & sized & ~dst_mapped).any():
            # An event will fault.  Replan everything through the
            # scalar planner, which raises the identical
            # ProtectionFault at the identical event — accounting is
            # deferred to the end of begin, so a faulting begin never
            # mutates the platform on either path.
            self._plan_events(compiled, info, range(n), tid, lines, acc,
                              batches, tallies)
        else:
            zeros = np.zeros(n, dtype=np.int64)
            ucube_cs = zeros if cpu_side else src_cube
            src_off = src % src_psize
            dst_off = dst % dst_psize

            # -- copies ----------------------------------------------
            rows = np.flatnonzero(copy_m & ~sized)
            self._plan_trivial(rows, ucube_cs[rows], "copy_search",
                               code_copy, 0, cyc, tid, batches)
            rows = np.flatnonzero(copy_m & sized)
            if len(rows):
                sz = size[rows]
                fits = (src_off[rows] + sz <= src_psize[rows]) \
                    & (dst_off[rows] + sz <= dst_psize[rows])
                leftover[rows[~fits]] = True
                vec = rows[fits]
                if len(vec):
                    u_a = ucube_cs[vec]
                    sc_a = src_cube[vec]
                    dc_a = dst_cube[vec]
                    sz_a = size[vec]
                    key = ((sz_a * 64 + u_a) * 64 + sc_a) * 64 + dc_a
                    _, first, inv = np.unique(key, return_index=True,
                                              return_inverse=True)
                    ids = []
                    for f0, m in zip(first.tolist(),
                                     np.bincount(inv).tolist()):
                        u0 = int(u_a[f0])
                        sc0 = int(sc_a[f0])
                        dc0 = int(dc_a[f0])
                        sz0 = int(sz_a[f0])
                        use_s = self._tlb_use(u0, sc0)
                        use_d = self._tlb_use(u0, dc0)
                        ids.append(self._template(
                            COPY, "copy_search", u0, 0,
                            ((use_s[0], use_s[1]), (use_d[0], use_d[1])),
                            (self._stream(u0, sc0, sz0, chunk, False),),
                            (self._stream(u0, dc0, sz0, chunk, False),)))
                        batches[(u0, code_copy)] = \
                            batches.get((u0, code_copy), 0) + m
                        for _, _, si, rem in (use_s, use_d):
                            t_tlb[si] += m
                            if rem:
                                t_rem[si] += m
                        tallies["probes"] += \
                            2 * math.ceil(sz0 / chunk) * m
                        self._account_stream(acc, u0, sc0, sz0 * m, m)
                        self._account_stream(acc, u0, dc0, sz0 * m, m)
                    tid[vec] = np.asarray(ids, dtype=np.int32)[inv]

            # -- searches --------------------------------------------
            rows = np.flatnonzero(search_m)
            if len(rows):
                examined = np.maximum(
                    32, derived["search_examined"][rows])
                fits = src_off[rows] + examined <= src_psize[rows]
                leftover[rows[~fits]] = True
                keep = np.flatnonzero(fits)
                if len(keep):
                    vec = rows[keep]
                    ex_a = examined[keep]
                    u_a = ucube_cs[vec]
                    sc_a = src_cube[vec]
                    key = (ex_a * 64 + u_a) * 64 + sc_a
                    _, first, inv = np.unique(key, return_index=True,
                                              return_inverse=True)
                    ids = []
                    for f0, m in zip(first.tolist(),
                                     np.bincount(inv).tolist()):
                        u0 = int(u_a[f0])
                        sc0 = int(sc_a[f0])
                        ex0 = int(ex_a[f0])
                        s_chunk = min(HMC_MAX_REQUEST, ex0)
                        use = self._tlb_use(u0, sc0)
                        ids.append(self._template(
                            SEARCH, "copy_search", u0, 1,
                            ((use[0], use[1]),),
                            (self._stream(u0, sc0, ex0, s_chunk, False),),
                            (), math.ceil(ex0 / 32) * cyc))
                        batches[(u0, code_search)] = \
                            batches.get((u0, code_search), 0) + m
                        t_tlb[use[2]] += m
                        if use[3]:
                            t_rem[use[2]] += m
                        tallies["probes"] += \
                            math.ceil(ex0 / s_chunk) * m
                        self._account_stream(acc, u0, sc0, ex0 * m, m)
                    tid[vec] = np.asarray(ids, dtype=np.int32)[inv]

            # -- scans ---------------------------------------------
            if cpu_side:
                u_all = zeros
            elif self.scan_local:
                u_all = src_cube
            else:
                u_all = np.full(n, self.central, dtype=np.int64)
            rows = np.flatnonzero(scan_m & (refs <= 0))
            self._plan_trivial(rows, u_all[rows], "scan_push", code_scan,
                               1, 2 * cyc, tid, batches)
            rows = np.flatnonzero(scan_m & (refs > 0))
            if len(rows):
                r_span = int(refs[rows].max()) + 1
                p_span = int(pushes[rows].max()) + 1
                if r_span * p_span * 64 * 64 >= 2 ** 62:
                    leftover[rows] = True
                    rows = rows[:0]
                # Marking scans carry per-event mark lines; the rest of
                # their plan groups like any other scan's.
                covered = info.heap_end - info.bitmap_covered_start
                if marking_kind and covered > 0:
                    self._mark_lines(
                        rows[pushes[rows] > 0], src, pushes, u_all,
                        covered, info.bitmap_base, tallies, leftover,
                        lines)
                    rows = rows[~leftover[rows]]
                if len(rows):
                    rf_a = refs[rows]
                    ps_a = pushes[rows]
                    u_a = u_all[rows]
                    oc_a = src_cube[rows]
                    key = ((rf_a * p_span + ps_a) * 64 + u_a) * 64 + oc_a
                    _, first, inv = np.unique(key, return_index=True,
                                              return_inverse=True)
                    ids = []
                    for f0, m in zip(first.tolist(),
                                     np.bincount(inv).tolist()):
                        u0 = int(u_a[f0])
                        oc0 = int(oc_a[f0])
                        rf0 = int(rf_a[f0])
                        ps0 = int(ps_a[f0])
                        slot_bytes = max(CACHE_LINE, rf0 * 8)
                        slot_stream = self._stream(u0, oc0, slot_bytes,
                                                   256, True)
                        self._account_stream(acc, u0, oc0,
                                             slot_bytes * m, m)
                        per_cube = [rf0 // self.ref_cubes] \
                            * self.ref_cubes
                        for extra in range(rf0 % self.ref_cubes):
                            per_cube[extra] += 1
                        ref_streams = []
                        for t, count in enumerate(per_cube):
                            if count == 0:
                                continue
                            nb = count * CACHE_LINE
                            ref_streams.append(self._stream(
                                u0, t, nb, CACHE_LINE, True))
                            self._account_stream(acc, u0, t, nb * m, m)
                        use = self._tlb_use(u0, oc0)
                        ids.append(self._template(
                            SCAN, "scan_push", u0, 1, ((use[0], use[1]),),
                            (slot_stream,), tuple(ref_streams),
                            ps0 * cyc))
                        batches[(u0, code_scan)] = \
                            batches.get((u0, code_scan), 0) + m
                        t_tlb[use[2]] += m
                        if use[3]:
                            t_rem[use[2]] += m
                        tallies["probes"] += rf0 * m
                    tid[rows] = np.asarray(ids, dtype=np.int32)[inv]

            # -- bitmap counts ---------------------------------------
            rows = np.flatnonzero(bitmap_m)
            if len(rows):
                self._plan_bitmap_counts(rows, ev, info, tid, lines,
                                         batches, tallies, leftover)

            rest = np.flatnonzero(leftover).tolist()
            if rest:
                self._plan_events(compiled, info, rest, tid, lines, acc,
                                  batches, tallies)

        self._finish_accounting(compiled, copy_m, batches, acc,
                                tallies)
        self._freeze(compiled, tid, lines)

    def _plan_trivial(self, rows: np.ndarray, units: np.ndarray,
                      kind_key: str, code: int, has_value: int,
                      tail: float, tid: np.ndarray,
                      batches: Dict[Tuple[int, int], int]) -> None:
        """Plan ``rows`` whose primitive costs the fixed ``tail`` and
        touches no memory: one template per unit cube in ``units``."""
        if not len(rows):
            return
        uq, inv = np.unique(units, return_inverse=True)
        ids = []
        for u0, m in zip(uq.tolist(), np.bincount(inv).tolist()):
            ids.append(self._template(FIXED, kind_key, u0, has_value,
                                      tail=tail))
            batches[(u0, code)] = batches.get((u0, code), 0) + m
        tid[rows] = np.asarray(ids, dtype=np.int32)[inv]

    def _bc_lines(self, line_addr: np.ndarray, unit: np.ndarray,
                  counts: np.ndarray, t_bc: List[int]
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`_bc_use` over one block's bitmap lines.

        ``line_addr`` and ``unit`` (the issuing unit's cube) are per-line
        columns, ``counts`` the number of lines of each row in order.
        Returns ``(ok, slices, penalties)``: whether each row's lines
        are all mapped (the scalar planner faults on the others), and
        each line's slice and remote penalty exactly as
        :meth:`_plan_events` resolves them.  Mapped rows' accesses are
        tallied into ``t_bc``.
        """
        cube, _, mapped = self.map.lookup_columns(line_addr)
        row = np.repeat(np.arange(len(counts)), counts)
        ok = np.bincount(row[~mapped], minlength=len(counts)) == 0
        si = cube if self.distributed else np.zeros_like(cube)
        pen = self._bc_pens[2 * si + (unit != self._bc_home[si])]
        tally = np.bincount(si[ok[row]], minlength=len(t_bc))
        for ci, accesses in enumerate(tally.tolist()):
            t_bc[ci] += accesses
        return ok, si, pen

    def _add_lines(self, lines: _Lines, rows: np.ndarray,
                   counts: np.ndarray, line_addr: np.ndarray,
                   unit: np.ndarray, tallies: Dict) -> np.ndarray:
        """Resolve one block's lines (``counts[k]`` of them for
        ``rows[k]``) and add the fully mapped rows' lines to ``lines``;
        returns which rows those are."""
        ok, si, pen = self._bc_lines(line_addr, unit, counts,
                                     tallies["bc_port"])
        keep = np.repeat(ok, counts)
        lines.add(rows[ok], counts[ok], line_addr[keep], si[keep],
                  pen[keep])
        return ok

    def _mark_lines(self, rows: np.ndarray, src: np.ndarray,
                    pushes: np.ndarray, unit: np.ndarray, covered: int,
                    bitmap_base: int, tallies: Dict,
                    leftover: np.ndarray, lines: _Lines) -> None:
        """Mark lines of marking-phase scan ``rows`` (all with pushes).

        Push ``k`` of a scan at ``src`` marks the bitmap line at byte
        offset ``(hash(src) + (src & 0x3FF0) + 64 k) % covered``, the
        scalar planner's hashed window.  Lines of fully mapped rows go
        to ``lines``; rows left to the scalar planner (an unmapped line,
        or a hash overflowing int64) are flagged in ``leftover``.
        """
        s_all = src[rows]
        fits = (s_all >= 0) & ((s_all >> 14) <= _HASH_LIMIT)
        leftover[rows[~fits]] = True
        rows = rows[fits]
        for lo in range(0, len(rows), PLAN_BLOCK_ROWS):
            blk = rows[lo:lo + PLAN_BLOCK_ROWS]
            s = src[blk]
            count = pushes[blk].astype(np.int64)
            window = ((s >> 14) * 2654435761) % covered + (s & 0x3FF0)
            first = np.cumsum(count) - count
            step = 64 * np.arange(int(count.sum()), dtype=np.int64)
            off = (np.repeat(window - 64 * first, count) + step) % covered
            ok = self._add_lines(lines, blk, count, bitmap_base + off // 64,
                                 np.repeat(unit[blk], count), tallies)
            leftover[blk[~ok]] = True

    def _plan_bitmap_counts(self, rows: np.ndarray, ev: np.ndarray, info,
                            tid: np.ndarray, lines: _Lines,
                            batches: Dict[Tuple[int, int], int],
                            tallies: Dict, leftover: np.ndarray) -> None:
        """Vectorized :meth:`_plan_events` over bitmap-count ``rows``.

        A count of ``bits`` bits at ``src`` reads the ``first..last``
        cache lines its words span in each of the two mark bitmaps.
        Rows touching an unmapped address (or with a negative ``src``)
        are flagged in ``leftover``, so the scalar planner plans them or
        raises their fault in event order.
        """
        code = PRIMITIVE_TYPE_CODES[Primitive.BITMAP_COUNT]
        cyc = self.cyc
        bc_line = self.bcs[0].line_bytes
        src = ev["src"][rows]
        bits = ev["bits"][rows]
        # src >= 0 keeps the address arithmetic inside int64.
        ok = src >= 0
        byte_lo = (src - info.bitmap_covered_start) // WORD // 8
        if self.cpu_side:
            unit = np.zeros(len(rows), dtype=np.int64)
        else:
            unit, _, mapped = self.map.lookup_columns(
                info.bitmap_base + byte_lo)
            ok &= mapped
        counting = bits > 0
        owner = 0
        if self.distributed:
            entry = self.map.lookup(info.bitmap_base)
            if entry is None:
                ok &= ~counting
            else:
                owner = entry[0]
        leftover[rows[~ok]] = True

        pos = np.flatnonzero(ok & ~counting)
        self._plan_trivial(rows[pos], unit[pos], "bitmap_count", code, 1,
                           cyc, tid, batches)

        pos = np.flatnonzero(ok & counting)
        words = (bits + 63) // 64
        planned = np.zeros(len(rows), dtype=bool)
        bases = (info.bitmap_base, info.bitmap_base + info.bitmap_bytes)
        for lo in range(0, len(pos), PLAN_BLOCK_ROWS):
            blk = pos[lo:lo + PLAN_BLOCK_ROWS]
            byte_a = byte_lo[blk]
            byte_b = byte_a + words[blk] * WORD
            first = np.stack([(base + byte_a) // bc_line
                              for base in bases], axis=1).ravel()
            count = np.stack([(base + byte_b - 1) // bc_line
                              for base in bases], axis=1).ravel() \
                - first + 1
            seg = np.cumsum(count) - count
            index = np.repeat(first - seg, count) \
                + np.arange(int(count.sum()), dtype=np.int64)
            per_row = count[0::2] + count[1::2]
            good = self._add_lines(lines, rows[blk], per_row,
                                   index * bc_line,
                                   np.repeat(unit[blk], per_row), tallies)
            leftover[rows[blk[~good]]] = True
            planned[blk[good]] = True
        # One template per (unit cube, words): the count's tail time.
        done = np.flatnonzero(planned)
        if len(done):
            u_d = unit[done]
            w_d = words[done]
            _, first, inv = np.unique(u_d * (int(w_d.max()) + 1) + w_d,
                                      return_index=True,
                                      return_inverse=True)
            ids = []
            for u0, w in zip(u_d[first].tolist(), w_d[first].tolist()):
                use = self._tlb_use(u0, owner)
                ids.append(self._template(BITMAP, "bitmap_count", u0, 1,
                                          ((use[0], use[1]),),
                                          tail=w * cyc))
            tid[rows[done]] = np.asarray(ids, dtype=np.int32)[inv]
        uq, counts = np.unique(unit[planned], return_counts=True)
        for u0, m in zip(uq.tolist(), counts.tolist()):
            batches[(u0, code)] = batches.get((u0, code), 0) + m
            _, _, si, remote = self._tlb_use(u0, owner)
            tallies["tlb"][si] += m
            if remote:
                tallies["tlb_remote"][si] += m

    def _plan_events(self, compiled: CompiledTrace, info, indices,
                     tid: np.ndarray, lines: _Lines,
                     acc: Dict[int, List[int]],
                     batches: Dict[Tuple[int, int], int],
                     tallies: Dict[str, int]) -> None:
        """Scalar (per-event) planner — the reference implementation.

        Plans ``indices`` exactly as the event-by-event offload path
        would, into the same template table and line CSR, mutating the
        shared accumulators.  The vectorized stage 1 routes here only
        the rows it cannot plan in numpy: copies, searches and scans
        whose range crosses a page, bitmap counts and marking-phase
        scans that touch an unmapped address (or, for scans, whose
        window hash would overflow int64) — plus the whole trace when a
        copy, search or scan address is unmapped, so the
        ProtectionFault is raised in event order.
        """
        cube_of = self.map.cube_of
        marking_kind = compiled.kind in ("major", "g1", "concurrent")
        covered = info.heap_end - info.bitmap_covered_start
        bc_line = self.bcs[0].line_bytes
        cyc = self.cyc
        chunk = self.chunk
        t_tlb = tallies["tlb"]
        t_rem = tallies["tlb_remote"]
        t_bc = tallies["bc_port"]
        bitmap_owner = None  # slice owner of the map base, lazily
        line_rows: List[int] = []
        line_counts: List[int] = []
        touched: List[Tuple[int, int, float]] = []

        ev = compiled.events
        prim_c = ev["prim"]
        src_c = ev["src"]
        dst_c = ev["dst"]
        size_c = ev["size_bytes"]
        refs_c = ev["refs"]
        pushes_c = ev["pushes"]
        bits_c = ev["bits"]
        found_c = ev["found"]

        code_copy = PRIMITIVE_TYPE_CODES[Primitive.COPY]
        code_search = PRIMITIVE_TYPE_CODES[Primitive.SEARCH]
        code_scan = PRIMITIVE_TYPE_CODES[Primitive.SCAN_PUSH]

        for i in indices:
            p = int(prim_c[i])
            src = int(src_c[i])
            if p == code_scan:
                if self.cpu_side:
                    cube = 0
                elif self.scan_local:
                    cube = cube_of(src)
                else:
                    cube = self.central
                kind_key = "scan_push"
            elif p == code_copy or p == code_search:
                cube = 0 if self.cpu_side else cube_of(src)
                kind_key = "copy_search"
            else:
                bit_index = (src - info.bitmap_covered_start) // WORD
                baddr = info.bitmap_base + bit_index // 8
                cube = 0 if self.cpu_side else cube_of(baddr)
                kind_key = "bitmap_count"
            unit_cube = cube  # units live on their routing cube
            marks = None

            if p == code_copy:
                size = int(size_c[i])
                if size <= 0:
                    plan = (FIXED, (), (), (), cyc)
                    uses = ()
                else:
                    dst = int(dst_c[i])
                    use_s = self._tlb_use(
                        unit_cube,
                        cube_of(src) if self.distributed else 0)
                    use_d = self._tlb_use(
                        unit_cube,
                        cube_of(dst) if self.distributed else 0)
                    runs = self.map.split(src, size)
                    reads = tuple(self._stream(unit_cube, t, nb, chunk,
                                               False) for nb, t in runs)
                    for nb, t in runs:
                        self._account_stream(acc, unit_cube, t, nb)
                    runs = self.map.split(dst, size)
                    writes = tuple(self._stream(unit_cube, t, nb, chunk,
                                                False) for nb, t in runs)
                    for nb, t in runs:
                        self._account_stream(acc, unit_cube, t, nb)
                    plan = (COPY, ((use_s[0], use_s[1]),
                                   (use_d[0], use_d[1])),
                            reads, writes, 0.0)
                    uses = (use_s, use_d)
                    tallies["probes"] += 2 * math.ceil(size / chunk)
                has_value = 0
            elif p == code_search:
                size = int(size_c[i])
                examined = max(32, size // 2 if found_c[i] else size)
                s_chunk = min(HMC_MAX_REQUEST, max(32, examined))
                use = self._tlb_use(
                    unit_cube,
                    cube_of(src) if self.distributed else 0)
                runs = self.map.split(src, examined)
                searched = tuple(
                    self._stream(unit_cube, t, nb, s_chunk, False)
                    for nb, t in runs)
                for nb, t in runs:
                    self._account_stream(acc, unit_cube, t, nb)
                plan = (SEARCH, ((use[0], use[1]),), searched, (),
                        math.ceil(examined / 32) * cyc)
                uses = (use,)
                tallies["probes"] += math.ceil(examined / s_chunk)
                has_value = 1
            elif p == code_scan:
                refs = int(refs_c[i])
                if refs <= 0:
                    plan = (FIXED, (), (), (), 2 * cyc)
                    uses = ()
                else:
                    obj_cube = cube_of(src)
                    use = self._tlb_use(unit_cube, obj_cube)
                    slot_bytes = max(CACHE_LINE, refs * 8)
                    slot_stream = self._stream(
                        unit_cube, obj_cube, slot_bytes, 256, True)
                    self._account_stream(acc, unit_cube, obj_cube,
                                         slot_bytes)
                    per_cube = [refs // self.ref_cubes] * self.ref_cubes
                    for extra in range(refs % self.ref_cubes):
                        per_cube[extra] += 1
                    ref_streams = []
                    for t, count in enumerate(per_cube):
                        if count == 0:
                            continue
                        nb = count * CACHE_LINE
                        ref_streams.append(self._stream(
                            unit_cube, t, nb, CACHE_LINE, True))
                        self._account_stream(acc, unit_cube, t, nb)
                    pushes = int(pushes_c[i])
                    if marking_kind and pushes and covered > 0:
                        window_base = ((src >> 14) * 2654435761) \
                            % max(1, covered)
                        marks = []
                        for index in range(pushes):
                            off = (window_base + (src & 0x3FF0)
                                   + index * 64) % covered
                            line_addr = info.bitmap_base + off // 64
                            ci, bpen = self._bc_use(
                                unit_cube, cube_of(line_addr))
                            marks.append((line_addr, ci, bpen))
                            t_bc[ci] += 1
                    plan = (SCAN, ((use[0], use[1]),), (slot_stream,),
                            tuple(ref_streams), pushes * cyc)
                    uses = (use,)
                    tallies["probes"] += refs
                has_value = 1
            else:  # bitmap count
                bits = int(bits_c[i])
                if bits <= 0:
                    plan = (FIXED, (), (), (), cyc)
                    uses = ()
                else:
                    # The scalar unit translates the (constant) map
                    # base, so the owning slice is fixed per trace.
                    if bitmap_owner is None:
                        bitmap_owner = (cube_of(info.bitmap_base)
                                        if self.distributed else 0)
                    use = self._tlb_use(unit_cube, bitmap_owner)
                    words = (bits + 63) // 64
                    bit_offset = (src - info.bitmap_covered_start) // WORD
                    byte_lo = bit_offset // 8
                    byte_hi = byte_lo + words * WORD
                    marks = []
                    for map_base in (info.bitmap_base,
                                     info.bitmap_base
                                     + info.bitmap_bytes):
                        first = (map_base + byte_lo) // bc_line
                        last = (map_base + byte_hi - 1) // bc_line
                        for idx in range(first, last + 1):
                            line_addr = idx * bc_line
                            ci, bpen = self._bc_use(
                                unit_cube, cube_of(line_addr))
                            marks.append((line_addr, ci, bpen))
                            t_bc[ci] += 1
                    plan = (BITMAP, ((use[0], use[1]),), (), (),
                            words * cyc)
                    uses = (use,)
                has_value = 1

            for _, _, si, rem in uses:
                t_tlb[si] += 1
                if rem:
                    t_rem[si] += 1
            batches[(cube, p)] = batches.get((cube, p), 0) + 1
            kind, tlb, g0, g1, tail = plan
            tid[i] = self._template(kind, kind_key, cube, has_value, tlb,
                                    g0, g1, tail)
            if marks:
                line_rows.append(i)
                line_counts.append(len(marks))
                touched += marks
        if line_rows:
            addrs, slices, pens = zip(*touched)
            lines.add(np.array(line_rows, dtype=np.int64),
                      np.array(line_counts, dtype=np.int64),
                      np.array(addrs, dtype=np.int64),
                      np.array(slices, dtype=np.int32),
                      np.array(pens, dtype=np.float64))

    def _finish_accounting(self, compiled: CompiledTrace,
                           copy_m: np.ndarray,
                           batches: Dict[Tuple[int, int], int],
                           acc: Dict[int, List[int]],
                           tallies: Dict[str, int]) -> None:
        """Apply every order-independent counter begin accumulated."""
        device = self.device
        code_copy = PRIMITIVE_TYPE_CODES[Primitive.COPY]
        probe_requests = tallies["probes"]
        for (cube, p), count in batches.items():
            device.record_offload_batch(cube, CODE_TO_PRIMITIVE[p],
                                        count, p != code_copy)
        if not self.cpu_side:
            hl = self.hmc.host_link
            n_events = len(compiled.events)
            n_copy = int(copy_m.sum())
            req_b = self._req_size * n_events
            resp_b = self._resp_sizes[0] * n_copy \
                + self._resp_sizes[1] * (n_events - n_copy)
            probe_b = 8 * probe_requests
            hl.account_bulk(req_b + resp_b + probe_b,
                            2 * n_events + probe_requests)
            cross: Dict[int, List[int]] = {}
            for (cube, p), count in batches.items():
                for link in self.hmc._link_chain(self.central, cube):
                    size = (self._req_size
                            + self._resp_sizes[1 if p != code_copy
                                               else 0])
                    counters = cross.setdefault(id(link), [0, 0, link])
                    counters[0] += size * count
                    counters[1] += 2 * count
            for nbytes, requests, link in cross.values():
                link.account_bulk(nbytes, requests)
            self.hmc.unit_local_bytes += self._local_bytes
            self.hmc.unit_remote_bytes += self._remote_bytes
        for si, lookups in enumerate(tallies["tlb"]):
            if lookups:
                tlb = self.tlbs[si]
                tlb.lookups += lookups
                tlb.port.account_bulk(lookups, lookups)
        for si, remote in enumerate(tallies["tlb_remote"]):
            if remote:
                self.tlbs[si].remote_lookups += remote
        for ci, accesses in enumerate(tallies["bc_port"]):
            if accesses:
                self.bcs[ci].port.account_bulk(accesses, accesses)
        for ri, (nbytes, requests) in acc.items():
            self.lanes.resources[ri].account_bulk(nbytes, requests)

    def _freeze(self, compiled: CompiledTrace, tid: np.ndarray,
                lines: _Lines) -> None:
        """Flatten this trace's plan into :attr:`plan` (the columns
        stage 2 reads) and the stage-2 argument block."""
        keys, pid = _prim_index(compiled)
        self.lanes.size()
        self._sums = _PrimSums(keys)
        self.plan = {"tid": tid, **lines.columns(),
                     **_charon_template_columns(self._templates.items),
                     **_stream_columns(self._streams.items)}
        self._block = native.Block(native.CHARON_FIELDS, {
            "threads": self.threads, "pid": pid, **self.plan,
            "dispatch": self.dispatch, "tlb_svc": self.tlb_svc,
            "access_lat": self.access_lat, "bc_svc": self.bc_svc,
            "bc_mem": self.bc_mem, "bc_enabled": int(self.bc_enabled),
            "bc_slot": np.array(self.bc_slots, dtype=np.int32),
            "pool_off": self._pool_off, "unit_busy": self._unit_busy,
            "unit_cmds": self._unit_cmds, "unit_time": self._unit_time,
            "sets": self._sets, "ways": self._ways,
            "line_bytes": self.bcs[0].line_bytes, "tag": self._tag,
            "dirty": self._dirty, "stamp": self._stamp,
            "clock": self._clock, "bc_stats": self._bc_stats,
            "H": self.lanes.H, "sums": self._sums.sums,
            "present": self._sums.present})

    # -- stage 2 -----------------------------------------------------------

    def run_phase(self, lo: int, hi: int, start: float,
                  prim_seconds: Dict[Primitive, float]
                  ) -> Tuple[float, float]:
        self.chunks_processed += _chunks(lo, hi, len(self.plan["tid"]))
        line_off = self.plan["line_off"]
        bitmap = bool(line_off[hi] > line_off[lo])
        self.lanes.sync_in()
        self._unit_busy[:] = [unit.busy_until for unit in self._units]
        if bitmap and self.bc_enabled:
            self._caches_in()
        self._sums.load(prim_seconds)
        if self.native.charon_phase(self._block.address, lo, hi, start,
                                    self._out.ctypes.data):
            raise MemoryError("stage-2 thread heap allocation failed")
        self._sums.store(prim_seconds)
        if bitmap:
            self._caches_out()
        self.lanes.sync_out()
        self._units_out()
        return float(self._out[0]), (hi - lo) * self.dispatch

    # -- state synchronisation ---------------------------------------------

    def _units_out(self) -> None:
        for unit, busy, cmds, seconds in zip(
                self._units, self._unit_busy.tolist(),
                self._unit_cmds.tolist(), self._unit_time.tolist()):
            unit.busy_until = busy
            if cmds:
                unit.commands += cmds
                unit.busy_time += seconds
        self._unit_cmds[:] = 0
        self._unit_time[:] = 0.0

    def _caches_in(self) -> None:
        """Load every slice's tags into the stage-2 arrays: a set's
        lines take stamps ``1..k`` from least to most recently used."""
        ways = self._ways
        tag, dirty, stamp = self._tag, self._dirty, self._stamp
        stamp[:] = 0
        for ci, bc in enumerate(self.bcs):
            base = ci * self._sets
            for s, lines in enumerate(bc.cache.lru_state()):
                w0 = (base + s) * ways
                for w, (line_tag, line_dirty) in enumerate(lines):
                    tag[w0 + w] = line_tag
                    dirty[w0 + w] = line_dirty
                    stamp[w0 + w] = w + 1
        self._clock[:] = ways

    def _caches_out(self) -> None:
        """Write the tags back (LRU order = stamp order) and fold the
        phase's counters into each slice."""
        stats = self._bc_stats.reshape(len(self.bcs), 6).tolist()
        if self.bc_enabled:
            ways = self._ways
            rows = zip(self._stamp.reshape(-1, ways).tolist(),
                       self._tag.reshape(-1, ways).tolist(),
                       self._dirty.reshape(-1, ways).tolist())
            for bc, counts in zip(self.bcs, stats):
                state = []
                for _ in range(self._sets):
                    stamps, tags, dirty = next(rows)
                    state.append([(t, bool(d)) for stamp, t, d in
                                  sorted(zip(stamps, tags, dirty))
                                  if stamp])
                bc.cache.set_lru_state(state)
                for name, value in zip(_BC_STATS, counts):
                    setattr(bc.cache, name, getattr(bc.cache, name) + value)
        for bc, counts in zip(self.bcs, stats):
            if counts[4]:
                bc.record_reads(counts[4], counts[5])
        self._bc_stats[:] = 0


def kernel_for(platform, threads: int):
    """The replay kernel for ``platform`` at ``threads`` GC threads."""
    name = platform.name
    if name == "ideal":
        return ClosedFormKernel(platform, threads, _zero_durations)
    if name == "cpu-ddr4":
        if threads == 1:
            return ClosedFormKernel(platform, threads,
                                    _DDR4Streams(platform).durations)
        return DDR4BatchedKernel(platform, threads)
    if name == "cpu-hmc":
        return HostHMCBatchedKernel(platform, threads)
    if name in ("charon", "charon-cpuside"):
        return CharonBatchedKernel(platform, threads)
    raise ConfigError(f"no replay kernel models platform {name!r}")
