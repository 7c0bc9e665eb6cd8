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
  queue statistics) in bulk;
* **stage 2** (:meth:`run_phase`) replays only the order-dependent
  recurrence — thread clocks under least-loaded assignment, fluid
  resource ``busy_until`` horizons, unit busy clocks, the anonymous cube
  cursor, and the bitmap cache's real tag state — as a tight chunked
  Python loop over the precomputed plans, with no cost-model calls and
  no :class:`~repro.gcalgo.trace.TraceEvent` dispatch.

Equivalence is *exact by construction* for every integer counter and
every individual IEEE-754 operation on the critical path: stage 2
replicates the scalar code's operation order (``max`` placement,
addition association, division operands) so clock values match bit for
bit; only bulk-summed float accounting (busy time, energy) and
cross-phase float accumulations may differ within the fast path's 1e-9
relative contract.  ``tests/test_fast_replay_equivalence.py`` holds the
golden comparisons.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, ProtectionFault
from repro.gcalgo.columnar import (CODE_TO_PRIMITIVE, CompiledTrace,
                                   PRIMITIVE_TYPE_CODES)
from repro.gcalgo.trace import Primitive, is_marking_phase
from repro.units import CACHE_LINE, HMC_MAX_REQUEST, WORD

#: Stage-2 loop granularity: plans are consumed in slices of this many
#: events (the ``replay.kernel.chunks`` metric counts these).
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
                ) -> Tuple[List[Primitive], List[int]]:
    """``(keys, per-event key index)`` for a compiled trace.

    Stage 2 accumulates per-primitive durations into a small list
    indexed by these ids instead of hashing enum members per event;
    the per-primitive addition order is untouched (each primitive's
    events still add in event order), so results stay bit-identical.
    Pure function of the trace, memoized on it (callers must not
    mutate the returned lists).
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
        hit = cache["prim_index"] = (keys, ids.tolist())
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
    """

    def __init__(self) -> None:
        self.resources: List = []
        self._index: Dict[int, int] = {}
        self.H: List[float] = []
        self.acc_bytes: List[int] = []
        self.acc_reqs: List[int] = []

    def register(self, resource) -> int:
        """Resource index (lane slots are ``2i`` bulk, ``2i+1`` small)."""
        key = id(resource)
        index = self._index.get(key)
        if index is None:
            index = len(self.resources)
            self._index[key] = index
            self.resources.append(resource)
            self.H.extend((0.0, 0.0))
            self.acc_bytes.append(0)
            self.acc_reqs.append(0)
        return index

    def slot(self, resource, priority: bool) -> int:
        return 2 * self.register(resource) + (1 if priority else 0)

    def sync_in(self) -> None:
        H = self.H
        for i, resource in enumerate(self.resources):
            H[2 * i] = resource.busy_until
            H[2 * i + 1] = resource.small_busy_until

    def sync_out(self) -> None:
        H = self.H
        for i, resource in enumerate(self.resources):
            resource.busy_until = H[2 * i]
            resource.small_busy_until = H[2 * i + 1]
            if self.acc_reqs[i] or self.acc_bytes[i]:
                resource.account_bulk(self.acc_bytes[i], self.acc_reqs[i])
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
# Host-executed kernels (cpu-ddr4 multi-thread, cpu-hmc)
# ---------------------------------------------------------------------------

class DDR4BatchedKernel:
    """Multi-threaded DDR4 replay: precomputed costs, horizon recurrence.

    Stage 1 builds the :class:`_DDR4Streams` columns; the only state
    left for stage 2 is the two channels' bulk/priority FIFO horizons
    and the GC thread clocks (least-loaded assignment via the same heap
    the event-by-event replayer uses).
    """

    name = "ddr4-batched"

    def __init__(self, platform, threads: int) -> None:
        self.platform = platform
        self.threads = threads
        self.streams = _DDR4Streams(platform)
        self.lanes = _Lanes()
        self.ch_slots = [(self.lanes.slot(ch, False),
                          self.lanes.slot(ch, True))
                         for ch in self.streams.channels]
        self.chunks_processed = 0
        self._cols = None

    def begin(self, compiled: CompiledTrace) -> None:
        compute, miss, r_i, service, a_term, b_term, priority = \
            self.streams.columns(compiled)
        self._prim_keys, prim_ids = _prim_index(compiled)
        self._cols = (compute.tolist(), miss.tolist(), r_i.tolist(),
                      service.tolist(), a_term.tolist(), b_term.tolist(),
                      priority.tolist(), prim_ids)

    def run_phase(self, lo: int, hi: int, start: float,
                  prim_seconds: Dict[Primitive, float]
                  ) -> Tuple[float, float]:
        lanes = self.lanes
        lanes.sync_in()
        H = lanes.H
        (compute, miss, r_i, service, a_term, b_term, priority,
         pids) = self._cols
        (c0_bulk, c0_small), (c1_bulk, c1_small) = self.ch_slots
        keys = self._prim_keys
        sums = [prim_seconds.get(key) for key in keys]
        busy = 0.0
        heap = [(start, index) for index in range(self.threads)]
        heapify(heap)
        for chunk_lo in range(lo, hi, CHUNK_EVENTS):
            chunk_hi = min(hi, chunk_lo + CHUNK_EVENTS)
            self.chunks_processed += 1
            for i in range(chunk_lo, chunk_hi):
                now, index = heappop(heap)
                finish = now + compute[i]
                if miss[i] > 0:
                    share = r_i[i]
                    a = a_term[i]
                    if share > 0:
                        if priority[i]:
                            l0, l1 = c0_small, c1_small
                        else:
                            l0, l1 = c0_bulk, c1_bulk
                        svc = service[i]
                        fl = (now + a) + b_term[i]
                        s = H[l0]
                        if s < now:
                            s = now
                        e0 = s + svc
                        H[l0] = e0
                        if fl > e0:
                            e0 = fl
                        s = H[l1]
                        if s < now:
                            s = now
                        e1 = s + svc
                        H[l1] = e1
                        if fl > e1:
                            e1 = fl
                        mem = e0 if e0 > e1 else e1
                    else:
                        mem = now + a
                    if mem > finish:
                        finish = mem
                duration = finish - now
                pid = pids[i]
                prev = sums[pid]
                sums[pid] = (duration if prev is None
                             else prev + duration)
                busy += duration
                heappush(heap, (finish, index))
        for key, value in zip(keys, sums):
            if value is not None:
                prim_seconds[key] = value
        barrier = max(clock for clock, _ in heap)
        lanes.sync_out()
        return barrier, busy


class HostHMCBatchedKernel:
    """``cpu-hmc`` replay: per-cube routed host streams, batched.

    Stage 1 resolves every event's miss range into per-cube runs through
    the :class:`_CubeMap` mirror and freezes each run's path (host link,
    cube-to-cube hop, destination TSVs) into ``(slots, services,
    latency-bound constants)``; stage 2 replays only the shared-FIFO
    horizon recurrence.  Ranges that fault (unmapped addresses) fall
    back — exactly like :meth:`HMCHostPort.stream_range` — to the
    anonymous round-robin stream, whose cube cursor is *shared state*
    advanced through the real port so the interleaving with scalar
    residual work is preserved.
    """

    name = "hmc-batched"

    def __init__(self, platform, threads: int) -> None:
        core = platform.host.core
        costs = platform.config.costs
        self.platform = platform
        self.threads = threads
        self.costs = costs
        self.port = platform.port
        self.hmc = platform.hmc
        self.ipc_hz = core.config.gc_ipc * core.config.freq_hz
        self.hit_lat = costs.cache_hit_latency_s
        self.mlp = core.mlp
        self.lanes = _Lanes()
        self.map = _CubeMap(self.port.vm, self.port.pcid)
        # Per-cube host paths: resource lists and path latency, frozen
        # from the real topology objects.
        self._paths = []
        for cube in range(self.hmc.config.cubes):
            resources = self.hmc.host_path(cube).resources
            self._paths.append((resources, _path_latency(resources)))
        self.chunks_processed = 0
        self._plan_cache: Dict[Tuple, Tuple] = {}
        self._compute: List[float] = []
        self._prim_keys: List[Primitive] = []
        self._prim_ids: List[int] = []
        self._plans: List = []

    def _stream_plan(self, cube: int, nbytes: int, prio: bool,
                     dep: float) -> Tuple:
        """((slot, service) pairs, A, B) of one run, cached by key."""
        key = (cube, nbytes, prio, dep)
        plan = self._plan_cache.get(key)
        if plan is None:
            resources, lat = self._paths[cube]
            pairs = tuple((self.lanes.slot(r, prio), nbytes / r.rate)
                          for r in resources)
            n_req = math.ceil(nbytes / CACHE_LINE)
            a_term = lat * dep
            b_term = (n_req - 1) * (lat / self.mlp)
            plan = (pairs, a_term, b_term)
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
        plans: List = [None] * n
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
                table = []
                for f0 in first.tolist():
                    r0 = int(need[rows[f0]])
                    pairs, a, b = self._stream_plan(
                        int(cube_s[f0]), int(nb_s[f0]),
                        bool(priority[r0]), float(dep[r0]))
                    table.append((1, pairs, a, b))
                for i, j in zip(need[rows].tolist(), inv.tolist()):
                    plans[i] = table[j]
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
                plans[i] = (0, nbytes, self.port.anon_share(nbytes),
                            prio, d)
                continue
            event_plan = []
            for run_len, cube_r in runs:
                event_plan.append(self._stream_plan(cube_r, run_len,
                                                    prio, d))
                self._account_runs(acc, cube_r, run_len, 1)
            if len(event_plan) == 1:
                pairs, a, b = event_plan[0]
                plans[i] = (1, pairs, a, b)
            else:
                plans[i] = (2, tuple(event_plan))
        for ri, (nbytes, requests) in acc.items():
            self.lanes.resources[ri].account_bulk(nbytes, requests)
        self._plans = plans
        self._compute = compute.tolist()
        self._prim_keys, self._prim_ids = _prim_index(compiled)

    def _anon_event(self, now: float, H: List[float], plan) -> float:
        """One faulting range streamed anonymously (stage-2 state: the
        cube cursor); accounting accumulates into the lanes."""
        _, nbytes, share, prio, dep = plan
        lanes = self.lanes
        port = self.port
        mem = now
        remaining = nbytes
        while remaining > 0:
            cube = port.take_anon_cube()
            piece = share if share < remaining else remaining
            resources, lat = self._paths[cube]
            f = now
            for resource in resources:
                ri = lanes.register(resource)
                sl = 2 * ri + (1 if prio else 0)
                s = H[sl]
                if s < now:
                    s = now
                e = s + piece / resource.rate
                H[sl] = e
                if e > f:
                    f = e
                lanes.acc_bytes[ri] += piece
                lanes.acc_reqs[ri] += 1
            # stream_anon passes the range's priority through but keeps
            # dependent_batches at 1 (its default).
            fl = (now + lat * 1) + \
                (math.ceil(piece / CACHE_LINE) - 1) * (lat / self.mlp)
            if fl > f:
                f = fl
            if f > mem:
                mem = f
            remaining -= piece
        return mem

    def run_phase(self, lo: int, hi: int, start: float,
                  prim_seconds: Dict[Primitive, float]
                  ) -> Tuple[float, float]:
        lanes = self.lanes
        lanes.sync_in()
        H = lanes.H
        compute = self._compute
        pids = self._prim_ids
        keys = self._prim_keys
        sums = [prim_seconds.get(key) for key in keys]
        plans = self._plans
        busy = 0.0
        heap = [(start, index) for index in range(self.threads)]
        heapify(heap)
        for chunk_lo in range(lo, hi, CHUNK_EVENTS):
            chunk_hi = min(hi, chunk_lo + CHUNK_EVENTS)
            self.chunks_processed += 1
            for cmp, plan, pid in zip(compute[chunk_lo:chunk_hi],
                                      plans[chunk_lo:chunk_hi],
                                      pids[chunk_lo:chunk_hi]):
                now, index = heappop(heap)
                finish = now + cmp
                if plan is not None:
                    tag = plan[0]
                    if tag == 1:  # one run (the hot case), inlined
                        _, pairs, a_term, b_term = plan
                        f = now
                        for sl, svc in pairs:
                            s = H[sl]
                            if s < now:
                                s = now
                            e = s + svc
                            H[sl] = e
                            if e > f:
                                f = e
                        fl = (now + a_term) + b_term
                        mem = fl if fl > f else f
                    elif tag == 0:
                        mem = self._anon_event(now, H, plan)
                    else:  # multi-run range
                        mem = now
                        for pairs, a_term, b_term in plan[1]:
                            f = now
                            for sl, svc in pairs:
                                s = H[sl]
                                if s < now:
                                    s = now
                                e = s + svc
                                H[sl] = e
                                if e > f:
                                    f = e
                            fl = (now + a_term) + b_term
                            if fl > f:
                                f = fl
                            if f > mem:
                                mem = f
                    if mem > finish:
                        finish = mem
                duration = finish - now
                prev = sums[pid]
                sums[pid] = (duration if prev is None
                             else prev + duration)
                busy += duration
                heappush(heap, (finish, index))
        for key, value in zip(keys, sums):
            if value is not None:
                prim_seconds[key] = value
        barrier = max(clock for clock, _ in heap)
        lanes.sync_out()
        return barrier, busy


# ---------------------------------------------------------------------------
# Charon offload kernel
# ---------------------------------------------------------------------------

class CharonBatchedKernel:
    """Batched offload replay for ``charon`` / ``charon-cpuside``.

    Stage 1 routes every event to its (cube, unit-class) pool, freezes
    the request/response packet chains into flat time addends, compiles
    each unit execution into stream plans and bitmap line lists, and
    bulk-applies every order-independent counter (offload tallies,
    packet/probe/link bytes, TLB lookup counts, unit local/remote
    bytes).  Stage 2 keeps only what is genuinely order-dependent: the
    per-unit busy clocks (least-loaded dispatch), the link/TSV and
    TLB/bitmap-cache port horizons, and the bitmap cache's real tag/LRU
    state machine.

    Distributed charon is handled by resolving every TLB lookup and
    bitmap-cache access to its owning slice at plan time: plans carry
    ``(port slot, remote penalty)`` pairs (and per-line ``(address,
    slice, penalty)`` triples) instead of assuming the single central
    slice, and stage 2 keeps one port horizon and one tag array per
    slice.  With one slice the arithmetic degenerates to the unified
    fast path bit-for-bit.
    """

    name = "charon-batched"

    def __init__(self, platform, threads: int) -> None:
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
        self.bc_access = [b.cache.access for b in self.bcs]
        self.bc_slots = [self.lanes.slot(b.port, False)
                         for b in self.bcs]
        self.bc_svc = 1 / self.bcs[0].port.rate
        self.bc_mem = self.bcs[0].memory_latency_s
        self.bc_enabled = self.bcs[0].enabled
        # Per-slice home cubes and the remote penalty of each (slice,
        # remote?) pair at index ``2 * slice + remote``, one float
        # object per pair as ``_bc_use`` shares them.
        self._bc_home = np.array([b.home_cube for b in self.bcs],
                                 dtype=np.int64)
        self._bc_pens = np.array(
            [pen for b in self.bcs for pen in (0.0, 2 * b.link_latency_s)],
            dtype=object)
        self._read_acc = [0] * len(self.bcs)
        self._read_hits = [0] * len(self.bcs)

        # Unit pools, in the device's routing keys.
        self.pools: List[List] = []
        self.pool_of: Dict[Tuple[str, int], int] = {}
        for key, units in device.units.items():
            self.pool_of[key] = len(self.pools)
            self.pools.append(units)
        self._busy = [[0.0] * len(p) for p in self.pools]
        self._acc_cmds = [[0] * len(p) for p in self.pools]
        self._acc_busy = [[0.0] * len(p) for p in self.pools]

        # Per-(unit cube, target cube) stream paths.
        self._paths: Dict[Tuple[int, int], Tuple[List, float]] = {}
        self._plan_cache: Dict[Tuple, Tuple] = {}

        # Packet chains (flat addends) per destination cube.
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
                    tuple(self._req_size / l.rate + l.latency
                          for l in cross))
                back = self.hmc._link_chain(cube, self.central)
                for hv, size in ((0, self._resp_sizes[0]),
                                 (1, self._resp_sizes[1])):
                    self._resp_chain[(cube, hv)] = (
                        tuple(size / l.rate + l.latency for l in back),
                        size / hl.rate, hl.latency)
        self.chunks_processed = 0
        self._plans: List = []
        self._prim_keys: List[Primitive] = []
        self._prim_ids: List[int] = []
        self._bc_uses: Dict[Tuple[int, int], Tuple[int, float]] = {}

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

    def _entry(self, kind_key: str, u: int, has_value: int,
               ex: Tuple) -> Tuple:
        """The per-event plan tuple stage 2 consumes."""
        pool = self.pool_of[(kind_key, u)]
        if self.cpu_side:
            return (pool, None, None, ex)
        return (pool, self._req_chain[u],
                self._resp_chain[(u, has_value)], ex)

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
        acc: Dict[int, List[int]] = {}
        batches: Dict[Tuple[int, int], int] = {}
        tallies = {"tlb": [0] * len(self.tlbs),
                   "tlb_remote": [0] * len(self.tlbs),
                   "bc_port": [0] * len(self.bcs),
                   "probes": 0}
        t_tlb = tallies["tlb"]
        t_rem = tallies["tlb_remote"]
        plans: List = [None] * n

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
            self._plan_events(compiled, info, range(n), plans, acc,
                              batches, tallies)
        else:
            zeros = np.zeros(n, dtype=np.int64)
            ucube_cs = zeros if cpu_side else src_cube
            src_off = src % src_psize
            dst_off = dst % dst_psize

            # -- copies ----------------------------------------------
            rows = np.flatnonzero(copy_m & ~sized)
            self._plan_trivial(rows, ucube_cs[rows], "copy_search",
                               code_copy, 0, ("T", cyc), plans, batches)
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
                    table = []
                    for f0, m in zip(first.tolist(),
                                     np.bincount(inv).tolist()):
                        u0 = int(u_a[f0])
                        sc0 = int(sc_a[f0])
                        dc0 = int(dc_a[f0])
                        sz0 = int(sz_a[f0])
                        use_s = self._tlb_use(u0, sc0)
                        use_d = self._tlb_use(u0, dc0)
                        ex = ("C", ((use_s[0], use_s[1]),
                                    (use_d[0], use_d[1])),
                              (self._stream_plan(u0, sc0, sz0, chunk,
                                                 False),),
                              (self._stream_plan(u0, dc0, sz0, chunk,
                                                 False),))
                        table.append(self._entry("copy_search", u0, 0,
                                                 ex))
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
                    for i, j in zip(vec.tolist(), inv.tolist()):
                        plans[i] = table[j]

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
                    table = []
                    for f0, m in zip(first.tolist(),
                                     np.bincount(inv).tolist()):
                        u0 = int(u_a[f0])
                        sc0 = int(sc_a[f0])
                        ex0 = int(ex_a[f0])
                        s_chunk = min(HMC_MAX_REQUEST, ex0)
                        use = self._tlb_use(u0, sc0)
                        ex = ("S", (use[0], use[1]),
                              (self._stream_plan(u0, sc0, ex0, s_chunk,
                                                 False),),
                              math.ceil(ex0 / 32) * cyc)
                        table.append(self._entry("copy_search", u0, 1,
                                                 ex))
                        batches[(u0, code_search)] = \
                            batches.get((u0, code_search), 0) + m
                        t_tlb[use[2]] += m
                        if use[3]:
                            t_rem[use[2]] += m
                        tallies["probes"] += \
                            math.ceil(ex0 / s_chunk) * m
                        self._account_stream(acc, u0, sc0, ex0 * m, m)
                    for i, j in zip(vec.tolist(), inv.tolist()):
                        plans[i] = table[j]

            # -- scans ---------------------------------------------
            if cpu_side:
                u_all = zeros
            elif self.scan_local:
                u_all = src_cube
            else:
                u_all = np.full(n, self.central, dtype=np.int64)
            rows = np.flatnonzero(scan_m & (refs <= 0))
            self._plan_trivial(rows, u_all[rows], "scan_push", code_scan,
                               1, ("T", 2 * cyc), plans, batches)
            rows = np.flatnonzero(scan_m & (refs > 0))
            if len(rows):
                r_span = int(refs[rows].max()) + 1
                p_span = int(pushes[rows].max()) + 1
                if r_span * p_span * 64 * 64 >= 2 ** 62:
                    leftover[rows] = True
                    rows = rows[:0]
                # Marking scans carry per-event mark lines; the rest of
                # their plan groups like any other scan's.
                mark_rows = rows[:0]
                marks: List = []
                covered = info.heap_end - info.bitmap_covered_start
                if marking_kind and covered > 0:
                    mark_rows, marks = self._mark_lines(
                        rows[pushes[rows] > 0], src, pushes, u_all,
                        covered, info.bitmap_base, tallies, leftover)
                    rows = rows[~leftover[rows]]
                if len(rows):
                    rf_a = refs[rows]
                    ps_a = pushes[rows]
                    u_a = u_all[rows]
                    oc_a = src_cube[rows]
                    key = ((rf_a * p_span + ps_a) * 64 + u_a) * 64 + oc_a
                    _, first, inv = np.unique(key, return_index=True,
                                              return_inverse=True)
                    table = []
                    for f0, m in zip(first.tolist(),
                                     np.bincount(inv).tolist()):
                        u0 = int(u_a[f0])
                        oc0 = int(oc_a[f0])
                        rf0 = int(rf_a[f0])
                        ps0 = int(ps_a[f0])
                        slot_bytes = max(CACHE_LINE, rf0 * 8)
                        slot_plan = self._stream_plan(
                            u0, oc0, slot_bytes, 256, True)
                        self._account_stream(acc, u0, oc0,
                                             slot_bytes * m, m)
                        per_cube = [rf0 // self.ref_cubes] \
                            * self.ref_cubes
                        for extra in range(rf0 % self.ref_cubes):
                            per_cube[extra] += 1
                        ref_plans = []
                        for t, count in enumerate(per_cube):
                            if count == 0:
                                continue
                            nb = count * CACHE_LINE
                            ref_plans.append(self._stream_plan(
                                u0, t, nb, CACHE_LINE, True))
                            self._account_stream(acc, u0, t, nb * m, m)
                        use = self._tlb_use(u0, oc0)
                        ex = ("P", (use[0], use[1]), slot_plan,
                              tuple(ref_plans), ps0 * cyc, None)
                        table.append(self._entry("scan_push", u0, 1, ex))
                        batches[(u0, code_scan)] = \
                            batches.get((u0, code_scan), 0) + m
                        t_tlb[use[2]] += m
                        if use[3]:
                            t_rem[use[2]] += m
                        tallies["probes"] += rf0 * m
                    for i, j in zip(rows.tolist(), inv.tolist()):
                        plans[i] = table[j]
                    for i, lines in zip(mark_rows.tolist(), marks):
                        if lines is not None:
                            pool, req, resp, ex = plans[i]
                            plans[i] = (pool, req, resp,
                                        ex[:5] + (lines,))

            # -- bitmap counts ---------------------------------------
            rows = np.flatnonzero(bitmap_m)
            if len(rows):
                self._plan_bitmap_counts(rows, ev, info, plans, batches,
                                         tallies, leftover)

            rest = np.flatnonzero(leftover).tolist()
            if rest:
                self._plan_events(compiled, info, rest, plans, acc,
                                  batches, tallies)

        self._finish_accounting(compiled, copy_m, batches, acc,
                                tallies)
        self._plans = plans
        self._prim_keys, self._prim_ids = _prim_index(compiled)

    def _plan_trivial(self, rows: np.ndarray, units: np.ndarray,
                      kind_key: str, code: int, has_value: int, ex: Tuple,
                      plans: List,
                      batches: Dict[Tuple[int, int], int]) -> None:
        """Plan ``rows`` whose primitive costs the fixed ``ex`` and
        touches no memory: one shared plan per unit cube in ``units``."""
        if not len(rows):
            return
        uq, inv = np.unique(units, return_inverse=True)
        table = []
        for u0, m in zip(uq.tolist(), np.bincount(inv).tolist()):
            table.append(self._entry(kind_key, u0, has_value, ex))
            batches[(u0, code)] = batches.get((u0, code), 0) + m
        for i, j in zip(rows.tolist(), inv.tolist()):
            plans[i] = table[j]

    def _bc_lines(self, line_addr: np.ndarray, unit: np.ndarray,
                  counts: np.ndarray, t_bc: List[int]
                  ) -> Tuple[np.ndarray, List]:
        """Vectorized :meth:`_bc_use` over one block's bitmap lines.

        ``line_addr`` and ``unit`` (the issuing unit's cube) are per-line
        columns, ``counts`` the number of lines of each row in order.
        Returns ``(ok, lines)``: whether each row's lines are all
        mapped, and each such row's ``(line_addr, slice, penalty)``
        tuple exactly as :meth:`_plan_events` builds it (``None`` for
        the others, which the scalar planner faults on).  Mapped rows'
        accesses are tallied into ``t_bc``.
        """
        cube, _, mapped = self.map.lookup_columns(line_addr)
        row = np.repeat(np.arange(len(counts)), counts)
        ok = np.bincount(row[~mapped], minlength=len(counts)) == 0
        si = cube if self.distributed else np.zeros_like(cube)
        pen = self._bc_pens[2 * si + (unit != self._bc_home[si])]
        tally = np.bincount(si[ok[row]], minlength=len(t_bc))
        for ci, accesses in enumerate(tally.tolist()):
            t_bc[ci] += accesses
        triples = zip(line_addr.tolist(), si.tolist(), pen.tolist())
        lines = []
        for count, good in zip(counts.tolist(), ok.tolist()):
            run = tuple(islice(triples, count))
            lines.append(run if good else None)
        return ok, lines

    def _mark_lines(self, rows: np.ndarray, src: np.ndarray,
                    pushes: np.ndarray, unit: np.ndarray, covered: int,
                    bitmap_base: int, tallies: Dict,
                    leftover: np.ndarray) -> Tuple[np.ndarray, List]:
        """Mark lines of marking-phase scan ``rows`` (all with pushes).

        Push ``k`` of a scan at ``src`` marks the bitmap line at byte
        offset ``(hash(src) + (src & 0x3FF0) + 64 k) % covered``, the
        scalar planner's hashed window.  Returns the rows planned here
        and their line tuples (``None`` where a line is unmapped); rows
        left to the scalar planner are flagged in ``leftover``.
        """
        s_all = src[rows]
        fits = (s_all >= 0) & ((s_all >> 14) <= _HASH_LIMIT)
        leftover[rows[~fits]] = True
        rows = rows[fits]
        marks: List = []
        for lo in range(0, len(rows), PLAN_BLOCK_ROWS):
            blk = rows[lo:lo + PLAN_BLOCK_ROWS]
            s = src[blk]
            count = pushes[blk]
            window = ((s >> 14) * 2654435761) % covered + (s & 0x3FF0)
            first = np.cumsum(count) - count
            step = 64 * np.arange(int(count.sum()), dtype=np.int64)
            off = (np.repeat(window - 64 * first, count) + step) % covered
            ok, lines = self._bc_lines(bitmap_base + off // 64,
                                       np.repeat(unit[blk], count), count,
                                       tallies["bc_port"])
            leftover[blk[~ok]] = True
            marks += lines
        return rows, marks

    def _plan_bitmap_counts(self, rows: np.ndarray, ev: np.ndarray, info,
                            plans: List,
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
                           ("T", cyc), plans, batches)

        pos = np.flatnonzero(ok & counting)
        planned = np.zeros(len(rows), dtype=bool)
        heads: Dict[int, Tuple] = {}
        bases = (info.bitmap_base, info.bitmap_base + info.bitmap_bytes)
        for lo in range(0, len(pos), PLAN_BLOCK_ROWS):
            blk = pos[lo:lo + PLAN_BLOCK_ROWS]
            words = (bits[blk] + 63) // 64
            byte_a = byte_lo[blk]
            byte_b = byte_a + words * WORD
            first = np.stack([(base + byte_a) // bc_line
                              for base in bases], axis=1).ravel()
            count = np.stack([(base + byte_b - 1) // bc_line
                              for base in bases], axis=1).ravel() \
                - first + 1
            seg = np.cumsum(count) - count
            index = np.repeat(first - seg, count) \
                + np.arange(int(count.sum()), dtype=np.int64)
            per_row = count[0::2] + count[1::2]
            u_b = unit[blk]
            good, lines = self._bc_lines(index * bc_line,
                                         np.repeat(u_b, per_row), per_row,
                                         tallies["bc_port"])
            leftover[rows[blk[~good]]] = True
            planned[blk[good]] = True
            for i, u0, w, run in zip(rows[blk].tolist(), u_b.tolist(),
                                     words.tolist(), lines):
                if run is None:
                    continue
                head = heads.get(u0)
                if head is None:
                    use = self._tlb_use(u0, owner)
                    pool, req, resp, _ = self._entry("bitmap_count", u0,
                                                     1, None)
                    head = heads[u0] = (pool, req, resp,
                                        (use[0], use[1]))
                plans[i] = head[:3] + (("B", head[3], run, w * cyc),)
        uq, counts = np.unique(unit[planned], return_counts=True)
        for u0, m in zip(uq.tolist(), counts.tolist()):
            batches[(u0, code)] = batches.get((u0, code), 0) + m
            _, _, si, remote = self._tlb_use(u0, owner)
            tallies["tlb"][si] += m
            if remote:
                tallies["tlb_remote"][si] += m

    def _plan_events(self, compiled: CompiledTrace, info,
                     indices, plans: List, acc: Dict[int, List[int]],
                     batches: Dict[Tuple[int, int], int],
                     tallies: Dict[str, int]) -> None:
        """Scalar (per-event) planner — the reference implementation.

        Plans ``indices`` exactly as the event-by-event offload path
        would, mutating the shared accumulators.  The vectorized stage
        1 routes here only the rows it cannot plan in numpy: copies,
        searches and scans whose range crosses a page, bitmap counts
        and marking-phase scans that touch an unmapped address (or, for
        scans, whose window hash would overflow int64) — plus the whole
        trace when a copy, search or scan address is unmapped, so the
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
                key = ("scan_push", cube)
            elif p == code_copy or p == code_search:
                cube = 0 if self.cpu_side else cube_of(src)
                key = ("copy_search", cube)
            else:
                bit_index = (src - info.bitmap_covered_start) // WORD
                baddr = info.bitmap_base + bit_index // 8
                cube = 0 if self.cpu_side else cube_of(baddr)
                key = ("bitmap_count", cube)
            pool = self.pool_of[key]
            unit_cube = cube  # units live on their routing cube

            if p == code_copy:
                size = int(size_c[i])
                if size <= 0:
                    ex = ("T", cyc)
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
                    reads = tuple(
                        self._stream_plan(unit_cube, t, nb, chunk,
                                          False) for nb, t in runs)
                    for nb, t in runs:
                        self._account_stream(acc, unit_cube, t, nb)
                    runs = self.map.split(dst, size)
                    writes = tuple(
                        self._stream_plan(unit_cube, t, nb, chunk,
                                          False) for nb, t in runs)
                    for nb, t in runs:
                        self._account_stream(acc, unit_cube, t, nb)
                    ex = ("C", ((use_s[0], use_s[1]),
                                (use_d[0], use_d[1])), reads, writes)
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
                run_plans = tuple(
                    self._stream_plan(unit_cube, t, nb, s_chunk, False)
                    for nb, t in runs)
                for nb, t in runs:
                    self._account_stream(acc, unit_cube, t, nb)
                ex = ("S", (use[0], use[1]), run_plans,
                      math.ceil(examined / 32) * cyc)
                uses = (use,)
                tallies["probes"] += math.ceil(examined / s_chunk)
                has_value = 1
            elif p == code_scan:
                refs = int(refs_c[i])
                if refs <= 0:
                    ex = ("T", 2 * cyc)
                    uses = ()
                else:
                    obj_cube = cube_of(src)
                    use = self._tlb_use(unit_cube, obj_cube)
                    slot_bytes = max(CACHE_LINE, refs * 8)
                    slot_plan = self._stream_plan(
                        unit_cube, obj_cube, slot_bytes, 256, True)
                    self._account_stream(acc, unit_cube, obj_cube,
                                         slot_bytes)
                    per_cube = [refs // self.ref_cubes] * self.ref_cubes
                    for extra in range(refs % self.ref_cubes):
                        per_cube[extra] += 1
                    ref_plans = []
                    for t, count in enumerate(per_cube):
                        if count == 0:
                            continue
                        nb = count * CACHE_LINE
                        ref_plans.append(self._stream_plan(
                            unit_cube, t, nb, CACHE_LINE, True))
                        self._account_stream(acc, unit_cube, t, nb)
                    pushes = int(pushes_c[i])
                    marks = None
                    if marking_kind and pushes and covered > 0:
                        window_base = ((src >> 14) * 2654435761) \
                            % max(1, covered)
                        lines = []
                        for index in range(pushes):
                            off = (window_base + (src & 0x3FF0)
                                   + index * 64) % covered
                            line_addr = info.bitmap_base + off // 64
                            ci, bpen = self._bc_use(
                                unit_cube, cube_of(line_addr))
                            lines.append((line_addr, ci, bpen))
                            t_bc[ci] += 1
                        marks = tuple(lines)
                    ex = ("P", (use[0], use[1]), slot_plan,
                          tuple(ref_plans), pushes * cyc, marks)
                    uses = (use,)
                    tallies["probes"] += refs
                has_value = 1
            else:  # bitmap count
                bits = int(bits_c[i])
                if bits <= 0:
                    ex = ("T", cyc)
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
                    lines = []
                    for map_base in (info.bitmap_base,
                                     info.bitmap_base
                                     + info.bitmap_bytes):
                        first = (map_base + byte_lo) // bc_line
                        last = (map_base + byte_hi - 1) // bc_line
                        for idx in range(first, last + 1):
                            line_addr = idx * bc_line
                            ci, bpen = self._bc_use(
                                unit_cube, cube_of(line_addr))
                            lines.append((line_addr, ci, bpen))
                            t_bc[ci] += 1
                    ex = ("B", (use[0], use[1]), tuple(lines),
                          words * cyc)
                    uses = (use,)
                has_value = 1

            for _, _, si, rem in uses:
                t_tlb[si] += 1
                if rem:
                    t_rem[si] += 1
            batches[(cube, p)] = batches.get((cube, p), 0) + 1
            if self.cpu_side:
                plans[i] = (pool, None, None, ex)
            else:
                plans[i] = (pool, self._req_chain[cube],
                            self._resp_chain[(cube, has_value)], ex)

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

    # -- stage 2 -----------------------------------------------------------

    def run_phase(self, lo: int, hi: int, start: float,
                  prim_seconds: Dict[Primitive, float]
                  ) -> Tuple[float, float]:
        lanes = self.lanes
        lanes.sync_in()
        self._sync_units_in()
        H = lanes.H
        plans = self._plans
        pids = self._prim_ids
        keys = self._prim_keys
        sums = [prim_seconds.get(key) for key in keys]
        pools_busy = self._busy
        acc_cmds = self._acc_cmds
        acc_busy = self._acc_busy
        dispatch = self.dispatch
        tlb_svc = self.tlb_svc
        bc_slots = self.bc_slots
        bc_svc = self.bc_svc
        bc_mem = self.bc_mem
        bc_enabled = self.bc_enabled
        bc_access = self.bc_access
        access_lat = self.access_lat
        n_bc = len(bc_slots)
        read_acc = [0] * n_bc
        read_hits = [0] * n_bc

        def run_stream(now: float, plan) -> float:
            slots, svcs, a, b, i1, i2 = plan
            f = now
            for sl, svc in zip(slots, svcs):
                s = H[sl]
                if s < now:
                    s = now
                e = s + svc
                H[sl] = e
                if e > f:
                    f = e
            fl = (now + a) + b
            if fl > f:
                f = fl
            fi = (now + i1) + i2
            if fi > f:
                f = fi
            return f

        heap = [(start, index) for index in range(self.threads)]
        heapify(heap)
        for chunk_lo in range(lo, hi, CHUNK_EVENTS):
            chunk_hi = min(hi, chunk_lo + CHUNK_EVENTS)
            self.chunks_processed += 1
            for i in range(chunk_lo, chunk_hi):
                now, index = heappop(heap)
                pool, req, resp, ex = plans[i]
                t0 = now + dispatch
                if req is None:
                    arrival = t0
                else:
                    arrival = (t0 + req[0]) + req[1]
                    for add in req[2]:
                        arrival += add
                busy = pools_busy[pool]
                u = 0
                best = busy[0]
                for k in range(1, len(busy)):
                    if busy[k] < best:
                        best = busy[k]
                        u = k
                s0 = arrival if arrival > best else best

                kind = ex[0]
                if kind == "T":
                    finish = s0 + ex[1]
                    release = finish
                elif kind == "C":
                    f = s0
                    for sl, pen in ex[1]:
                        t = H[sl]
                        if t < s0:
                            t = s0
                        d = t + tlb_svc
                        H[sl] = d
                        d += pen
                        if d > f:
                            f = d
                    read_f = f
                    for plan in ex[2]:
                        r = run_stream(f, plan)
                        if r > read_f:
                            read_f = r
                    first = f + access_lat
                    write_f = first
                    for plan in ex[3]:
                        w = run_stream(first, plan)
                        if w > write_f:
                            write_f = w
                    release = read_f
                    finish = read_f if read_f > write_f else write_f
                elif kind == "S":
                    sl, pen = ex[1]
                    t = H[sl]
                    if t < s0:
                        t = s0
                    d = t + tlb_svc
                    H[sl] = d
                    f = d + pen
                    for plan in ex[2]:
                        r = run_stream(f, plan)
                        if r > f:
                            f = r
                    finish = f + ex[3]
                    release = finish
                elif kind == "P":
                    sl, pen = ex[1]
                    t = H[sl]
                    if t < s0:
                        t = s0
                    d = t + tlb_svc
                    H[sl] = d
                    f = d + pen
                    f = run_stream(f, ex[2])
                    lf = f
                    for plan in ex[3]:
                        r = run_stream(f, plan)
                        if r > lf:
                            lf = r
                    f = lf + ex[4]
                    marks = ex[5]
                    if marks is not None:
                        for line, ci, bc_pen in marks:
                            hit = (bc_access[ci](line, True)
                                   if bc_enabled else False)
                            sl = bc_slots[ci]
                            t = H[sl]
                            if t < f:
                                t = f
                            d = t + bc_svc
                            H[sl] = d
                            if not hit:
                                d += bc_mem
                                if not bc_enabled:
                                    d += bc_mem
                            d += bc_pen
                            if d > f:
                                f = d
                    finish = f
                    release = finish
                else:  # "B"
                    sl, pen = ex[1]
                    t = H[sl]
                    if t < s0:
                        t = s0
                    d = t + tlb_svc
                    H[sl] = d
                    f = d + pen
                    last = f
                    for line, ci, bc_pen in ex[2]:
                        hit = (bc_access[ci](line, False)
                               if bc_enabled else False)
                        read_acc[ci] += 1
                        if hit:
                            read_hits[ci] += 1
                        sl = bc_slots[ci]
                        t = H[sl]
                        if t < f:
                            t = f
                        d = t + bc_svc
                        H[sl] = d
                        if not hit:
                            d += bc_mem
                        d += bc_pen
                        if d > last:
                            last = d
                    finish = last + ex[3]
                    release = finish

                busy[u] = release
                acc_cmds[pool][u] += 1
                acc_busy[pool][u] += release - s0

                if resp is None:
                    r = finish
                else:
                    r = finish
                    for add in resp[0]:
                        r += add
                    r = (r + resp[1]) + resp[2]
                duration = r - now
                pid = pids[i]
                prev = sums[pid]
                sums[pid] = (duration if prev is None
                             else prev + duration)
                heappush(heap, (r, index))

        for key, value in zip(keys, sums):
            if value is not None:
                prim_seconds[key] = value
        for ci in range(n_bc):
            self._read_acc[ci] += read_acc[ci]
            self._read_hits[ci] += read_hits[ci]
        barrier = max(clock for clock, _ in heap)
        lanes.sync_out()
        self._sync_units_out()
        return barrier, (hi - lo) * dispatch

    # -- state synchronisation ---------------------------------------------

    def _sync_units_in(self) -> None:
        for pool, units in enumerate(self.pools):
            busy = self._busy[pool]
            for k, unit in enumerate(units):
                busy[k] = unit.busy_until

    def _sync_units_out(self) -> None:
        for pool, units in enumerate(self.pools):
            busy = self._busy[pool]
            cmds = self._acc_cmds[pool]
            times = self._acc_busy[pool]
            for k, unit in enumerate(units):
                unit.busy_until = busy[k]
                if cmds[k]:
                    unit.commands += cmds[k]
                    unit.busy_time += times[k]
                    cmds[k] = 0
                    times[k] = 0.0
        for ci, accesses in enumerate(self._read_acc):
            if accesses:
                self.bcs[ci].record_reads(accesses,
                                          self._read_hits[ci])
                self._read_acc[ci] = 0
                self._read_hits[ci] = 0


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
