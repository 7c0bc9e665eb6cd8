"""Replay kernels: one protocol, two families.

:class:`~repro.platform.fast_replay.FastTraceReplayer` costs a trace's
event columns through the kernel :func:`kernel_for` picks for a platform and a
GC thread count.  Every kernel provides ``name``, ``begin(compiled)``
(stage 1, once per trace), ``run_phase(lo, hi, start, prim_seconds) ->
(end, residual seconds)`` (stage 2, once per trace: the replayer passes
the whole trace, ``lo, hi = 0, len(events)``), and after ``begin`` the
trace's :class:`_Steps` as ``steps`` and, after ``run_phase``, each
step's ``(start, duration)`` as ``span`` (read only for tracing).

* **closed-form** (:class:`ClosedFormKernel`: ``ideal`` at any thread
  count, ``cpu-ddr4`` with one GC thread) — every event's duration is a
  pure function of the event, so ``begin`` prices the whole trace in a
  handful of numpy operations and ``run_phase`` walks the steps in
  Python, summing slices and charging each residual through the scalar
  :meth:`HostCostModel.residual_seconds`.
* **batched-stateful** (multi-threaded ``cpu-ddr4``, ``cpu-hmc``,
  ``charon`` — unified or ``--distributed`` — and ``charon-cpuside``)
  — costs couple events through shared state: FIFO bandwidth horizons,
  the anonymous round-robin cursor, per-unit busy clocks, the
  TLB/bitmap-cache ports and the bitmap cache's tag/LRU contents.

The batched kernels work in two stages:

* **stage 1** (:meth:`begin`) precomputes, over the trace's event
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
  penalty)`` bitmap-cache touches.  A Charon plan is kept on the trace
  and reused by later kernels with the same stage-1 inputs (see
  :func:`_kernel_memo`).  Every row is planned this way —
  address ranges split into per-cube runs by one columnar lookup per
  page crossed (:meth:`_CubeMap.runs`) — and a trace the event path
  would fault on raises its first ``ProtectionFault`` here, before any
  accounting.  Stage 1 also tabulates the trace's steps (:func:`_steps`:
  its phase runs, then its residual-only phases) and each residual's
  now-independent part (:meth:`HostCostModel.residual_demand`) with its
  miss stream: an interned DDR4 stream, or an anonymous HMC stream;
* **stage 2** (:meth:`run_phase`) replays only the order-dependent
  recurrence — thread clocks under least-loaded assignment, fluid
  resource ``busy_until`` horizons, unit busy clocks, the anonymous cube
  cursor, and the bitmap cache's real tag/LRU state — plus each step's
  residual share at its barrier and the bitmap-cache flush after each
  MajorGC phase, in one compiled call per trace (``_stage2.c``:
  ``host_trace`` for the DDR4 and HMC host kernels, ``charon_trace`` for
  Charon; built and loaded by :mod:`repro.platform.native`).  The state
  it touches is loaded from the platform objects into arrays once
  before the call and written back once after it, so between traces
  the objects stay authoritative.

Equivalence is *exact by construction* for every integer counter and
every individual IEEE-754 operation on the critical path: stage 2
replicates the scalar code's operation order (``max`` placement,
addition association, division operands, the ``(clock, thread)``
heap order, the order float counters and per-primitive keys
accumulate) and is compiled without floating-point contraction, so
clock values match bit for bit; only bulk-summed float accounting
(busy time, energy) and cross-phase float accumulations may differ
within the fast path's 1e-9 relative contract.
``tests/test_fast_replay_equivalence.py`` holds the golden
comparisons.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from functools import partial
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.core.device import FLUSHED_PHASES
from repro.errors import ConfigError, SimulationError
from repro.gcalgo.trace import (CODE_TO_PRIMITIVE, GCTrace,
                                PRIMITIVE_TYPE_CODES, Primitive,
                                ResidualWork, is_marking_phase)
from repro.obs.metrics import global_metrics
from repro.platform import native
from repro.units import CACHE_LINE, HMC_MAX_REQUEST, WORD

#: Stage-1 block size when rows expand into per-line bitmap-cache
#: accesses: the numpy temporaries scale with one block's lines, not
#: with the trace's.
PLAN_BLOCK_ROWS = 2048

def _prim_index(compiled: GCTrace) -> Tuple[List[Primitive], np.ndarray]:
    """``(keys, per-event key index)`` for a trace.

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


def _kernel_memo(compiled: GCTrace) -> Dict:
    """Per-trace memo for stage-1 products.

    The trace cache hands the same :class:`GCTrace` to every
    platform's replayer, so anything that depends only on the trace (or
    on a hashable parameter key) is computed once per trace instead of
    once per ``begin``.  This memo is the in-process front of the
    persistent :mod:`~repro.experiments.stage1_cache`: on a memo miss
    the producers below read through it (and write back on a disk
    miss), so a warm sweep process recomputes neither cached product
    (``host_cols``, ``prim_index``).

    It also holds the trace's Charon plans (:class:`_CharonPlan`), in
    memory only, keyed by everything :meth:`CharonBatchedKernel.begin`
    reads (:meth:`CharonBatchedKernel._plan_key`), so a Fig. 15 or
    ablation sweep that changes only the thread count, the unit counts
    or the dispatch cost reuses them.  A trace keeps a plan only from
    its second Charon plan on (``"charon_plans"`` counts them), so a
    sweep that plans each trace once retains nothing.  The HMC and
    DDR4 plans are not kept: every ``begin`` re-plans them.
    """
    memo = compiled.__dict__.get("_kernel_memo")
    if memo is None:
        memo = compiled.__dict__["_kernel_memo"] = {}
    return memo


# ---------------------------------------------------------------------------
# Shared stage-1 helpers
# ---------------------------------------------------------------------------

#: Ends every sorted page-address table: past any page address, so a
#: ``searchsorted`` index always lands on an entry.
_PAST_PAGES = np.iinfo(np.int64).max


def _key(*columns: np.ndarray) -> np.ndarray:
    """One int64 per row, equal exactly where every integer column is.

    A mixed-radix packing of the columns; where the radix product would
    leave int64, the key so far and the column are first renumbered
    densely with ``np.unique``.
    """
    key = np.zeros(len(columns[0]), dtype=np.int64)
    if not len(key):
        return key
    span = 1
    for column in columns:
        low = int(column.min())
        width = int(column.max()) - low + 1
        if span * width >= 2 ** 62:
            _, key = np.unique(key, return_inverse=True)
            _, column = np.unique(column, return_inverse=True)
            low, span, width = 0, int(key.max()) + 1, int(column.max()) + 1
        key = key * width + (column - low)
        span *= width
    return key


class _Runs(NamedTuple):
    """Per-cube runs of a column of address ranges, merged like
    :meth:`~repro.mem.vm.VirtualMemory.split_range_by_cube`.

    Range ``k``'s first run is ``nbytes[k]`` bytes on ``cube[k]``; the
    later runs of the few ranges ``multi`` are a CSR (``rest_off``,
    ``rest_bytes``, ``rest_cube``).  A range reaching an unmapped page is
    ``bad``, ``bad_at`` its first unmapped address.
    """

    nbytes: np.ndarray
    cube: np.ndarray
    bad: np.ndarray
    bad_at: np.ndarray
    multi: np.ndarray
    rest_off: np.ndarray
    rest_bytes: np.ndarray
    rest_cube: np.ndarray

    def of(self, ks: np.ndarray) -> List[List[Tuple[int, int]]]:
        """The ``(bytes, cube)`` runs of each range in ``ks``, in
        address order."""
        runs = [[run] for run in zip(self.nbytes[ks].tolist(),
                                     self.cube[ks].tolist())]
        if len(self.multi):
            at = np.searchsorted(self.multi, ks)
            for i in np.flatnonzero(
                    self.multi.take(at, mode="clip") == ks).tolist():
                lo, hi = self.rest_off[at[i]], self.rest_off[at[i] + 1]
                runs[i] += zip(self.rest_bytes[lo:hi].tolist(),
                               self.rest_cube[lo:hi].tolist())
        return runs

    def columns(self) -> List[np.ndarray]:
        """Per-range columns equal exactly where the ranges' run
        sequences are (for :func:`_key`): the first run's bytes and
        cube, and a key of the later runs if any range has some."""
        if not len(self.multi):
            return [self.nbytes, self.cube]
        # The later runs of each multi-run range, zero-padded.
        run = np.append(_key(self.rest_bytes, self.rest_cube) + 1, 0)
        head = self.rest_off[:-1]
        counts = np.diff(self.rest_off)
        rest = np.zeros(len(self.nbytes), dtype=np.int64)
        rest[self.multi] = _key(*(run[np.where(counts > j, head + j, -1)]
                                  for j in range(int(counts.max())))) + 1
        return [self.nbytes, self.cube, rest]


class _CubeMap:
    """A columnar mirror of :class:`~repro.mem.vm.VirtualMemory`
    placement for one pcid.

    ``vm.lookup`` walks the page-size tables in *insertion order* and
    returns the first mapping covering the address; the mirror keeps the
    same table order so every lookup resolves identically.  The mirror
    is read-only — it never mutates the VM — and is rebuilt whenever the
    VM's total mapping count changes.  :meth:`lookup_columns` resolves
    an address column, :meth:`runs` splits a column of ranges.
    """

    def __init__(self, vm, pcid: int) -> None:
        self.vm = vm
        self.pcid = pcid
        self._tables: List[Tuple[int, np.ndarray, np.ndarray]] = []
        self._count = -1
        self.refresh()

    def refresh(self) -> None:
        count = sum(len(t) for t in self.vm._tables.values())
        if count == self._count:
            return
        self._count = count
        self._tables = []
        for size, table in self.vm._tables.items():
            pages = np.array([(vaddr, m.cube)
                              for (p, vaddr), m in table.items()
                              if p == self.pcid] + [(_PAST_PAGES, 0)],
                             dtype=np.int64)
            pages = pages[np.argsort(pages[:, 0])]
            self._tables.append((size, pages[:, 0], pages[:, 1]))

    def lookup_columns(self, addrs: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``vm.lookup`` over an int64 address column.

        Returns ``(cube, page_bytes, mapped)`` arrays; unmapped rows
        have ``mapped`` False (their cube/page values are meaningless).
        Table precedence matches the scalar walk: earlier (insertion
        order) page-size tables win.
        """
        n = len(addrs)
        cube = np.zeros(n, dtype=np.int64)
        psize = np.ones(n, dtype=np.int64)
        mapped = np.zeros(n, dtype=bool)
        todo = np.arange(n)
        for size, keys, cubes in self._tables:
            pending = addrs[todo]
            page = pending & -size  # page sizes are powers of two
            index = np.searchsorted(keys, page)
            hit = keys[index] == page
            rows = todo[hit]
            cube[rows] = cubes[index[hit]]
            psize[rows] = size
            mapped[rows] = True
            todo = todo[~hit]
            if not len(todo):
                break
        return cube, psize, mapped

    def runs(self, starts: np.ndarray, lengths: np.ndarray,
             lookup: Tuple = None) -> _Runs:
        """Split the ranges ``[starts[k], starts[k] + lengths[k])``
        (``lengths`` positive; ``lookup`` is ``lookup_columns(starts)``
        if the caller has it).  Round ``j`` looks up the ``j``-th page of
        every range still going, so the rounds number the pages the
        longest range crosses, not the ranges."""
        ends = starts + lengths
        cube, psize, mapped = lookup or self.lookup_columns(starts)
        bad = ~mapped
        bad_at = starts.copy()
        stop = np.minimum(ends, (starts & -psize) + psize)
        nbytes = stop - starts
        rows = np.flatnonzero(mapped & (stop < ends))
        if not len(rows):  # no range leaves its first page
            return _Runs(nbytes, cube, bad, bad_at, rows,
                         np.zeros(1, dtype=np.int64), rows, rows)
        cursor = stop[rows]
        pieces = [(rows, nbytes[rows], cube[rows])]
        while len(rows):
            cube_j, psize_j, mapped_j = self.lookup_columns(cursor)
            bad[rows[~mapped_j]] = True
            bad_at[rows[~mapped_j]] = cursor[~mapped_j]
            stop_j = np.minimum(ends[rows], (cursor & -psize_j) + psize_j)
            pieces.append((rows, stop_j - cursor, cube_j))
            going = mapped_j & (stop_j < ends[rows])
            rows, cursor = rows[going], stop_j[going]
        # Order the pieces by range (the stable sort keeps each range's
        # rounds, so its pages, in address order), drop ranges that
        # faulted and merge neighbours on one cube: each range's first
        # run replaces its first piece, and the rest are its later runs.
        rows, sizes, cubes = (np.concatenate(part) for part in zip(*pieces))
        order = np.argsort(rows, kind="stable")
        order = order[~bad[rows[order]]]
        rows, sizes, cubes = rows[order], sizes[order], cubes[order]
        head = np.ones(len(rows), dtype=bool)
        head[1:] = (rows[1:] != rows[:-1]) | (cubes[1:] != cubes[:-1])
        heads = np.flatnonzero(head)
        if len(heads):
            sizes = np.add.reduceat(sizes, heads)
        rows, cubes = rows[heads], cubes[heads]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        nbytes[rows[first]] = sizes[first]
        multi, counts = np.unique(rows[~first], return_counts=True)
        return _Runs(nbytes, cube, bad, bad_at, multi, _offsets(counts),
                     sizes[~first], cubes[~first])


class _Lanes:
    """Flat horizon array over the fluid resources stage 2 touches.

    Each registered :class:`FluidResource` owns two slots — the bulk
    FIFO lane at ``2i`` and the short-request priority lane at ``2i+1``
    — mirroring ``busy_until``/``small_busy_until``.  The first
    :attr:`accounted` resources (registered by :meth:`account` before
    any other) are the ones residual and anonymous streams reserve one
    request at a time; stage 2 moves their counters (bytes, requests,
    busy time, energy) in the scalar code's order.  ``sync_in`` loads
    the horizons and those counters before a trace, ``sync_out`` writes
    them back after, so outside :meth:`run_phase` the real objects stay
    authoritative.  Resources register while plans are built;
    :meth:`size` then sizes the horizon array.
    """

    #: Each accounted resource's counters, as the stage-2 fields
    #: holding them.
    COUNTERS = (("bytes", "bytes_served", np.int64),
                ("reqs", "requests", np.int64),
                ("busy", "busy_time", np.float64),
                ("energy", "energy_joules", np.float64))

    def __init__(self) -> None:
        self.resources: List = []
        self._index: Dict[int, int] = {}
        self.H = np.zeros(0)
        self.accounted = 0
        self.fields = self._counters([])

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

    def account(self, resources: Sequence) -> None:
        """Register ``resources`` as the accounted ones (before any other
        lane, so they hold indices ``0 .. accounted - 1``)."""
        if self.resources:
            raise ValueError("accounted lanes must register first")
        for resource in resources:
            self.register(resource)
        self.accounted = len(self.resources)
        self.fields = self._counters(self.resources)

    def _counters(self, resources: Sequence) -> Dict[str, np.ndarray]:
        n = len(resources)
        fields = {name: np.zeros(n, dtype=dtype)
                  for name, _, dtype in self.COUNTERS}
        fields["rate"] = np.array([r.rate for r in resources],
                                  dtype=np.float64)
        fields["epb"] = np.array([r.energy_per_byte for r in resources],
                                 dtype=np.float64)
        fields["acc_bytes"] = np.zeros(n, dtype=np.int64)
        fields["acc_reqs"] = np.zeros(n, dtype=np.int64)
        fields["accounted"] = n
        return fields

    def size(self) -> None:
        """(Re)allocate the horizons for every registered resource."""
        if len(self.H) != 2 * len(self.resources):
            self.H = np.zeros(2 * len(self.resources))

    def sync_in(self) -> None:
        self.H[:] = [horizon for resource in self.resources
                     for horizon in (resource.busy_until,
                                     resource.small_busy_until)]
        accounted = self.resources[:self.accounted]
        for name, attribute, _ in self.COUNTERS:
            self.fields[name][:] = [getattr(resource, attribute)
                                    for resource in accounted]

    def sync_out(self) -> None:
        H = self.H.tolist()
        for i, resource in enumerate(self.resources):
            resource.busy_until = H[2 * i]
            resource.small_busy_until = H[2 * i + 1]
        accounted = self.resources[:self.accounted]
        for name, attribute, _ in self.COUNTERS:
            for resource, value in zip(accounted,
                                       self.fields[name].tolist()):
                setattr(resource, attribute, value)


def host_event_columns(compiled: GCTrace, costs, ipc_hz: float,
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
    memoized on the trace keyed by those parameters (the same
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


def _compute_host_columns(compiled: GCTrace, costs,
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


def _group(tid: np.ndarray, rows: np.ndarray, key: np.ndarray,
           plan) -> None:
    """Give ``rows`` template ids by groups of equal ``key``: ``plan(first,
    counts)`` yields one per group, from its first row's index into
    ``rows`` and its row count."""
    if len(rows):
        _, first, inv = np.unique(key, return_index=True,
                                  return_inverse=True)
        ids = list(plan(first, np.bincount(inv).tolist()))
        tid[rows] = np.asarray(ids, dtype=np.int32)[inv]


def _deposit(streams) -> None:
    """Bulk-account ``(resources, bytes, count)`` stream totals with one
    ``account_bulk`` per resource (paths share links and TSVs)."""
    acc: Dict[int, List] = {}
    for resources, nbytes, count in streams:
        for resource in resources:
            counters = acc.setdefault(id(resource), [resource, 0, 0])
            counters[1] += nbytes
            counters[2] += count
    for resource, nbytes, count in acc.values():
        resource.account_bulk(nbytes, count)


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
    ``run_phase`` then walks the steps in Python with no kernel state.
    One GC thread runs a phase's events back to back, so the phase
    lasts their sum.  With several threads only the zero-duration
    ``ideal`` kernel is selected, where any assignment has a zero
    makespan.  Per-primitive seconds are reduced per phase in
    primitive-code order, and each residual is charged through the
    platform's scalar :meth:`HostCostModel.residual_seconds`, then
    :meth:`Platform.phase_end` runs.
    """

    name = "closed-form"

    def __init__(self, platform, threads: int, price) -> None:
        self.platform = platform
        self.threads = threads
        self.res_threads = _residual_threads(platform, threads)
        self.price = price
        self.steps = None
        self.span = np.zeros(0)
        self._durations = None
        self._codes = None

    def begin(self, compiled: GCTrace) -> None:
        self.steps = _steps(compiled)
        self._durations = self.price(compiled)
        self._codes = compiled.events["prim"]

    def run_phase(self, lo: int, hi: int, start: float,
                  prim_seconds: Dict[Primitive, float]
                  ) -> Tuple[float, float]:
        steps = self.steps
        steps.whole(lo, hi)
        platform = self.platform
        threads = self.res_threads
        span = self.span = np.zeros(2 * len(steps.names))
        now = start
        residual = 0.0
        for s, (name, lo, hi, r) in enumerate(zip(
                steps.names, steps.lo.tolist(), steps.hi.tolist(),
                steps.res.tolist())):
            begin = now
            seg = self._durations[lo:hi]
            codes = self._codes[lo:hi]
            for code in np.unique(codes):
                key = CODE_TO_PRIMITIVE[int(code)]
                prim_seconds[key] = prim_seconds.get(key, 0.0) \
                    + float(seg[codes == code].sum())
            now = now + (float(seg.sum()) if self.threads == 1 else 0.0)
            share = 0.0
            if r >= 0:
                share = platform.cost_model.residual_seconds(
                    now, steps.works[r], threads)
                residual += share * threads
                now += share
            platform.phase_end(name)
            span[2 * s] = begin
            span[2 * s + 1] = now - begin if lo < hi else share
        return now, residual


def _zero_durations(compiled: GCTrace) -> np.ndarray:
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

    def columns(self, compiled: GCTrace):
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

    def durations(self, compiled: GCTrace) -> np.ndarray:
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
    """Per-primitive duration sums stage 2 accumulates over one trace,
    one slot per key of its primitive index.  ``first[j]`` is 0 until
    key ``j``'s first event adds to it, then that event's step + 1, so
    keys enter ``prim_seconds`` in the order per-phase stores would have
    inserted them, and each key's events still add in event order."""

    def __init__(self, keys: List[Primitive]) -> None:
        self.keys = keys
        self.sums = np.zeros(len(keys))
        self.first = np.zeros(len(keys), dtype=np.int64)

    def store(self, prim_seconds: Dict[Primitive, float]) -> None:
        sums = self.sums.tolist()
        for _, j in sorted((first, j) for j, first
                           in enumerate(self.first.tolist()) if first):
            prim_seconds[self.keys[j]] = sums[j]


class _Steps(NamedTuple):
    """A trace's replay steps, in the order both replayers walk them:
    one per phase run (events ``[lo, hi)``), then one empty step per
    residual-only phase, in ``trace.residuals`` order.  ``res`` indexes
    ``works`` (the residuals' values; -1: the phase has none), so a phase
    name recurring in several runs charges its residual at every run,
    and ``flush`` marks the MajorGC phases after which Charon flushes its
    bitmap cache (:data:`~repro.core.device.FLUSHED_PHASES`)."""

    names: Tuple[str, ...]
    lo: np.ndarray
    hi: np.ndarray
    res: np.ndarray
    flush: np.ndarray
    works: Tuple[ResidualWork, ...]

    def whole(self, lo: int, hi: int) -> None:
        """Check that ``[lo, hi)`` is the whole trace (stage 2 replays
        a trace in one call)."""
        end = int(self.hi[-1]) if len(self.hi) else 0
        if (lo, hi) != (0, end):
            raise ValueError(f"stage 2 replays a whole trace, events "
                             f"[0, {end}), not [{lo}, {hi})")


def _steps(compiled: GCTrace) -> _Steps:
    """The trace's :class:`_Steps`, checked once and memoized on it."""
    memo = _kernel_memo(compiled)
    steps = memo.get("steps")
    if steps is None:
        runs = compiled.phase_runs()
        names = [name for name, _, _ in runs]
        seen = set(names)
        names += [name for name in compiled.residuals if name not in seen]
        end = runs[-1][2] if runs else 0
        bounds = np.array([(lo, hi) for _, lo, hi in runs]
                          + [(end, end)] * (len(names) - len(runs)),
                          dtype=np.int64).reshape(-1, 2)
        lo, hi = bounds[:, 0].copy(), bounds[:, 1].copy()
        _check_steps(lo, hi, len(compiled.events))
        index = {name: i for i, name in enumerate(compiled.residuals)}
        steps = _Steps(
            tuple(names), lo, hi,
            np.array([index.get(name, -1) for name in names],
                     dtype=np.int32),
            np.array([name in FLUSHED_PHASES for name in names],
                     dtype=np.int8),
            tuple(compiled.residuals.values()))
        for array in (steps.lo, steps.hi, steps.res, steps.flush):
            array.flags.writeable = False
        memo["steps"] = steps
    return steps


def _check_steps(lo: np.ndarray, hi: np.ndarray, events: int) -> None:
    """Check that the steps tile the trace's events in order: contiguous,
    monotone, from 0 to its last event (the C loop indexes the
    per-event columns unchecked)."""
    edges = np.concatenate([[0], hi])
    bad = np.flatnonzero((lo != edges[:-1]) | (lo > hi))
    if len(bad) or edges[-1] != events:
        at = int(bad[0]) if len(bad) else len(lo) - 1
        where = (f"run [{lo[at]}, {hi[at]})" if at >= 0
                 else "no phase runs")
        raise IndexError(f"phase runs do not tile a trace of {events} "
                         f"events in order: {where}")


def _residual_demands(compiled: GCTrace, cost_model, threads: int
                      ) -> List[Tuple[float, int]]:
    """:meth:`HostCostModel.residual_demand` of each of the trace's
    residuals, memoized on the trace by what it reads."""
    key = ("residuals", threads, cost_model.costs,
           cost_model.core.config.freq_hz)
    memo = _kernel_memo(compiled)
    demands = memo.get(key)
    if demands is None:
        demands = memo[key] = [cost_model.residual_demand(work, threads)
                               for work in _steps(compiled).works]
    return demands


def _residual_threads(platform, threads: int) -> int:
    """The host threads a phase's residual work splits over: one per
    GC thread, core-bounded (as :class:`TraceReplayer` splits it)."""
    return min(threads, platform.config.host.num_cores)


# ---------------------------------------------------------------------------
# Stage 2: one native call per trace
# ---------------------------------------------------------------------------

class _NativeKernel:
    """What the batched kernels share: the lanes, the anonymous streams
    of an HMC host port, a trace's steps and residual table, and the one
    ``_stage2.c`` call (:attr:`entry`) that replays the trace.

    A residual's miss stream is anonymous on an HMC port: spread
    round-robin over the host paths, as ``HMCHostPort.stream_anon``
    spreads it, from the port's cube cursor, which stage 2 loads and
    writes back.  Subclasses fill :attr:`_block` in ``begin`` and may
    load and store more state around the call (:meth:`_load`,
    :meth:`_store`).
    """

    entry = ""

    def __init__(self, platform, threads: int) -> None:
        self.native = native.library()
        self.platform = platform
        self.threads = threads
        self.res_threads = _residual_threads(platform, threads)
        self.lanes = _Lanes()
        self._port = None  # holds the anonymous cube cursor, if any
        self._anon = {"cubes": 0, "anon_off": np.zeros(1, dtype=np.int64),
                      "anon_res": np.zeros(0, dtype=np.int32),
                      "anon_lat": np.zeros(0), "mlp": 1.0}
        self._cursor = np.zeros(1, dtype=np.int64)
        self._out = np.zeros(2)
        self._block = None
        self._sums = None
        self.steps = None
        self.span = np.zeros(0)

    def _anon_paths(self) -> List[Tuple[List, float]]:
        """Account every cube's host path for anonymous streams (before
        any other lane); returns the paths as ``(resources, latency)``."""
        hmc = self.platform.hmc
        self._port = self.platform.port
        paths = []
        for cube in range(hmc.config.cubes):
            resources = hmc.host_path(cube).resources
            paths.append((resources, _path_latency(resources)))
        self.lanes.account([r for resources, _ in paths
                            for r in resources])
        self._anon = {
            "cubes": len(paths),
            "anon_off": _offsets([len(r) for r, _ in paths]),
            "anon_res": np.array([self.lanes.register(r)
                                  for resources, _ in paths
                                  for r in resources], dtype=np.int32),
            "anon_lat": np.array([lat for _, lat in paths],
                                 dtype=np.float64),
            "mlp": float(self.platform.host.core.mlp)}
        return paths

    def _trace_fields(self, compiled: GCTrace,
                      streams: List[Tuple] = None) -> Dict[str, object]:
        """The block fields every kernel shares for one trace: its steps
        (``begin`` sets :attr:`steps` first), residual table, lanes and
        per-primitive sums (residual streams are interned into
        ``streams``, :meth:`_residual_stream`)."""
        keys, pid = _prim_index(compiled)
        steps = self.steps
        self._sums = _PrimSums(keys)
        self.span = np.zeros(2 * len(steps.names))
        table = [(compute, *self._residual_stream(streams, miss))
                 for compute, miss in _residual_demands(
                     compiled, self.platform.cost_model, self.res_threads)]
        self.lanes.size()
        return {"pid": pid, **self._anon, "cursor": self._cursor,
                "H": self.lanes.H, **self.lanes.fields,
                "steps": len(steps.names), "step_lo": steps.lo,
                "step_hi": steps.hi, "step_res": steps.res,
                "step_flush": steps.flush, "res_threads": self.res_threads,
                "res_compute": np.array([t[0] for t in table],
                                        dtype=np.float64),
                "res_nbytes": np.array([t[1] for t in table],
                                       dtype=np.int64),
                "res_stream": np.array([t[2] for t in table],
                                       dtype=np.int32),
                "span": self.span, "sums": self._sums.sums,
                "first": self._sums.first}

    def _fill(self, fields: Tuple, values: Dict[str, object]) -> None:
        """Point the kernel's argument block at one trace's ``values``."""
        if self._block is None:
            self._block = native.Block(fields, values)
        else:
            self._block.update(values)

    def run_phase(self, lo: int, hi: int, start: float,
                  prim_seconds: Dict[Primitive, float]
                  ) -> Tuple[float, float]:
        """Stage 2: replay the whole trace, ``[lo, hi) = [0, events)``,
        step by step from ``start`` in one native call, once per
        ``begin``; returns ``(end, residual seconds)`` and stores the
        per-primitive sums into the empty ``prim_seconds``.  The state
        the call touches is loaded here once and written back once."""
        self.steps.whole(lo, hi)
        self.lanes.sync_in()
        port = self._port
        if port is not None:
            self._cursor[0] = port._anon_cube
        self._load()
        if getattr(self.native, self.entry)(self._block.address, start,
                                            self._out.ctypes.data):
            raise MemoryError("stage-2 thread heap allocation failed")
        self._store()
        if port is not None:
            port._anon_cube = int(self._cursor[0])
        self.lanes.sync_out()
        self._sums.store(prim_seconds)
        end, residual = self._out.tolist()
        return end, residual

    def _residual_stream(self, streams: List[Tuple], miss: int
                         ) -> Tuple[int, int]:
        """A residual's miss stream as ``(bytes, stream id)``: an
        interned stream reserving the bytes on each of its lanes, or,
        here, id -1 for an anonymous stream of ``miss`` bytes."""
        return miss, -1

    def _load(self) -> None:
        """Load kernel-specific state before the call."""

    def _store(self) -> None:
        """Write kernel-specific state back after the call."""


# ---------------------------------------------------------------------------
# Host-executed kernels (cpu-ddr4 multi-thread, cpu-hmc)
# ---------------------------------------------------------------------------

class _HostBatchedKernel(_NativeKernel):
    """Stage 2 of the host-executed kernels: ``host_trace`` over flat
    host plans.

    An event with a memory stream points at a template: a list of runs
    (interned stream ids; each run reserves its lanes and is bounded by
    its latency term, and the event waits for the latest), or one
    anonymous stream (bytes, per-cube share, priority) spread over the
    cubes by the shared round-robin cursor, which stage 2 advances in
    event order.  An anonymous event stream's bytes are accounted in
    bulk at the end of its step, as ``_Lanes`` deposits them.
    """

    entry = "host_trace"

    def _freeze(self, compiled: GCTrace, compute: np.ndarray,
                tid: np.ndarray, templates: Sequence[Tuple],
                streams: List[Tuple]) -> None:
        """Flatten one trace's plans into the stage-2 argument block.

        ``templates`` are ``(0, stream ids)`` run lists or ``(1, nbytes,
        share, priority)`` anonymous streams; residual streams are
        interned into ``streams`` (:meth:`_residual_stream`).
        """
        trace = self._trace_fields(compiled, streams)
        runs = [t[1] if t[0] == 0 else () for t in templates]
        anon = [t if t[0] == 1 else (0, 0, 0, False) for t in templates]
        self._fill(native.HOST_FIELDS, {
            "threads": self.threads, "compute": compute, "tid": tid,
            "t_anon": np.array([t[0] for t in templates], dtype=np.int8),
            "t_off": _offsets([len(r) for r in runs]),
            "t_stream": np.array([s for r in runs for s in r],
                                 dtype=np.int32),
            "t_nbytes": np.array([t[1] for t in anon], dtype=np.int64),
            "t_share": np.array([t[2] for t in anon], dtype=np.int64),
            "t_prio": np.array([t[3] for t in anon], dtype=np.int8),
            **_stream_columns(streams), **trace})


class DDR4BatchedKernel(_HostBatchedKernel):
    """Multi-threaded DDR4 replay: precomputed costs, horizon recurrence.

    Stage 1 builds the :class:`_DDR4Streams` columns and interns one
    stream per distinct (per-channel share, priority, dependence): both
    channels' bulk or priority lanes for the share's service time, or —
    for a miss too small to reach a channel — no lane and a latency
    bound of ``(now + a) + 0.0``, which is the scalar ``now + a``.  The
    only state left for stage 2 is the channels' FIFO horizons and the
    GC thread clocks, plus the channels' counters, which each residual
    stream moves.
    """

    name = "ddr4-batched"

    def __init__(self, platform, threads: int) -> None:
        super().__init__(platform, threads)
        self.streams = _DDR4Streams(platform)
        self.lanes.account(self.streams.channels)
        self.ch_slots = [(self.lanes.slot(ch, False),
                          self.lanes.slot(ch, True))
                         for ch in self.streams.channels]

    def begin(self, compiled: GCTrace) -> None:
        self.steps = _steps(compiled)  # checked before any accounting
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

    def _residual_stream(self, streams: List[Tuple], miss: int
                         ) -> Tuple[int, int]:
        """``DDR4Port.stream_anon`` of ``miss`` bytes: every channel's
        priority lane serves the rounded per-channel share (none when it
        rounds to 0, leaving the latency bound)."""
        ddr4 = self.streams
        share = int(round(miss / ddr4.n_ch))
        lat = ddr4.ch_latency
        if share > 0:
            slots = tuple(prio for _, prio in self.ch_slots)
            n_req = math.ceil(share / CACHE_LINE)
            streams.append((slots, (share / ddr4.ch_rate,) * len(slots),
                            lat, (n_req - 1) * (lat / ddr4.ch_mlp),
                            0.0, 0.0))
        else:
            streams.append(((), (), lat, 0.0, 0.0, 0.0))
        return share, len(streams) - 1


class HostHMCBatchedKernel(_HostBatchedKernel):
    """``cpu-hmc`` replay: per-cube routed host streams, batched.

    Stage 1 splits every event's miss range into per-cube runs through
    the :class:`_CubeMap` mirror and freezes each run's path (host link,
    cube-to-cube hop, destination TSVs) into an interned stream; stage 2
    replays only the shared-FIFO horizon recurrence.  Ranges reaching an
    unmapped page fall back — exactly like
    :meth:`HMCHostPort.stream_range` — to the anonymous round-robin
    stream, whose cube cursor is *shared state* with the residual
    streams: stage 2 advances it for both, in the event path's order.
    """

    name = "hmc-batched"

    def __init__(self, platform, threads: int) -> None:
        super().__init__(platform, threads)
        core = platform.host.core
        costs = platform.config.costs
        self.costs = costs
        self.port = platform.port
        self.hmc = platform.hmc
        self.ipc_hz = core.config.gc_ipc * core.config.freq_hz
        self.hit_lat = costs.cache_hit_latency_s
        self.mlp = core.mlp
        self.map = _CubeMap(self.port.vm, self.port.pcid)
        # Per-cube host paths: resource lists and path latency, frozen
        # from the real topology objects (anonymous streams pick their
        # cube in stage 2, so every path's lanes exist up front).
        self._paths = self._anon_paths()
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

    def begin(self, compiled: GCTrace) -> None:
        self.steps = _steps(compiled)  # checked before any accounting
        compute, miss, dep, priority = host_event_columns(
            compiled, self.costs, self.ipc_hz, self.hit_lat)
        self.map.refresh()
        tid = np.full(len(miss), -1, dtype=np.int32)
        templates = _Interner()
        streams = _Interner()
        need = np.flatnonzero(miss > 0)
        nb = miss[need]
        prio = priority[need]
        runs = self.map.runs(compiled.events["src"][need], nb)
        # A range reaching an unmapped page streams anonymously, exactly
        # like HMCHostPort.stream_range: its cubes come from the shared
        # round-robin cursor, which is stage-2 state, so the template
        # holds only the bytes, the per-cube share and the lane.
        anon = np.flatnonzero(runs.bad)
        _group(tid, need[anon], _key(nb[anon], prio[anon]),
               lambda first, counts: (
                   templates((1, nbytes, self.port.anon_share(nbytes), lane))
                   for nbytes, lane in zip(nb[anon[first]].tolist(),
                                           prio[anon[first]].tolist())))
        # Every other range is its per-cube runs, one stream each; each
        # distinct (runs, lane, dependence) template is built once.
        routed = np.flatnonzero(~runs.bad)
        dep_r = dep[need[routed]]
        _group(tid, need[routed],
               _key(*(column[routed] for column in runs.columns()),
                    prio[routed], (dep_r == 2.0).astype(np.int64)),
               lambda first, counts: (
                   templates((0, tuple(
                       streams(self._stream_plan(cube, nbytes, lane, d))
                       for nbytes, cube in run_list)))
                   for run_list, lane, d in zip(
                       runs.of(routed[first]), prio[routed[first]].tolist(),
                       dep_r[first].tolist())))
        sizes = np.concatenate([runs.nbytes[routed], runs.rest_bytes])
        cubes = np.concatenate([runs.cube[routed], runs.rest_cube])
        bsum = np.bincount(cubes, weights=sizes.astype(np.float64))
        bcnt = np.bincount(cubes)
        _deposit((self._paths[cube][0], int(bsum[cube]), int(bcnt[cube]))
                 for cube in np.flatnonzero(bcnt).tolist())
        self._freeze(compiled, compute, tid, templates.items,
                     streams.items)


# ---------------------------------------------------------------------------
# Charon offload kernel
# ---------------------------------------------------------------------------

#: Charon template kinds (``KIND_*`` in ``_stage2.c``).
FIXED, COPY, SEARCH, SCAN, BITMAP = range(5)

#: Per-slice bitmap-cache counters stage 2 returns (``BC_*``): which
#: object of the slice holds each (its :class:`SetAssociativeCache` or
#: the :class:`BitmapCache`) and the attribute's name.
_BC_STATS = (("cache", "hits"), ("cache", "misses"), ("cache", "evictions"),
             ("cache", "writebacks"), ("slice", "read_accesses"),
             ("slice", "read_hits"), ("slice", "flushes"))


class _Lines:
    """Per-event bitmap-cache lines ``(address, penalty code)``, gathered
    in any row order and laid out in event order.  A line's penalty
    code is ``2 * slice + remote?``, the index of its penalty in
    :attr:`CharonBatchedKernel._bc_pens`."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.pieces: List[Tuple] = []

    def add(self, rows, counts, addrs, codes) -> None:
        """Lines of ``rows`` (``counts[k]`` lines for ``rows[k]``, in
        row order)."""
        if len(rows):
            self.pieces.append(tuple(np.asarray(a) for a in
                                     (rows, counts, addrs, codes)))

    def columns(self) -> Tuple[np.ndarray, ...]:
        """``(rows, counts, base, offsets, codes)``: the rows with lines
        and their line counts, in event order, then every line's
        address as an offset from ``base`` and its penalty code, each in
        the narrowest dtype that holds it."""
        counts = np.zeros(self.n, dtype=np.int64)
        for rows, count, _, _ in self.pieces:
            counts[rows] = count
        off = _offsets(counts)
        total = int(off[-1])
        addrs = np.zeros(total, dtype=np.int64)
        codes = np.zeros(total, dtype=np.int64)
        for rows, count, addr, code in self.pieces:
            seg = np.cumsum(count) - count
            dest = np.repeat(off[rows] - seg, count) \
                + np.arange(int(count.sum()), dtype=np.int64)
            addrs[dest] = addr
            codes[dest] = code
        rows = np.flatnonzero(counts)
        base = int(addrs.min()) if total else 0
        addrs -= base
        return (rows.astype(np.int32), _narrow(counts[rows]), base,
                _narrow(addrs), _narrow(codes))


def _narrow(column: np.ndarray) -> np.ndarray:
    """A non-negative integer column in the narrowest unsigned dtype
    holding its largest value."""
    top = int(column.max()) if len(column) else 0
    return column.astype(np.min_scalar_type(top))


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


#: Where each stage-1 fault check falls among the event path's checks of
#: one event: unit routing, the unit's TLB translations (each a page
#: lookup, then a slice entry), the scanned object's page, the copied or
#: searched ranges, and the bitmap lines.
_ROUTE, _TRANSLATE, _TRANSLATE_DST, _OBJECT, _RANGE, _RANGE_DST, _LINES = \
    0, 1, 3, 5, 6, 7, 8


class _PlanState:
    """One Charon ``begin``'s working set: the trace's columns, source
    page lookups and unit cubes, and what planning gathers until
    ``begin`` applies it."""

    def __init__(self, kernel: "CharonBatchedKernel",
                 compiled: GCTrace) -> None:
        self.compiled = compiled
        self.ev = compiled.events
        self.derived = compiled.derived_columns()
        n = len(self.ev)
        self.src_cube, self.src_psize, self.src_mapped = \
            kernel.map.lookup_columns(self.ev["src"])
        if kernel.cpu_side:
            self.unit = np.zeros(n, dtype=np.int64)
        elif kernel.scan_local:
            self.unit = self.src_cube.copy()
        else:
            self.unit = np.where(self.derived["is_scan"], kernel.central,
                                 self.src_cube)
        self.tid = np.full(n, -1, dtype=np.int32)
        self.lines = _Lines(n)
        #: ``(row, order, address, check)`` of each check's first fault.
        self.faults: List[Tuple] = []
        self.translations: List[Tuple] = []
        #: ``[bytes, streams]`` per (unit cube, target cube) pair.
        self.pairs: Dict[Tuple[int, int], List[int]] = {}
        self.batches: Dict[Tuple[int, int], int] = {}
        self.tallies = {"tlb": [0] * len(kernel.tlbs),
                        "tlb_remote": [0] * len(kernel.tlbs),
                        "bc_port": [0] * len(kernel.bcs),
                        "probes": 0, "probing": 0}


class _CharonPlan(NamedTuple):
    """One trace's Charon stage-1 plan, free of any one kernel's state,
    so a later kernel with the same :meth:`CharonBatchedKernel._plan_key`
    can reuse it (its arrays are read-only).

    The ``line_*`` fields are :meth:`_Lines.columns`.  ``columns`` are
    the template and stream columns, except that ``t_tlb_slot`` and
    ``s_slot`` index ``lanes``: each lane is a ``(resource, priority?)``
    pair named by :meth:`CharonBatchedKernel._resource`, and
    :meth:`_freeze` maps it to the kernel's own lane slot.
    ``batches``, ``tallies`` and ``pairs`` are the order-independent
    counters :meth:`_finish_accounting` applies.
    """

    tid: np.ndarray
    line_rows: np.ndarray
    line_counts: np.ndarray
    line_base: int
    line_addr: np.ndarray
    line_code: np.ndarray
    columns: Dict[str, np.ndarray]
    lanes: Tuple[Tuple[Tuple, int], ...]
    batches: Dict[Tuple[int, int], int]
    tallies: Dict[str, object]
    pairs: Dict[Tuple[int, int], List[int]]


class CharonBatchedKernel(_NativeKernel):
    """Batched offload replay for ``charon`` / ``charon-cpuside``.

    Stage 1 routes every event to its (cube, unit-class) pool, freezes
    the request/response packet chains into flat time addends, compiles
    each unit execution into a template (kind, TLB lookups, stream
    groups, tail time) and per-event bitmap line lists, and
    bulk-applies every order-independent counter (offload tallies,
    packet/probe/link bytes, TLB lookup counts, unit local/remote
    bytes).  It first checks each row where the event path could fault
    — page lookups, and TLB translations against the slices' loaded
    (pinned) entries — and raises the first fault in event order.
    Stage 2 keeps only what is genuinely order-dependent: the per-unit
    busy clocks (least-loaded dispatch), the link/TSV and
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
    entry = "charon_trace"

    def __init__(self, platform, threads: int) -> None:
        super().__init__(platform, threads)
        # Residual work streams anonymously over the host paths.
        self._host_paths = self._anon_paths()
        device = platform.device
        cfg = platform.config
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

        # Stage 1 reads the whole configuration except what only stage
        # 2 uses: the thread count, the unit counts (each pool keeps its
        # routing key) and the dispatch cost.
        self._config_key = dataclasses.replace(
            cfg, gc_threads=0,
            charon=dataclasses.replace(cfg.charon, copy_search_units=0,
                                       bitmap_count_units=0,
                                       scan_push_units=0),
            costs=dataclasses.replace(cfg.costs,
                                      charon_dispatch_overhead_s=0.0))
        self._placement = (None, None, "")

        # Each lane resource's name for :meth:`_resource`, by index.
        self._names: Dict[int, Tuple] = {}
        for cube, (resources, _) in enumerate(self._host_paths):
            for pos in range(len(resources)):
                self._lane(("host", cube, pos), False)
        self.map = _CubeMap(device.context.vm, self.pcid)
        self._page_fault = partial(device.context.vm.lookup, pcid=self.pcid)

        # TLB / bitmap-cache slices.  Unified devices have one slice;
        # ``charon --distributed`` has one per cube, and every lookup
        # is dispatched to the slice owning the translated address
        # (mirroring ``CharonContext.translate`` /
        # ``BitmapCacheComplex.slice_for``).  Port rates and latencies
        # are uniform across slices, so only the slot and the remote
        # penalty vary per lookup.
        self.distributed = device.tlbs.distributed
        self.tlbs = device.tlbs.slices
        self.tlb_slots = [self._lane(("tlb", si), False)
                          for si in range(len(self.tlbs))]
        self.tlb_svc = 1 / self.tlbs[0].port.rate
        self._tlb_uses = {}  # (unit cube, slice) -> lookup tuple
        self._tlb_stamp = None
        self._tlb_keys: List[Tuple[List[int], np.ndarray]] = []

        self.bcs = device.bitmap_cache.slices
        self.bc_slots = [self._lane(("bc", si), False)
                         for si in range(len(self.bcs))]
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
        # real caches around each trace that touches them.
        cache = self.bcs[0].cache
        self._sets = cache.num_sets
        self._ways = cache.ways
        lines = len(self.bcs) * self._sets * self._ways
        self._tag = np.zeros(lines, dtype=np.int64)
        self._dirty = np.zeros(lines, dtype=np.uint8)
        self._stamp = np.zeros(lines, dtype=np.int64)
        self._clock = np.zeros(len(self.bcs), dtype=np.int64)
        self._bc_stats = np.zeros(len(_BC_STATS) * len(self.bcs),
                                  dtype=np.int64)

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
        self._unit_total = np.zeros(len(self._units))
        self._tags_loaded = False
        self._tags_empty = True  # no line was valid when they loaded
        self._tags_mark = None  # _cache_marks() at the last write-back

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
        self._templates = _Interner()
        self._streams = _Interner()
        self.plan: Dict[str, np.ndarray] = {}

    # -- stage-1 helpers ---------------------------------------------------

    def _resource(self, name: Tuple):
        """The lane resource ``name`` names: ``("tlb", slice)``, ``("bc",
        slice)``, ``("host", cube, position)`` or ``("path", unit cube,
        target cube, position)``."""
        if name[0] == "tlb":
            return self.tlbs[name[1]].port
        if name[0] == "bc":
            return self.bcs[name[1]].port
        if name[0] == "host":
            return self._host_paths[name[1]][0][name[2]]
        _, c, t, pos = name
        return self._path(c, t)[0][pos]

    def _lane(self, name: Tuple, prio: bool) -> int:
        """The lane slot of resource ``name`` (registering it)."""
        slot = self.lanes.slot(self._resource(name), prio)
        self._names.setdefault(slot >> 1, name)
        return slot

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
            slots = tuple(self._lane(("path", c, t, pos), prio)
                          for pos in range(len(resources)))
            svcs = tuple(nbytes / r.rate for r in resources)
            n = math.ceil(nbytes / chunk)
            plan = (slots, svcs, rt * 1, (n - 1) * (rt / self.mai),
                    n / self.issue, rt)
            self._plan_cache[key] = plan
        return plan

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

    def _tally(self, state: _PlanState, u: int, code: int, m: int,
               uses: Tuple = (), probes: int = 0) -> None:
        """Count ``m`` offloads of template ``code`` on unit cube ``u``:
        their TLB lookups ``uses`` and their clflush ``probes`` each."""
        key = (u, code)
        state.batches[key] = state.batches.get(key, 0) + m
        tallies = state.tallies
        for _, _, si, remote in uses:
            tallies["tlb"][si] += m
            if remote:
                tallies["tlb_remote"][si] += m
        if probes:
            tallies["probes"] += probes * m
            tallies["probing"] += m

    def _run_streams(self, state: _PlanState, u: int, runs, chunk: int,
                     prio: bool, m: int) -> Tuple[int, ...]:
        """Stream ids of one template's ``(bytes, cube)`` runs from unit
        cube ``u``, accounted for its ``m`` events."""
        ids = []
        for nbytes, t in runs:
            ids.append(self._streams(
                self._stream_plan(u, t, nbytes, chunk, prio)))
            counters = state.pairs.get((u, t))
            if counters is None:
                counters = state.pairs[(u, t)] = [0, 0]
            counters[0] += nbytes * m
            counters[1] += m
        return tuple(ids)

    @staticmethod
    def _fault(state: _PlanState, order, rows: np.ndarray,
               addrs: np.ndarray, check) -> None:
        """Note that ``rows`` fault at check ``order`` (one, or one per
        row) on ``addrs``; ``check(addr)`` is the scalar check that
        raises the fault, so ``begin`` raises the event path's own."""
        if len(rows):
            order = np.broadcast_to(order, rows.shape)
            k = int(np.argmin(rows * 16 + order))
            state.faults.append((int(rows[k]), int(order[k]),
                                 int(addrs[k]), check))

    def _check_mapped(self, state: _PlanState, order: int,
                      rows: np.ndarray, addrs: np.ndarray,
                      mapped: np.ndarray) -> None:
        """Fault the ``rows`` whose page-table lookup of ``addrs`` (the
        event path's ``vm.cube_of``) finds no mapping."""
        if not mapped.all():
            miss = np.flatnonzero(~mapped)
            self._fault(state, order, rows[miss], addrs[miss],
                        self._page_fault)

    def _translate(self, state: _PlanState, order: int, rows: np.ndarray,
                   addrs: np.ndarray, cube: np.ndarray,
                   mapped: np.ndarray) -> None:
        """Queue ``rows``' translations of ``addrs`` for :meth:`_check_tlb`
        as :meth:`CharonContext.translate` makes them: distributed, the
        page lookup (``cube``/``mapped``) picks the slice, or faults."""
        if self.distributed:
            self._check_mapped(state, order, rows, addrs, mapped)
            rows, addrs, cube = rows[mapped], addrs[mapped], cube[mapped]
        state.translations.append((order + 1, rows, addrs, cube))

    def _check_tlb(self, state: _PlanState) -> None:
        """Fault the queued translations whose TLB slice holds no entry
        for the address (:meth:`AcceleratorTLB.resolve`): only pages
        pinned when the TLBs were loaded translate."""
        queued = state.translations
        order = np.concatenate([np.full(len(q[1]), q[0]) for q in queued])
        rows, addrs, cube = (np.concatenate([q[i] for q in queued])
                             for i in (1, 2, 3))
        held = np.zeros(len(rows), dtype=bool)
        for size, keys, slices in self._tlb_pages():
            page = addrs & -size
            index = np.searchsorted(keys, page)
            hit = keys[index] == page
            if self.distributed:
                hit &= (slices[index] >> cube) & 1 == 1
            held |= hit
        denied = np.flatnonzero(~held)
        self._fault(state, order[denied], rows[denied], addrs[denied],
                    self._tlb_fault)

    def _tlb_fault(self, addr: int) -> None:
        """Raise the fault :meth:`CharonContext.translate` raises when
        the TLB slice it picks for ``addr`` holds no entry for it."""
        si = self.map.vm.cube_of(addr, self.pcid) if self.distributed else 0
        self.tlbs[si].resolve(addr, self.pcid)

    def _tlb_pages(self) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        """Per page size the TLB slices resolve with, the sorted entry
        addresses (this pcid's) with a bitmask of the slices holding each
        at that size; rebuilt when the slices' entries change."""
        stamp = [(len(t.entries), list(t._page_sizes)) for t in self.tlbs]
        if stamp != self._tlb_stamp:
            self._tlb_stamp = stamp
            self._tlb_keys = []
            for size in sorted({size for _, sizes in stamp for size in sizes}):
                held: Dict[int, int] = {}
                for si, tlb in enumerate(self.tlbs):
                    if size in tlb._page_sizes:
                        for pcid, vaddr in tlb.entries:
                            if pcid == self.pcid:
                                held[vaddr] = held.get(vaddr, 0) | 1 << si
                keys = sorted(held)
                self._tlb_keys.append((
                    size, np.array(keys + [_PAST_PAGES], dtype=np.int64),
                    np.array([held[k] for k in keys] + [0], dtype=np.int64)))
        return self._tlb_keys

    def _plan_key(self, info) -> Tuple:
        """Everything stage 1 reads besides the trace: the stage-1
        configuration, the device's side and pcid, the heap addresses
        and a digest of the page placement (the cube map's tables and
        the TLB slices' entries), rehashed only when either changes."""
        tables, pages = self.map._tables, self._tlb_pages()
        if self._placement[0] is not tables \
                or self._placement[1] is not pages:
            digest = hashlib.blake2b(digest_size=16)
            for group in (tables, pages):
                digest.update(repr([(size, len(keys))
                                    for size, keys, _ in group]).encode())
                for _, keys, values in group:
                    digest.update(keys.tobytes())
                    digest.update(values.tobytes())
            self._placement = (tables, pages, digest.hexdigest())
        return ("charon_plan", self._config_key, self.cpu_side, self.pcid,
                info, self._placement[2])

    def begin(self, compiled: GCTrace) -> None:
        """Plan every event of ``compiled``, or reuse the plan the trace
        keeps for this kernel's :meth:`_plan_key`, then apply its
        counters; a trace the event path would fault on raises its
        first fault before any counter moves."""
        info = self.device._require_init()
        self.steps = _steps(compiled)  # checked before any accounting
        self.map.refresh()
        memo = _kernel_memo(compiled)
        key = self._plan_key(info)
        plan = memo.get(key)
        global_metrics().counter(
            "replay.charon_plans",
            "Charon stage-1 plans reused from the trace (hit) or built "
            "(miss)", outcome="miss" if plan is None else "hit").add(1)
        if plan is None:
            plan = self._plan(compiled, info)
            planned = memo.get("charon_plans", 0)
            memo["charon_plans"] = planned + 1
            if planned:
                memo[key] = plan
        self._finish_accounting(compiled, plan)
        self._freeze(compiled, plan)

    def _plan(self, compiled: GCTrace, info) -> _CharonPlan:
        """Plan every event of ``compiled``, raising the event path's
        first fault if there is one."""
        state = _PlanState(self, compiled)
        self._templates = _Interner()
        self._streams = _Interner()
        if not self.cpu_side:
            # Copies and searches (and, spread over the cubes, scans)
            # are routed to the cube of their source.
            ev, derived = state.ev, state.derived
            routed = np.flatnonzero(derived["is_copy"] | derived["is_search"]
                                    | (derived["is_scan"] & self.scan_local))
            self._check_mapped(state, _ROUTE, routed,
                               ev["src"][routed], state.src_mapped[routed])
        self._copies_and_searches(state)
        self._scans(state, info)
        self._bitmap_counts(state, info)
        self._check_tlb(state)
        if state.faults:
            row, _, addr, check = min(state.faults, key=lambda f: f[:2])
            check(addr)
            raise SimulationError(f"stage 1 expected event {row} to fault "
                                  f"at {addr:#x}")
        columns = {**_charon_template_columns(self._templates.items),
                   **_stream_columns(self._streams.items)}
        # Name each lane slot the plan uses (a template's unused TLB
        # entries hold slot 0, a registered lane).
        slots, inverse = np.unique(
            np.concatenate([columns["t_tlb_slot"], columns["s_slot"]]),
            return_inverse=True)
        ntlb = len(columns["t_tlb_slot"])
        columns["t_tlb_slot"] = inverse[:ntlb].astype(np.int32)
        columns["s_slot"] = inverse[ntlb:].astype(np.int32)
        plan = _CharonPlan(
            state.tid, *state.lines.columns(), columns,
            tuple((self._names[slot >> 1], slot & 1)
                  for slot in slots.tolist()),
            state.batches, state.tallies, state.pairs)
        for array in (plan.tid, plan.line_rows, plan.line_counts,
                      plan.line_addr, plan.line_code, *columns.values()):
            array.flags.writeable = False
        return plan

    def _copies_and_searches(self, state: _PlanState) -> None:
        """Copies read their source runs and write their destination
        runs; searches stream the card-table bytes they examine (at
        least 32), then compare 32 bytes a cycle.  All their ranges are
        split into per-cube runs in one pass."""
        ev = state.ev
        size = ev["size_bytes"]
        copies = np.flatnonzero(state.derived["is_copy"] & (size > 0))
        searches = np.flatnonzero(state.derived["is_search"])
        examined = np.maximum(32,
                              state.derived["search_examined"][searches])
        n = len(copies)
        src, dst = ev["src"][copies], ev["dst"][copies]
        dst_at = self.map.lookup_columns(dst)
        src_at, search_at = ([a[rows] for a in (state.src_cube,
                                                 state.src_psize,
                                                 state.src_mapped)]
                             for rows in (copies, searches))
        self._translate(state, _TRANSLATE, copies, src, src_at[0],
                        src_at[2])
        self._translate(state, _TRANSLATE_DST, copies, dst, dst_at[0],
                        dst_at[2])
        self._translate(state, _TRANSLATE, searches, ev["src"][searches],
                        search_at[0], search_at[2])
        runs = self.map.runs(
            np.concatenate([src, dst, ev["src"][searches]]),
            np.concatenate([size[copies], size[copies], examined]),
            tuple(map(np.concatenate, zip(src_at, dst_at, search_at))))
        for order, rows, lo in ((_RANGE, copies, 0), (_RANGE_DST, copies, n),
                                (_RANGE, searches, 2 * n)):
            hi = lo + len(rows)
            self._check_mapped(state, order, rows,
                               runs.bad_at[lo:hi], ~runs.bad[lo:hi])
        if state.faults:
            return
        code = PRIMITIVE_TYPE_CODES[Primitive.COPY]
        self._plan_trivial(
            state, np.flatnonzero(state.derived["is_copy"] & (size <= 0)),
            "copy_search", code, 0, self.cyc)
        run_key = _key(*runs.columns())
        u = state.unit[copies]

        def plan_copies(first, counts):
            for u0, sc, dc, nbytes, read, write, m in zip(
                    u[first].tolist(), src_at[0][first].tolist(),
                    dst_at[0][first].tolist(), size[copies[first]].tolist(),
                    runs.of(first), runs.of(first + n), counts):
                use_s = self._tlb_use(u0, sc)
                use_d = self._tlb_use(u0, dc)
                self._tally(state, u0, code, m, (use_s, use_d),
                            2 * math.ceil(nbytes / self.chunk))
                yield self._template(
                    COPY, "copy_search", u0, 0,
                    ((use_s[0], use_s[1]), (use_d[0], use_d[1])),
                    self._run_streams(state, u0, read, self.chunk, False,
                                      m),
                    self._run_streams(state, u0, write, self.chunk, False,
                                      m))

        _group(state.tid, copies,
                    _key(u, run_key[:n], run_key[n:2 * n]), plan_copies)
        u = state.unit[searches]

        def plan_searches(first, counts):
            for u0, sc, ex0, searched, m in zip(
                    u[first].tolist(), search_at[0][first].tolist(),
                    examined[first].tolist(), runs.of(first + 2 * n),
                    counts):
                s_chunk = min(HMC_MAX_REQUEST, ex0)
                use = self._tlb_use(u0, sc)
                self._tally(state, u0, PRIMITIVE_TYPE_CODES[
                    Primitive.SEARCH], m, (use,), math.ceil(ex0 / s_chunk))
                yield self._template(
                    SEARCH, "copy_search", u0, 1, ((use[0], use[1]),),
                    self._run_streams(state, u0, searched, s_chunk, False,
                                      m),
                    (), math.ceil(ex0 / 32) * self.cyc)

        _group(state.tid, searches, _key(u, run_key[2 * n:]),
                    plan_searches)

    def _scans(self, state: _PlanState, info) -> None:
        """Scans read the object's slots on its cube and one line per
        reference spread over the cubes; marking scans also touch one
        mark-bitmap line per push."""
        ev = state.ev
        code = PRIMITIVE_TYPE_CODES[Primitive.SCAN_PUSH]
        rows = np.flatnonzero(state.derived["is_scan"])
        if not len(rows):
            return
        refs = ev["refs"][rows]
        idle = rows[refs <= 0]
        rows = rows[refs > 0]
        src = ev["src"][rows]
        obj_cube = state.src_cube[rows]
        self._translate(state, _TRANSLATE, rows, src, obj_cube,
                        state.src_mapped[rows])
        self._check_mapped(state, _OBJECT, rows, src,
                           state.src_mapped[rows])
        pushes = ev["pushes"]
        covered = info.heap_end - info.bitmap_covered_start
        if state.compiled.kind in ("major", "g1", "concurrent") \
                and covered > 0:
            self._mark_lines(state, rows[pushes[rows] > 0], covered,
                             info.bitmap_base)
        if state.faults:
            return
        self._plan_trivial(state, idle, "scan_push", code, 1, 2 * self.cyc)
        rf = refs[refs > 0]
        ps = pushes[rows]
        u = state.unit[rows]

        cubes = self.ref_cubes

        def plan(first, counts):
            for u0, oc0, rf0, ps0, m in zip(
                    u[first].tolist(), obj_cube[first].tolist(),
                    rf[first].tolist(), ps[first].tolist(), counts):
                # The referee loads spread round-robin over the cubes.
                loads = [((rf0 // cubes + (t < rf0 % cubes)) * CACHE_LINE, t)
                         for t in range(min(rf0, cubes))]
                use = self._tlb_use(u0, oc0)
                self._tally(state, u0, code, m, (use,), rf0)
                yield self._template(
                    SCAN, "scan_push", u0, 1, ((use[0], use[1]),),
                    self._run_streams(state, u0,
                                      [(max(CACHE_LINE, rf0 * 8), oc0)],
                                      256, True, m),
                    self._run_streams(state, u0, loads, CACHE_LINE, True,
                                      m),
                    ps0 * self.cyc)

        _group(state.tid, rows, _key(rf, ps, u, obj_cube), plan)

    def _mark_lines(self, state: _PlanState, rows: np.ndarray,
                    covered: int, bitmap_base: int) -> None:
        """Mark lines of marking-phase scan ``rows`` (all with pushes):
        push ``k`` of a scan at ``src`` marks the bitmap line at byte
        offset ``(h + (src & 0x3FF0) + 64 k) % covered``, where the
        window hash ``h = ((src >> 14) * 2654435761) % covered`` is exact
        in int64 — ``src >> 14`` is reduced first, then multiplied by the
        constant's 16-bit halves with a reduction between them."""
        if covered >= 2 ** 47:
            raise ConfigError(f"a {covered}-byte marked heap overflows the "
                              f"stage-1 window hash (limit 2**47 bytes)")
        src = state.ev["src"]
        pushes = state.ev["pushes"]
        for lo in range(0, len(rows), PLAN_BLOCK_ROWS):
            blk = rows[lo:lo + PLAN_BLOCK_ROWS]
            s = src[blk]
            count = pushes[blk]
            x = (s >> 14) % covered
            h = (((x * (2654435761 >> 16)) % covered) << 16) % covered
            h = (h + (x * (2654435761 & 0xFFFF)) % covered) % covered
            window = h + (s & 0x3FF0)
            first = np.cumsum(count) - count
            step = 64 * np.arange(int(count.sum()), dtype=np.int64)
            off = (np.repeat(window - 64 * first, count) + step) % covered
            self._add_lines(state, blk, count, bitmap_base + off // 64)

    def _bitmap_counts(self, state: _PlanState, info) -> None:
        """Bitmap counts of ``bits`` bits at ``src`` read the cache
        lines their words span in each of the two mark bitmaps, after
        translating the bitmap base."""
        code = PRIMITIVE_TYPE_CODES[Primitive.BITMAP_COUNT]
        rows = np.flatnonzero(state.derived["is_bitmap"])
        if not len(rows):
            return
        # ``(src - covered_start) // WORD // 8``, exact for any int64
        # ``src``: the operands are floor-divided by 64 apart.
        quot, rem = np.divmod(state.ev["src"][rows], 8 * WORD)
        start_quot, start_rem = divmod(info.bitmap_covered_start, 8 * WORD)
        byte_lo = (quot - start_quot) + (rem - start_rem) // (8 * WORD)
        if self.cpu_side:
            unit = np.zeros(len(rows), dtype=np.int64)
        else:
            route = info.bitmap_base + byte_lo
            unit, _, mapped = self.map.lookup_columns(route)
            self._check_mapped(state, _ROUTE, rows, route, mapped)
        state.unit[rows] = unit
        bits = state.ev["bits"][rows]
        counting = np.flatnonzero(bits > 0)
        if len(counting):
            # Every counting row translates the same base, so only the
            # first one can be the first to fault on it.
            base = np.array([info.bitmap_base], dtype=np.int64)
            owner, _, base_mapped = self.map.lookup_columns(base)
            self._translate(state, _TRANSLATE, rows[counting[:1]], base,
                            owner, base_mapped)
        words = (bits + 63) // 64
        bc_line = self.bcs[0].line_bytes
        bases = (info.bitmap_base, info.bitmap_base + info.bitmap_bytes)
        for lo in range(0, len(counting), PLAN_BLOCK_ROWS):
            blk = counting[lo:lo + PLAN_BLOCK_ROWS]
            byte_a = byte_lo[blk]
            byte_b = byte_a + words[blk] * WORD
            first = np.stack([(b + byte_a) // bc_line for b in bases],
                             axis=1).ravel()
            count = np.stack([(b + byte_b - 1) // bc_line for b in bases],
                             axis=1).ravel() - first + 1
            seg = np.cumsum(count) - count
            index = np.repeat(first - seg, count) \
                + np.arange(int(count.sum()), dtype=np.int64)
            per_row = count[0::2] + count[1::2]
            self._add_lines(state, rows[blk], per_row, index * bc_line)
        if state.faults:
            return
        self._plan_trivial(state, rows[bits <= 0], "bitmap_count", code, 1,
                           self.cyc)
        # One template per (unit cube, words): the count's tail time.
        u_c = unit[counting]
        w_c = words[counting]

        def plan(first, counts):
            for u0, w, m in zip(u_c[first].tolist(), w_c[first].tolist(),
                                counts):
                use = self._tlb_use(u0, int(owner[0]))
                self._tally(state, u0, code, m, (use,))
                yield self._template(BITMAP, "bitmap_count", u0, 1,
                                     ((use[0], use[1]),), tail=w * self.cyc)

        _group(state.tid, rows[counting], _key(u_c, w_c), plan)

    def _add_lines(self, state: _PlanState, rows: np.ndarray,
                   counts: np.ndarray, line_addr: np.ndarray) -> None:
        """Add one block's bitmap-cache lines (``counts[k]`` of them for
        ``rows[k]``, in access order) with their slices and remote
        penalties; a row reading an unmapped line faults there."""
        unit = np.repeat(state.unit[rows], counts)
        cube, _, mapped = self.map.lookup_columns(line_addr)
        if not mapped.all():
            self._check_mapped(state, _LINES,
                               np.repeat(rows, counts), line_addr, mapped)
        si = cube if self.distributed else np.zeros_like(cube)
        t_bc = state.tallies["bc_port"]
        for ci, accesses in enumerate(
                np.bincount(si, minlength=len(t_bc)).tolist()):
            t_bc[ci] += accesses
        state.lines.add(rows, counts, line_addr,
                        2 * si + (unit != self._bc_home[si]))

    def _plan_trivial(self, state: _PlanState, rows: np.ndarray,
                      kind_key: str, code: int, has_value: int,
                      tail: float) -> None:
        """Plan ``rows`` whose primitive costs the fixed ``tail`` and
        touches no memory: one template per unit cube."""
        units = state.unit[rows]

        def plan(first, counts):
            for u0, m in zip(units[first].tolist(), counts):
                self._tally(state, u0, code, m)
                yield self._template(FIXED, kind_key, u0, has_value,
                                     tail=tail)

        _group(state.tid, rows, units, plan)

    def _finish_accounting(self, compiled: GCTrace,
                           plan: _CharonPlan) -> None:
        """Apply every order-independent counter of ``plan``."""
        device = self.device
        batches = plan.batches
        tallies = plan.tallies
        code_copy = PRIMITIVE_TYPE_CODES[Primitive.COPY]
        for (cube, p), count in batches.items():
            device.record_offload_batch(cube, CODE_TO_PRIMITIVE[p],
                                        count, p != code_copy)
        if not self.cpu_side:
            hl = self.hmc.host_link
            n_events = len(compiled.events)
            n_copy = int(compiled.derived_columns()["is_copy"].sum())
            req_b = self._req_size * n_events
            resp_b = self._resp_sizes[0] * n_copy \
                + self._resp_sizes[1] * (n_events - n_copy)
            # A request and a response per event, and one clflush probe
            # batch (a single ``probe_host`` tally) per probing event.
            hl.account_bulk(req_b + resp_b + 8 * tallies["probes"],
                            2 * n_events + tallies["probing"])
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
            local = sum(nbytes for (c, t), (nbytes, _)
                        in plan.pairs.items() if c == t)
            self.hmc.unit_local_bytes += local
            self.hmc.unit_remote_bytes += sum(
                nbytes for nbytes, _ in plan.pairs.values()) - local
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
        _deposit((self._path(c, t)[0], nbytes, streams)
                 for (c, t), (nbytes, streams) in plan.pairs.items())

    def _freeze(self, compiled: GCTrace, plan: _CharonPlan) -> None:
        """Expand ``plan`` into :attr:`plan` (the columns stage 2 reads,
        on this kernel's lane slots) and the stage-2 argument block."""
        slots = np.array([self._lane(name, prio) for name, prio
                          in plan.lanes], dtype=np.int32)
        lines = np.zeros(len(plan.tid), dtype=np.int64)
        lines[plan.line_rows] = plan.line_counts
        self.plan = {"tid": plan.tid, "line_off": _offsets(lines),
                     "line_addr": plan.line_addr.astype(np.int64)
                     + plan.line_base,
                     "line_slice": (plan.line_code >> 1).astype(np.int32),
                     "line_pen": self._bc_pens[plan.line_code],
                     **plan.columns,
                     "t_tlb_slot": slots[plan.columns["t_tlb_slot"]],
                     "s_slot": slots[plan.columns["s_slot"]]}
        trace = self._trace_fields(compiled)
        # The tags stage 2 reads: a trace with bitmap lines or a flush.
        self._tags_loaded = self.bc_enabled and bool(
            len(plan.line_rows) or self.steps.flush.any())
        self._fill(native.CHARON_FIELDS, {
            "threads": self.threads, **self.plan, **trace,
            "dispatch": self.dispatch, "tlb_svc": self.tlb_svc,
            "access_lat": self.access_lat, "bc_svc": self.bc_svc,
            "bc_mem": self.bc_mem, "bc_enabled": int(self.bc_enabled),
            "bc_slot": np.array(self.bc_slots, dtype=np.int32),
            "pool_off": self._pool_off, "units": len(self._units),
            "unit_busy": self._unit_busy, "unit_cmds": self._unit_cmds,
            "unit_time": self._unit_time, "unit_total": self._unit_total,
            "slices": len(self.bcs), "sets": self._sets,
            "ways": self._ways, "line_bytes": self.bcs[0].line_bytes,
            "tag": self._tag, "dirty": self._dirty, "stamp": self._stamp,
            "clock": self._clock, "bc_stats": self._bc_stats})

    # -- state synchronisation ---------------------------------------------

    def _load(self) -> None:
        self._unit_busy[:] = [unit.busy_until for unit in self._units]
        self._unit_total[:] = [unit.busy_time for unit in self._units]
        if self._tags_loaded:
            self._caches_in()

    def _store(self) -> None:
        # Only units that ran a command moved.
        busy, cmds, total = (self._unit_busy.tolist(),
                             self._unit_cmds.tolist(),
                             self._unit_total.tolist())
        for u in np.flatnonzero(self._unit_cmds).tolist():
            unit = self._units[u]
            unit.busy_until = busy[u]
            unit.commands += cmds[u]
            unit.busy_time = total[u]
        self._unit_cmds[:] = 0
        self._caches_out()

    def _cache_marks(self) -> List[Tuple[int, ...]]:
        """Every slice's counters: any access, flush or stage-2 write-back
        moves one of them."""
        return [(bc.cache.hits, bc.cache.misses, bc.cache.writebacks,
                 bc.flushes) for bc in self.bcs]

    def _caches_in(self) -> None:
        """Load every slice's tags into the stage-2 arrays: a set's
        lines take stamps ``1..k`` from least to most recently used.
        The arrays still hold them if no slice counter moved since this
        kernel wrote them back."""
        if self._cache_marks() == self._tags_mark:
            self._tags_empty = not self._stamp.any()
            return
        ways = self._ways
        self._stamp[:] = 0
        self._clock[:] = ways
        at, tags, dirty, stamps = [], [], [], []
        for ci, bc in enumerate(self.bcs):
            for s, lines in enumerate(bc.cache.lru_state()):
                w0 = (ci * self._sets + s) * ways
                for w, (line_tag, line_dirty) in enumerate(lines):
                    at.append(w0 + w)
                    tags.append(line_tag)
                    dirty.append(line_dirty)
                    stamps.append(w + 1)
        self._tags_empty = not at
        if at:
            self._tag[at] = tags
            self._dirty[at] = dirty
            self._stamp[at] = stamps

    def _caches_out(self) -> None:
        """Write the tags back (LRU order = stamp order) if stage 2 read
        them and they changed, and fold the trace's counters into each
        slice."""
        ways = self._ways
        stamp = self._stamp.reshape(-1, ways)
        live = np.flatnonzero(stamp.any(axis=1)) if self._tags_loaded \
            else ()
        if len(live) or (self._tags_loaded and not self._tags_empty):
            states = [()] * len(stamp)
            if len(live):
                # Invalid ways (stamp 0) sort first, valid ones by age.
                order = np.argsort(stamp[live], axis=1)
                rows = live[:, None]
                for row, valid, tags, dirty in zip(
                        live.tolist(),
                        np.count_nonzero(stamp[live], axis=1).tolist(),
                        self._tag.reshape(-1, ways)[rows, order].tolist(),
                        self._dirty.reshape(-1, ways)[rows, order]
                        .astype(bool).tolist()):
                    states[row] = list(zip(tags[ways - valid:],
                                           dirty[ways - valid:]))
            for ci, bc in enumerate(self.bcs):
                bc.cache.set_lru_state(
                    states[ci * self._sets:(ci + 1) * self._sets])
        if self._bc_stats.any():
            stats = self._bc_stats.reshape(len(self.bcs), -1).tolist()
            for bc, counts in zip(self.bcs, stats):
                for (part, name), value in zip(_BC_STATS, counts):
                    if value:
                        owner = bc.cache if part == "cache" else bc
                        setattr(owner, name, getattr(owner, name) + value)
            self._bc_stats[:] = 0
        if self._tags_loaded:
            self._tags_mark = self._cache_marks()


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
