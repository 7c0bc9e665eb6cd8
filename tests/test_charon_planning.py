"""Plan-level differential tests for the Charon kernel's stage 1.

:meth:`CharonBatchedKernel.begin` plans rows in numpy, and
:meth:`CharonBatchedKernel._plan_events` is the per-event reference
planner.  On fresh kernels both must build the same plan tuples, the
same accumulators (stream bytes, offload batches, TLB/bitmap-cache/probe
tallies) and leave the device with the same counters, for every golden
trace kind on every Charon organisation.  The golden replay matrix only
sees the timing these plans produce; this suite pins the plans
themselves, so a planning bug that happens not to move a result still
fails here.
"""

import numpy as np
import pytest

from repro.errors import ProtectionFault
from repro.gcalgo.columnar import (CompiledTrace, PRIMITIVE_TYPE_CODES,
                                   compile_traces)
from repro.gcalgo.trace import Primitive
from repro.platform.batched import _HASH_LIMIT, batched_kernel_for

from tests.conftest import platform_for

KINDS = ("minor", "major", "sweep", "g1", "concurrent")
PLATFORMS = ("charon", "charon-cpuside", "charon-distributed")
THREADS = (1, 8)
MARKING_KINDS = ("major", "g1", "concurrent")

CODE_SCAN = PRIMITIVE_TYPE_CODES[Primitive.SCAN_PUSH]
CODE_BITMAP = PRIMITIVE_TYPE_CODES[Primitive.BITMAP_COUNT]


@pytest.fixture(scope="module")
def traces(mixed_run, g1_traces_session, concurrent_traces_session):
    """The golden trace sets, compiled, by kind."""
    by_kind = {kind: [t for t in mixed_run.traces if t.kind == kind]
               for kind in ("minor", "major", "sweep")}
    by_kind["g1"] = g1_traces_session
    by_kind["concurrent"] = concurrent_traces_session
    return {kind: compile_traces(found) for kind, found in by_kind.items()}


def fresh_kernel(platform_name, threads):
    """A new platform and its Charon kernel, with every stream path's
    resources registered up front in a fixed order.

    Lane numbers are assigned on first touch, and the two planners touch
    paths in different orders; pre-registering makes the slot numbers in
    both planners' plans the same, so the plans compare with ``==``.
    """
    platform, _, _ = platform_for(platform_name)
    kernel = batched_kernel_for(platform, threads)
    cubes = platform.hmc.config.cubes
    for c in range(cubes):
        for t in range(cubes):
            for resource in kernel._path(c, t)[0]:
                kernel.lanes.register(resource)
    return platform, kernel


def vectorized(kernel, compiled, spy=None):
    """Run ``begin``; returns ``(plans, acc, batches, tallies)`` as it
    handed them to ``_finish_accounting``."""
    seen = {}
    finish = kernel._finish_accounting

    def capture(compiled, copy_m, batches, acc, tallies):
        seen.update(acc=acc, batches=batches, tallies=tallies)
        finish(compiled, copy_m, batches, acc, tallies)

    kernel._finish_accounting = capture
    if spy is not None:
        plan_events = kernel._plan_events

        def spying(compiled, info, indices, *rest):
            indices = list(indices)
            spy.extend(indices)
            plan_events(compiled, info, indices, *rest)

        kernel._plan_events = spying
    kernel.begin(compiled)
    return kernel._plans, seen["acc"], seen["batches"], seen["tallies"]


def scalar(kernel, compiled):
    """Plan every row through ``_plan_events`` and apply the accounting
    exactly as ``begin`` does."""
    info = kernel.device._require_init()
    kernel.map.refresh()
    n = len(compiled.events)
    kernel._local_bytes = 0
    kernel._remote_bytes = 0
    plans = [None] * n
    acc, batches = {}, {}
    tallies = {"tlb": [0] * len(kernel.tlbs),
               "tlb_remote": [0] * len(kernel.tlbs),
               "bc_port": [0] * len(kernel.bcs),
               "probes": 0}
    kernel._plan_events(compiled, info, range(n), plans, acc, batches,
                        tallies)
    kernel._finish_accounting(compiled,
                              compiled.derived_columns()["is_copy"],
                              batches, acc, tallies)
    return plans, acc, batches, tallies


def counters(platform):
    """Every number reachable from the platform's attributes, by path
    (the heap itself, which replay never writes, is skipped)."""
    out = {}
    seen = set()

    def walk(value, path):
        if isinstance(value, bool) or value is None:
            return
        if isinstance(value, (int, float)):
            out[path] = value
            return
        if id(value) in seen or isinstance(value, (str, np.ndarray)):
            return
        seen.add(id(value))
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}[{key!r}]")
        elif isinstance(value, (list, tuple)):
            for index, item in enumerate(value):
                walk(item, f"{path}[{index}]")
        elif type(value).__module__.startswith("repro.") \
                and type(value).__name__ != "JavaHeap":
            fields = (vars(value) if hasattr(value, "__dict__")
                      else {name: getattr(value, name)
                            for name in getattr(value, "__slots__", ())})
            for name, item in fields.items():
                walk(item, f"{path}.{name}")

    walk(platform, "platform")
    return out


def mutated(compiled, row, **fields):
    """A copy of ``compiled`` with one event's fields replaced."""
    events = compiled.events.copy()
    for name, value in fields.items():
        events[name][row] = value
    stats = {name: getattr(compiled, name) for name in
             ("objects_visited", "objects_copied", "bytes_copied",
              "objects_promoted", "bytes_freed")}
    return CompiledTrace(compiled.kind, compiled.heap_bytes, events,
                         compiled.phase_names, compiled.residuals, **stats)


def first_row(compiled, code, **minimums):
    ev = compiled.events
    mask = ev["prim"] == code
    for name, least in minimums.items():
        mask &= ev[name] >= least
    rows = np.flatnonzero(mask)
    assert len(rows), f"{compiled.kind} trace has no such row"
    return int(rows[0])


class TestPlansMatchScalarPlanner:
    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize("platform_name", PLATFORMS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_plans_accumulators_and_counters(self, traces, kind,
                                             platform_name, threads):
        fast_platform, fast = fresh_kernel(platform_name, threads)
        slow_platform, slow = fresh_kernel(platform_name, threads)
        for compiled in traces[kind]:
            spy = []
            got = vectorized(fast, compiled, spy)
            want = scalar(slow, compiled)
            assert got[0] == want[0], "plans differ"
            assert got[1] == want[1], "stream accounting differs"
            assert got[2] == want[2], "offload batches differ"
            assert got[3] == want[3], "tallies differ"
            assert counters(fast_platform) == counters(slow_platform)
            # Nothing faults, so the scalar planner sees no bitmap-count
            # row and no marking-phase scan.
            prim = compiled.events["prim"][spy]
            assert not (prim == CODE_BITMAP).any()
            if kind in MARKING_KINDS:
                assert not (prim == CODE_SCAN).any()

    def test_marking_and_bitmap_rows_are_covered(self, traces):
        """The golden traces exercise both vectorized row kinds with
        multi-line plans, on more than one bitmap-cache slice."""
        _, kernel = fresh_kernel("charon-distributed", 8)
        lines = {"B": 0, "P": 0}
        slices = set()
        for kind in MARKING_KINDS:
            for compiled in traces[kind]:
                plans, _, _, _ = vectorized(kernel, compiled)
                for plan in plans:
                    ex = plan[3]
                    found = (ex[2] if ex[0] == "B" else
                             ex[5] if ex[0] == "P" else None)
                    if found:
                        lines[ex[0]] = max(lines[ex[0]], len(found))
                        slices.update(ci for _, ci, _ in found)
        assert lines["B"] > 2 and lines["P"] >= 1
        assert len(slices) > 1

    @pytest.mark.parametrize("platform_name", PLATFORMS)
    def test_multi_push_marking_scans(self, traces, platform_name):
        """The golden marking scans push at most once each; widen them
        so each mark window spans up to 251 lines."""
        compiled = traces["major"][0]
        ev = compiled.events
        rows = np.flatnonzero((ev["prim"] == CODE_SCAN) & (ev["refs"] > 0))
        wide = mutated(compiled, rows,
                       pushes=np.arange(len(rows)) * 7 % 251 + 1)
        fast_platform, fast = fresh_kernel(platform_name, 8)
        slow_platform, slow = fresh_kernel(platform_name, 8)
        spy = []
        got = vectorized(fast, wide, spy)
        assert got == scalar(slow, wide)
        assert counters(fast_platform) == counters(slow_platform)
        assert not (ev["prim"][spy] == CODE_SCAN).any()
        assert max(len(plan[3][5]) for plan in got[0]
                   if plan[3][0] == "P") > 200


def unmap(kernel, platforms, addr):
    """Drop the page holding ``addr`` from each platform's page tables."""
    for platform in platforms:
        vm = platform.device.context.vm
        for size, table in vm._tables.items():
            table.pop((kernel.pcid, addr - addr % size), None)


def routing_address(kernel, compiled, row):
    """The first-bitmap byte a bitmap count's unit is routed by."""
    info = kernel.device._require_init()
    bit_offset = (int(compiled.events["src"][row])
                  - info.bitmap_covered_start) // 8
    return info.bitmap_base + bit_offset // 8


def same_outcome(fast_platform, fast, slow_platform, slow, compiled):
    """Both planners raise the same fault (the vectorized one changing
    no counter), or both plan the trace identically."""
    before = counters(fast_platform)
    try:
        want = scalar(slow, compiled)
    except ProtectionFault as slow_fault:
        with pytest.raises(ProtectionFault) as fast_fault:
            fast.begin(compiled)
        assert counters(fast_platform) == before
        assert str(fast_fault.value) == str(slow_fault)
        return False
    assert vectorized(fast, compiled) == want
    assert counters(fast_platform) == counters(slow_platform)
    return True


class TestFaultsAndOverflow:
    """Rows the vectorized planner must leave to the scalar one."""

    @pytest.mark.parametrize("platform_name", PLATFORMS)
    def test_unmapped_bitmap_line_faults_like_scalar(self, traces,
                                                     platform_name):
        compiled = traces["major"][0]
        row = first_row(compiled, CODE_BITMAP, bits=1)
        fast_platform, fast = fresh_kernel(platform_name, 8)
        slow_platform, slow = fresh_kernel(platform_name, 8)
        info = fast.device._require_init()
        # Unmap the page holding the row's first line in the *second*
        # bitmap: the unit-routing address (first bitmap) stays mapped.
        unmap(fast, (fast_platform, slow_platform),
              routing_address(fast, compiled, row) + info.bitmap_bytes)
        before = counters(fast_platform)
        with pytest.raises(ProtectionFault) as fast_fault:
            fast.begin(compiled)
        assert counters(fast_platform) == before
        with pytest.raises(ProtectionFault) as slow_fault:
            scalar(slow, compiled)
        assert str(fast_fault.value) == str(slow_fault.value)

    @pytest.mark.parametrize("platform_name", PLATFORMS)
    @pytest.mark.parametrize("bits", [0, 1], ids=["zero-bit", "counting"])
    def test_unmapped_routing_page_matches_scalar(self, traces,
                                                  platform_name, bits):
        """Unmap the first-bitmap page a bitmap count is routed by: the
        Charon units fault on it.  The CPU-side unit routes nowhere, so
        there only rows reading lines on that page fault."""
        compiled = traces["major"][0]
        row = first_row(compiled, CODE_BITMAP, bits=1)
        trace = mutated(compiled, row, bits=bits)
        fast_platform, fast = fresh_kernel(platform_name, 8)
        slow_platform, slow = fresh_kernel(platform_name, 8)
        unmap(fast, (fast_platform, slow_platform),
              routing_address(fast, trace, row))
        planned = same_outcome(fast_platform, fast, slow_platform, slow,
                               trace)
        assert not planned or platform_name == "charon-cpuside"

    def test_unmapped_bitmap_base_on_distributed(self, traces):
        """Distributed Charon translates the bitmap base for every
        counting row; unmapping it faults like the scalar planner."""
        compiled = traces["major"][0]
        fast_platform, fast = fresh_kernel("charon-distributed", 8)
        slow_platform, slow = fresh_kernel("charon-distributed", 8)
        info = fast.device._require_init()
        unmap(fast, (fast_platform, slow_platform), info.bitmap_base)
        assert not same_outcome(fast_platform, fast, slow_platform, slow,
                                compiled)

    @pytest.mark.parametrize("platform_name", PLATFORMS)
    def test_negative_source_bitmap_count(self, traces, platform_name):
        """A zero-bit count at a negative ``src`` stays out of the int64
        address arithmetic; the scalar planner plans it (CPU side) or
        faults on its routing address."""
        compiled = traces["major"][0]
        row = first_row(compiled, CODE_BITMAP, bits=1)
        trace = mutated(compiled, row, bits=0, src=-4096)
        fast_platform, fast = fresh_kernel(platform_name, 8)
        slow_platform, slow = fresh_kernel(platform_name, 8)
        planned = same_outcome(fast_platform, fast, slow_platform, slow,
                               trace)
        assert planned or platform_name != "charon-cpuside"

    @pytest.mark.parametrize("platform_name", PLATFORMS)
    @pytest.mark.parametrize("mapped", [True, False],
                             ids=["mapped", "unmapped"])
    def test_hash_overflow_falls_back_to_scalar(self, traces,
                                                platform_name, mapped):
        compiled = traces["major"][0]
        row = first_row(compiled, CODE_SCAN, refs=1)
        src = (_HASH_LIMIT + 1) << 14
        assert (src >> 14) * 2654435761 > 2 ** 63 - 1
        big = mutated(compiled, row, src=src, pushes=3)
        fast_platform, fast = fresh_kernel(platform_name, 8)
        slow_platform, slow = fresh_kernel(platform_name, 8)
        if mapped:
            for platform in (fast_platform, slow_platform):
                platform.device.context.vm.map_small(
                    src - src % 4096, 4096, pcid=fast.pcid, cube=1)
        if mapped:
            spy = []
            got = vectorized(fast, big, spy)
            assert spy == [row]
            assert got == scalar(slow, big)
            assert counters(fast_platform) == counters(slow_platform)
        else:
            before = counters(fast_platform)
            with pytest.raises(ProtectionFault) as fast_fault:
                fast.begin(big)
            assert counters(fast_platform) == before
            with pytest.raises(ProtectionFault) as slow_fault:
                scalar(slow, big)
            assert str(fast_fault.value) == str(slow_fault.value)


def test_block_boundaries_do_not_change_plans(traces, monkeypatch):
    """Blocking bounds temporaries only: a tiny block size plans the
    same as one block for the whole trace."""
    from repro.platform import batched

    compiled = traces["major"][0]
    _, whole = fresh_kernel("charon-distributed", 8)
    expected = vectorized(whole, compiled)
    monkeypatch.setattr(batched, "PLAN_BLOCK_ROWS", 3)
    _, blocked = fresh_kernel("charon-distributed", 8)
    assert vectorized(blocked, compiled) == expected

