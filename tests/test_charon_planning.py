"""Fast/event agreement on the Charon kernel's stage-1 edge cases.

:meth:`CharonBatchedKernel.begin` plans every row of a trace in numpy;
the event-by-event :class:`TraceReplayer` (the "scalar" path in the
test names below) is the oracle.  Each case replays a golden trace —
as recorded, or with rows mutated to reach a planning edge — through
both paths on fresh platforms.  Either both raise the same
``ProtectionFault`` (the fast path before any counter moves), or both
finish with equivalent results and every platform counter equal
(:func:`assert_counters_match`), so a planning bug that happens not to
move a timing result still fails here.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtectionFault
from repro.gcalgo.columnar import trace_from_columns
from repro.gcalgo.trace import PRIMITIVE_TYPE_CODES, STAT_FIELDS, Primitive
from repro.mem.vm import VirtualMemory
from repro.platform.batched import BITMAP, SCAN, _CubeMap, _key
from repro.platform.fast_replay import FastTraceReplayer
from repro.platform.replay import TraceReplayer

from tests.conftest import platform_for
from tests.test_fast_replay_equivalence import (assert_counters_match,
                                                assert_equivalent,
                                                counters)

KINDS = ("minor", "major", "sweep", "g1", "concurrent")
PLATFORMS = ("charon", "charon-cpuside", "charon-distributed")
THREADS = (1, 8)
MARKING_KINDS = ("major", "g1", "concurrent")

CODE_COPY = PRIMITIVE_TYPE_CODES[Primitive.COPY]
CODE_SEARCH = PRIMITIVE_TYPE_CODES[Primitive.SEARCH]
CODE_SCAN = PRIMITIVE_TYPE_CODES[Primitive.SCAN_PUSH]
CODE_BITMAP = PRIMITIVE_TYPE_CODES[Primitive.BITMAP_COUNT]

#: ``src >> 14`` one past the largest whose marking-window hash
#: ``(src >> 14) * 2654435761`` fits int64.
OVERFLOWING = (2 ** 63 - 1) // 2654435761 + 1


@pytest.fixture(scope="module")
def traces(mixed_run, g1_traces_session, concurrent_traces_session):
    """The golden trace sets, by kind."""
    by_kind = {kind: [t for t in mixed_run.traces if t.kind == kind]
               for kind in ("minor", "major", "sweep")}
    by_kind["g1"] = g1_traces_session
    by_kind["concurrent"] = concurrent_traces_session
    return by_kind


class Pair:
    """A fast and an event replayer, each on its own fresh platform;
    ``setup(platform)`` prepares both alike before anything replays."""

    def __init__(self, platform_name, threads=8, setup=None):
        self.fast_platform, _, _ = platform_for(platform_name)
        self.slow_platform, _, _ = platform_for(platform_name)
        if setup is not None:
            setup(self.fast_platform)
            setup(self.slow_platform)
        self.fast = FastTraceReplayer(self.fast_platform, threads=threads)
        self.slow = TraceReplayer(self.slow_platform, threads=threads)

    @property
    def kernel(self):
        return self.fast._kernel

    def replay(self, compiled):
        """Replay one trace through both; returns whether it planned
        (``False`` when both raised the same fault)."""
        before = counters(self.fast_platform)
        try:
            want = self.slow.replay(compiled)
        except ProtectionFault as slow_fault:
            with pytest.raises(ProtectionFault) as fast_fault:
                self.fast.replay(compiled)
            assert str(fast_fault.value) == str(slow_fault)
            assert counters(self.fast_platform) == before
            return False
        assert_equivalent(self.fast.replay(compiled), want)
        assert_counters_match(self.fast_platform, self.slow_platform)
        return True


def line_counts(plan, kind):
    """Bitmap lines per event of template kind ``kind`` in a plan."""
    per_event = np.diff(plan["line_off"])
    return per_event[plan["t_kind"][plan["tid"]] == kind]


def mutated(compiled, rows, **fields):
    """A copy of ``compiled`` with some events' fields replaced."""
    events = compiled.events.copy()
    for name, value in fields.items():
        events[name][rows] = value
    stats = {name: getattr(compiled, name) for name in STAT_FIELDS}
    return trace_from_columns(compiled.kind, compiled.heap_bytes, events,
                              compiled.phase_names, compiled.residuals,
                              **stats)


def first_row(compiled, code, **minimums):
    ev = compiled.events
    mask = ev["prim"] == code
    for name, least in minimums.items():
        mask &= ev[name] >= least
    rows = np.flatnonzero(mask)
    assert len(rows), f"{compiled.kind} trace has no such row"
    return int(rows[0])


def cubes_of(platform, start, length):
    """The cubes of ``[start, start + length)``'s per-cube runs."""
    vm = platform.device.context.vm
    return [cube for _, _, cube in vm.split_range_by_cube(start, length)]


class TestPlansMatchScalarPlanner:
    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize("platform_name", PLATFORMS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_plans_accumulators_and_counters(self, traces, kind,
                                             platform_name, threads):
        pair = Pair(platform_name, threads)
        for compiled in traces[kind]:
            assert pair.replay(compiled)

    def test_marking_and_bitmap_rows_are_covered(self, traces):
        """The golden traces exercise both line-carrying row kinds with
        multi-line plans, on more than one bitmap-cache slice."""
        replayer = FastTraceReplayer(platform_for("charon-distributed")[0],
                                     threads=8)
        lines = {BITMAP: 0, SCAN: 0}
        slices = set()
        for kind in MARKING_KINDS:
            for compiled in traces[kind]:
                replayer.replay(compiled)
                plan = replayer._kernel.plan
                for found in lines:
                    counts = line_counts(plan, found)
                    if len(counts):
                        lines[found] = max(lines[found], counts.max())
                slices.update(plan["line_slice"].tolist())
        assert lines[BITMAP] > 2 and lines[SCAN] >= 1
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
        pair = Pair(platform_name)
        assert pair.replay(wide)
        assert line_counts(pair.kernel.plan, SCAN).max() > 200

    @pytest.mark.parametrize("platform_name", PLATFORMS)
    def test_page_crossing_search(self, traces, platform_name):
        """A card-table search whose examined bytes run over a metadata
        page boundary onto the next cube streams one run per cube."""
        compiled = traces["minor"][0]
        row = first_row(compiled, CODE_SEARCH)
        pair = Pair(platform_name)
        info = pair.fast_platform.device.heap_info
        metadata = pair.fast_platform.device.context.vm.page_sizes()[0]
        src = info.card_table_base + metadata - 64
        trace = mutated(compiled, row, src=src, size_bytes=256, found=0)
        assert len(set(cubes_of(pair.fast_platform, src, 256))) == 2
        assert pair.replay(trace)
        groups = pair.kernel.plan["t_group"]
        tid = pair.kernel.plan["tid"][row]
        assert groups[3 * tid + 1] - groups[3 * tid] == 2

    @pytest.mark.parametrize("platform_name", PLATFORMS)
    def test_copy_spanning_two_cubes(self, traces, platform_name):
        """A copy whose source and destination each straddle a heap
        page boundary reads two runs and writes two runs, on four
        cubes."""
        compiled = traces["minor"][0]
        row = first_row(compiled, CODE_COPY, size_bytes=1)
        pair = Pair(platform_name)
        info = pair.fast_platform.device.heap_info
        huge = pair.fast_platform.device.context.vm.huge_page_bytes
        src = info.heap_start + huge - 256
        dst = info.heap_start + 3 * huge - 128
        trace = mutated(compiled, row, src=src, dst=dst, size_bytes=512)
        reads = cubes_of(pair.fast_platform, src, 512)
        writes = cubes_of(pair.fast_platform, dst, 512)
        assert len(reads) == len(writes) == 2
        assert len(set(reads + writes)) == 4
        assert pair.replay(trace)
        groups = pair.kernel.plan["t_group"]
        tid = pair.kernel.plan["tid"][row]
        assert np.diff(groups[3 * tid:3 * tid + 3]).tolist() == [2, 2]


def split_vm():
    """Page tables whose ranges cross page sizes, alternate cubes, and
    run over neighbouring pages on one cube: 64 KB heap pages (cubes
    0, 1, 0, ...), 4 KB pinned pages after them (from cube 1, so the
    last heap page and the first small one share a cube), then a gap,
    then unpinned 4 KB pages all on cube 1."""
    vm = VirtualMemory(huge_page_bytes=1 << 16, cubes=2)
    vm.map_heap(1 << 20, 8 << 16)
    vm.map_pinned((1 << 20) + (8 << 16), 8 << 12, 1 << 12, first_node=1)
    vm.map_small((1 << 20) + (12 << 16), 8 << 12, cube=1)
    return vm


@given(st.lists(st.tuples(st.integers((1 << 20) - 5000,
                                      (1 << 20) + (13 << 16)),
                          st.integers(1, 5 << 16)),
                min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_runs_match_split_range_by_cube(ranges):
    """The columnar split agrees with ``split_range_by_cube`` range by
    range — the runs, or the fault and its address — and its key
    columns are equal exactly where the run sequences are."""
    vm = split_vm()
    starts, lengths = (np.array(column, dtype=np.int64)
                       for column in zip(*ranges))
    runs = _CubeMap(vm, 0).runs(starts, lengths)
    keys = _key(*runs.columns())
    of = runs.of(np.arange(len(ranges)))
    by_runs = {}
    for k, (start, length) in enumerate(ranges):
        try:
            want = vm.split_range_by_cube(start, length)
        except ProtectionFault as fault:
            assert runs.bad[k]
            with pytest.raises(ProtectionFault) as got:
                vm.lookup(int(runs.bad_at[k]))
            assert str(got.value) == str(fault)
            continue
        assert not runs.bad[k]
        assert of[k] == [(size, cube) for _, size, cube in want]
        by_runs.setdefault(tuple(of[k]), set()).add(int(keys[k]))
    assert all(len(found) == 1 for found in by_runs.values())
    assert len(set().union(*by_runs.values())) == len(by_runs)


def unmap(platforms, addr):
    """Drop the page holding ``addr`` from each platform's page tables
    (the TLBs keep the entries they loaded)."""
    for platform in platforms:
        vm = platform.device.context.vm
        for size, table in vm._tables.items():
            table.pop((0, addr - addr % size), None)


def routing_address(platform, compiled, row):
    """The first-bitmap byte a bitmap count's unit is routed by."""
    info = platform.device.heap_info
    bit_offset = (int(compiled.events["src"][row])
                  - info.bitmap_covered_start) // 8
    return info.bitmap_base + bit_offset // 8


class TestFaultsAndOverflow:
    """Rows that fault, or whose plan arithmetic leaves the common case,
    fault or plan on both paths alike."""

    @pytest.mark.parametrize("platform_name", PLATFORMS)
    def test_unmapped_bitmap_line_faults_like_scalar(self, traces,
                                                     platform_name):
        compiled = traces["major"][0]
        row = first_row(compiled, CODE_BITMAP, bits=1)
        pair = Pair(platform_name)
        info = pair.fast_platform.device.heap_info
        # Unmap the page holding the row's first line in the *second*
        # bitmap: the unit-routing address (first bitmap) stays mapped.
        unmap((pair.fast_platform, pair.slow_platform),
              routing_address(pair.fast_platform, compiled, row)
              + info.bitmap_bytes)
        assert not pair.replay(compiled)

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
        pair = Pair(platform_name)
        unmap((pair.fast_platform, pair.slow_platform),
              routing_address(pair.fast_platform, trace, row))
        planned = pair.replay(trace)
        assert not planned or platform_name == "charon-cpuside"

    def test_unmapped_bitmap_base_on_distributed(self, traces):
        """Distributed Charon looks up the bitmap base's page to pick
        the TLB slice for every counting row; unmapping it faults."""
        compiled = traces["major"][0]
        pair = Pair("charon-distributed")
        unmap((pair.fast_platform, pair.slow_platform),
              pair.fast_platform.device.heap_info.bitmap_base)
        assert not pair.replay(compiled)

    @pytest.mark.parametrize("platform_name", PLATFORMS)
    def test_negative_source_bitmap_count(self, traces, platform_name):
        """A zero-bit count at a negative ``src`` plans at least on the
        CPU side, which routes nowhere; a counting one at the most
        negative ``src`` keeps its address arithmetic exact and faults
        on its unmapped routing address or bitmap lines."""
        compiled = traces["major"][0]
        row = first_row(compiled, CODE_BITMAP, bits=1)
        pair = Pair(platform_name)
        planned = pair.replay(mutated(compiled, row, bits=0, src=-4096))
        assert planned or platform_name != "charon-cpuside"
        pair = Pair(platform_name)
        assert not pair.replay(mutated(compiled, row, src=-2 ** 63))

    @pytest.mark.parametrize("platform_name", PLATFORMS)
    @pytest.mark.parametrize("mapping", ["mapped", "unmapped", "unpinned"])
    def test_hash_overflow_falls_back_to_scalar(self, traces,
                                                platform_name, mapping):
        """A marking scan whose window hash overflows int64 plans with
        the exact hash on a pinned page the TLBs hold; an unmapped page,
        or a mapped but unpinned one, faults in the TLB (Sec. 4.6: the
        accelerator TLB holds pinned pages only)."""
        compiled = traces["major"][0]
        row = first_row(compiled, CODE_SCAN, refs=1)
        src = OVERFLOWING << 14
        assert (src >> 14) * 2654435761 > 2 ** 63 - 1
        page = src - src % 4096

        def setup(platform):
            vm = platform.device.context.vm
            if mapping == "mapped":
                vm.map_pinned(page, 4096, 4096, first_node=1)
                platform.device.tlbs.load_from(vm)
            elif mapping == "unpinned":
                vm.map_small(page, 4096, cube=1)

        pair = Pair(platform_name, setup=setup)
        planned = pair.replay(mutated(compiled, row, src=src, pushes=3))
        assert planned == (mapping == "mapped")
        if planned:
            lines = np.diff(pair.kernel.plan["line_off"])
            assert lines[row] == 3


def test_block_boundaries_do_not_change_plans(traces, monkeypatch):
    """Blocking bounds temporaries only: a tiny block size plans the
    same as one block for the whole trace."""
    from repro.platform import batched

    compiled = traces["major"][0]
    whole = FastTraceReplayer(platform_for("charon-distributed")[0],
                              threads=8)
    expected = whole.replay(compiled)
    monkeypatch.setattr(batched, "PLAN_BLOCK_ROWS", 3)
    blocked = FastTraceReplayer(platform_for("charon-distributed")[0],
                                threads=8)
    assert blocked.replay(compiled) == expected
    got, want = blocked._kernel.plan, whole._kernel.plan
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name
