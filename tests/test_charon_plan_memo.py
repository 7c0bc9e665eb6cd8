"""Reuse of Charon stage-1 plans across kernels.

:meth:`CharonBatchedKernel.begin` keeps a trace's plan on the trace,
keyed by everything stage 1 reads, from the trace's second Charon plan
on, and a later kernel with the same key reuses it.  A reused plan
(a hit) must replay exactly like a plan built for a fresh copy of the
trace (a miss): every ``GCTimingResult`` field and every platform
counter ``==``, whatever order the traces replay in.
"""

import dataclasses

import pytest

from repro.config import default_config
from repro.errors import ProtectionFault
from repro.gcalgo.columnar import trace_from_columns
from repro.gcalgo.trace import STAT_FIELDS
from repro.heap.heap import JavaHeap
from repro.obs.metrics import global_metrics
from repro.platform import batched
from repro.platform.factory import build_platform
from repro.platform.fast_replay import FastTraceReplayer
from repro.platform.replay import TraceReplayer
from repro.workloads.base import workload_klasses

from tests.conftest import SMALL_HEAP_BYTES
from tests.test_charon_planning import CODE_SCAN, first_row, mutated
from tests.test_fast_replay_equivalence import counters

BASE = default_config().with_heap_bytes(SMALL_HEAP_BYTES)


def fig15(threads, distributed):
    return BASE.with_gc_threads(threads) \
        .scaled_charon_units(threads / 8.0) \
        .with_distributed_charon(distributed)


#: Figure 15's Charon configurations and every ablation's variants.
CONFIGS = {
    **{f"fig15-{'distributed' if d else 'unified'}-t{t}": fig15(t, d)
       for t in (1, 2, 4, 8, 16) for d in (False, True)},
    "no-bitmap-cache": BASE.with_bitmap_cache(False),
    "scan-push-local": BASE.with_scan_push_local(True),
    **{f"units-x{f:g}": BASE.scaled_charon_units(f)
       for f in (0.5, 2.0, 4.0)},
    "fully-connected": BASE.with_topology("fully-connected"),
    **{f"dispatch-{ns:g}ns": BASE.with_dispatch_overhead(ns * 1e-9)
       for ns in (0.0, 100.0, 500.0)},
}


def fresh(compiled):
    """A copy of ``compiled`` that shares no memo with it."""
    return trace_from_columns(
        compiled.kind, compiled.heap_bytes, compiled.events.copy(),
        compiled.phase_names, compiled.residuals,
        **{name: getattr(compiled, name) for name in STAT_FIELDS})


@pytest.fixture
def traces(mixed_run, g1_traces_session, concurrent_traces_session):
    """Every golden trace kind, as copies only this test replays."""
    return [fresh(t) for t in (*mixed_run.traces, *g1_traces_session,
                               *concurrent_traces_session)]


def replay(config, traces, platform_name="charon", setup=None):
    """Replay ``traces`` in order on a fresh platform; returns the
    results and the platform."""
    heap = JavaHeap(config.heap, klasses=workload_klasses())
    platform = build_platform(platform_name, config, heap)
    if setup is not None:
        setup(platform)
    replayer = FastTraceReplayer(platform, threads=config.gc_threads)
    return [replayer.replay(trace) for trace in traces], platform


def kept(compiled):
    """The Charon plans ``compiled`` keeps."""
    memo = batched._kernel_memo(compiled)
    return [plan for key, plan in memo.items()
            if isinstance(key, tuple) and key[0] == "charon_plan"]


def outcomes():
    """``(hits, misses)`` of the Charon plan memo so far."""
    rows = global_metrics().as_dict()
    return (rows.get("replay.charon_plans{outcome=hit}", 0),
            rows.get("replay.charon_plans{outcome=miss}", 0))


def primed(config, traces, platform_name="charon"):
    """Plan ``traces`` twice under ``config``, so each keeps its plan."""
    for _ in range(2):
        replay(config, traces, platform_name)


def assert_same_replay(got, want):
    (got_results, got_platform), (want_results, want_platform) = got, want
    assert got_results == want_results
    assert counters(got_platform) == counters(want_platform)


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
def test_hit_equals_fresh_miss(traces, config):
    primed(config, traces)
    hits, misses = outcomes()
    hit = replay(config, traces)
    assert outcomes() == (hits + len(traces), misses)
    miss = replay(config, [fresh(trace) for trace in traces])
    assert outcomes() == (hits + len(traces), misses + len(traces))
    assert_same_replay(hit, miss)


def test_cpuside_hit_equals_fresh_miss(traces):
    primed(BASE, traces, "charon-cpuside")
    assert_same_replay(
        replay(BASE, traces, "charon-cpuside"),
        replay(BASE, [fresh(trace) for trace in traces], "charon-cpuside"))


def test_reverse_order_hit_equals_fresh_miss(traces):
    """A second kernel reusing the plans in reverse replay order, so it
    registers its lanes in another order, matches fresh copies replayed
    in that order."""
    config = fig15(4, True)
    primed(config, traces)
    replay(config, traces)
    backwards = traces[::-1]
    hits, misses = outcomes()
    hit = replay(config, backwards)
    assert outcomes() == (hits + len(traces), misses)
    assert_same_replay(hit, replay(config, [fresh(t) for t in backwards]))


#: Configuration fields stage 1 reads: each change must re-plan.
STAGE1_FLIPS = {
    "request-granularity": ("charon", "request_granularity", 128),
    "mai-entries": ("charon", "mai_entries_per_cube", 16),
    "unit-freq": ("charon", "unit_freq_hz", 2.0e9),
    "bitmap-cache-line": ("charon", "bitmap_cache_line", 64),
    "bitmap-cache-bytes": ("charon", "bitmap_cache_bytes", 16 * 1024),
    "request-packet": ("charon", "request_packet_bytes", 64),
    "response-packet": ("charon", "response_packet_bytes", 48),
    "distributed": ("charon", "distributed", True),
    "scan-push-local": ("charon", "scan_push_local", True),
    "bitmap-cache-enabled": ("charon", "bitmap_cache_enabled", False),
    "link-latency": ("hmc", "link_latency_s", 6.0e-9),
    "link-bandwidth": ("hmc", "link_bandwidth", 40.0e9),
    "topology": ("hmc", "topology", "fully-connected"),
    "cubes": ("hmc", "cubes", 2),
}

#: Fields only stage 2 reads: a change reuses the plan.
STAGE2_FLIPS = {
    "gc-threads": (None, "gc_threads", 3),
    "copy-search-units": ("charon", "copy_search_units", 16),
    "bitmap-count-units": ("charon", "bitmap_count_units", 16),
    "scan-push-units": ("charon", "scan_push_units", 3),
    "dispatch": ("costs", "charon_dispatch_overhead_s", 1.0e-7),
}


def flipped(section, name, value):
    if section is None:
        return dataclasses.replace(BASE, **{name: value})
    part = dataclasses.replace(getattr(BASE, section), **{name: value})
    return dataclasses.replace(BASE, **{section: part})


@pytest.mark.parametrize("flip", STAGE1_FLIPS.values(),
                         ids=STAGE1_FLIPS.keys())
def test_stage1_field_change_replans(traces, flip):
    config = flipped(*flip)
    assert config != BASE
    primed(BASE, traces)
    hits, misses = outcomes()
    replay(config, traces)
    assert outcomes() == (hits, misses + len(traces))


@pytest.mark.parametrize("flip", STAGE2_FLIPS.values(),
                         ids=STAGE2_FLIPS.keys())
def test_stage2_field_change_reuses_plan(traces, flip):
    config = flipped(*flip)
    assert config != BASE
    primed(BASE, traces)
    hits, misses = outcomes()
    replay(config, traces)
    assert outcomes() == (hits + len(traces), misses)


def test_placement_change_replans(traces):
    """The same configuration over another page placement (an extra
    pinned page the TLBs load) is a new key."""
    page = 0x33c6ef3a0000

    def pin(platform):
        vm = platform.device.context.vm
        vm.map_pinned(page, 4096, 4096, first_node=1)
        platform.device.tlbs.load_from(vm)

    primed(BASE, traces)
    hits, misses = outcomes()
    replay(BASE, traces, setup=pin)
    assert outcomes() == (hits, misses + len(traces))


def test_retention_starts_at_the_second_plan(mixed_run):
    compiled = fresh(mixed_run.traces[0])
    memo = batched._kernel_memo(compiled)
    replay(BASE, [compiled])
    assert memo["charon_plans"] == 1
    assert not kept(compiled)
    replay(BASE, [compiled])
    (plan,) = kept(compiled)
    arrays = [plan.tid, plan.line_rows, plan.line_counts, plan.line_addr,
              plan.line_code, *plan.columns.values()]
    assert not any(array.flags.writeable for array in arrays)
    hits, misses = outcomes()
    replay(BASE, [compiled])
    assert memo["charon_plans"] == 2
    assert outcomes() == (hits + 1, misses)


def test_faulting_trace_faults_every_time(mixed_run):
    """A plan that faults is never kept: each replay raises the event
    path's fault again."""
    major = [t for t in mixed_run.traces if t.kind == "major"][0]
    src = 0x33c6ef3a0000
    trace = mutated(major, first_row(major, CODE_SCAN, refs=1), src=src,
                    pushes=3)

    def unpinned(platform):
        platform.device.context.vm.map_small(src, 4096, cube=1)

    heap = JavaHeap(BASE.heap, klasses=workload_klasses())
    platform = build_platform("charon", BASE, heap)
    unpinned(platform)
    with pytest.raises(ProtectionFault) as event_fault:
        TraceReplayer(platform).replay(trace)
    for _ in range(3):
        hits, misses = outcomes()
        with pytest.raises(ProtectionFault) as fast_fault:
            replay(BASE, [trace], setup=unpinned)
        assert str(fast_fault.value) == str(event_fault.value)
        assert outcomes() == (hits, misses + 1)
    assert not kept(trace)


def test_block_boundaries_do_not_change_fresh_plans(mixed_run,
                                                    monkeypatch):
    """Blocking bounds stage-1 temporaries only, checked on traces no
    kernel has planned (a reused plan would not re-block)."""
    major = [t for t in mixed_run.traces if t.kind == "major"]
    config = BASE.with_distributed_charon(True)
    whole = replay(config, [fresh(t) for t in major])
    monkeypatch.setattr(batched, "PLAN_BLOCK_ROWS", 3)
    assert_same_replay(replay(config, [fresh(t) for t in major]), whole)
