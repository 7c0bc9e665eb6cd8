"""Timing-model invariants over whole fuzz-generated traces.

The golden matrix shows that the fast kernels and the event-by-event
replayer agree, which a modelling bug they share would pass.  These
properties come from the model's physics and from the paper instead,
and hold for any trace: here, the traces the differential fuzzer's
schedule generator produces under every collector, replayed through
every :func:`~repro.platform.batched.kernel_for` cell (closed-form
``ideal`` and 1-thread ``cpu-ddr4``, and the batched DDR4, HMC and
Charon kernels, unified, distributed and CPU-side):

* ``ideal`` is a lower bound: no platform finishes a GC history sooner
  than the one whose offloaded primitives take zero time (Fig. 12);
* a per-resource roofline: every link, TSV, DRAM channel and unit port
  needs at least its bytes over its bandwidth, so the replay's wall
  time is at least that.  GC offload is bound by data movement ("Trash
  Talk", PAPERS.md), and this is the floor data movement sets;
* a data-movement floor: a Charon copy reads its source and writes its
  destination in memory, so every Charon organisation moves at least
  twice the copied bytes through DRAM, and the CPU-side one at least
  that much over the links too (host platforms are exempt: their
  cache absorbs some copy bytes);
* fast and event-by-event replay agree within the golden 1e-9 contract;
* replay is deterministic: two replays on fresh platforms are
  bit-identical;
* the LRU stack property: at a fixed set count, a bitmap cache with
  more ways never gets fewer hits, flushes between MajorGC phases
  included.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import default_config, default_fuzz_config
from repro.cpu.cache import SetAssociativeCache
from repro.errors import ProtectionFault
from repro.fuzz.differential import run_schedule
from repro.fuzz.generator import build_schedule
from repro.gcalgo.columnar import trace_from_columns
from repro.gcalgo.trace import PRIMITIVE_TYPE_CODES, STAT_FIELDS, Primitive
from repro.platform.factory import build_platform
from repro.platform.fast_replay import make_replayer
from repro.sim.resources import FluidResource

from tests.conftest import SMALL_HEAP_BYTES, platform_for
from tests.test_fast_replay_equivalence import assert_equivalent

PLATFORMS = ("ideal", "cpu-ddr4", "cpu-hmc", "charon", "charon-cpuside",
             "charon-distributed")
CHARON_PLATFORMS = ("charon", "charon-cpuside", "charon-distributed")
THREADS = (1, 8)
COLLECTORS = ("minor", "major", "sweep", "g1", "concurrent")
FUZZ = default_fuzz_config()
COPY_CODE = PRIMITIVE_TYPE_CODES[Primitive.COPY]

SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@lru_cache(maxsize=None)
def fuzz_traces(seed, collector):
    """The GC traces one generated schedule leaves under a collector."""
    run = run_schedule(build_schedule(seed, FUZZ), collector, FUZZ,
                       use_oracle=False, seed=seed)
    return tuple(run.traces)


schedules = st.tuples(st.integers(min_value=0, max_value=2 ** 16),
                      st.sampled_from(COLLECTORS))


def resources(platform):
    """Every fluid resource reachable from the platform's attributes."""
    found, seen = [], set()

    def walk(value):
        if id(value) in seen:
            return
        seen.add(id(value))
        if isinstance(value, FluidResource):
            found.append(value)
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)
        elif type(value).__module__.startswith("repro.") \
                and hasattr(value, "__dict__"):
            for item in vars(value).values():
                walk(item)

    walk(platform)
    return found


def replay(name, threads, traces, mode="fast"):
    platform, _, _ = platform_for(name, heap_bytes=FUZZ.heap_bytes)
    return make_replayer(platform, threads=threads,
                         mode=mode).replay_all(traces)


@given(schedules)
@SETTINGS
def test_ideal_is_a_lower_bound(schedule):
    traces = fuzz_traces(*schedule)
    for threads in THREADS:
        walls = {name: replay(name, threads, traces).wall_seconds
                 for name in PLATFORMS}
        for name, wall in walls.items():
            assert walls["ideal"] <= wall, (name, threads)


@given(schedules)
@SETTINGS
def test_resource_roofline(schedule):
    traces = fuzz_traces(*schedule)
    for name in PLATFORMS:
        for threads in THREADS:
            platform, _, _ = platform_for(name, heap_bytes=FUZZ.heap_bytes)
            before = {id(r): r.bytes_served for r in resources(platform)}
            result = make_replayer(platform,
                                   threads=threads).replay_all(traces)
            for resource in resources(platform):
                moved = resource.bytes_served - before[id(resource)]
                assert moved / resource.rate <= result.wall_seconds, \
                    (name, threads, resource.name)


@given(schedules)
@SETTINGS
def test_data_movement_floor(schedule):
    traces = fuzz_traces(*schedule)
    copied = sum(int(trace.events["size_bytes"][
                     trace.events["prim"] == COPY_CODE].sum())
                 for trace in traces)
    for name in CHARON_PLATFORMS:
        for threads in THREADS:
            result = replay(name, threads, traces)
            assert result.dram_bytes >= 2 * copied, (name, threads)
            if name == "charon-cpuside":
                assert result.link_bytes >= 2 * copied, (name, threads)


@given(schedules)
@SETTINGS
def test_fast_matches_event(schedule):
    traces = fuzz_traces(*schedule)
    for name in PLATFORMS:
        for threads in THREADS:
            assert_equivalent(replay(name, threads, traces),
                              replay(name, threads, traces, mode="event"))


@given(schedules)
@SETTINGS
def test_fresh_replays_are_bit_identical(schedule):
    traces = fuzz_traces(*schedule)
    for name in PLATFORMS:
        for threads in THREADS:
            assert replay(name, threads, traces) \
                == replay(name, threads, traces), (name, threads)


def unmapped_sources(compiled, edge, every=3):
    """A copy of ``compiled`` where every ``every``-th event reads from
    an address no page table maps, and each next event from ``edge``,
    so its range runs from a mapped page into an unmapped one."""
    events = compiled.events.copy()
    events["src"][::every] = 1 << 46
    events["src"][1::every] = edge
    stats = {name: getattr(compiled, name) for name in STAT_FIELDS}
    return trace_from_columns(compiled.kind, compiled.heap_bytes, events,
                              compiled.phase_names, compiled.residuals,
                              **stats)


def mapped_edge(name):
    """Eight bytes short of the end of the highest page ``name``'s page
    tables map: the page after it is unmapped."""
    platform, _, _ = platform_for(name, heap_bytes=FUZZ.heap_bytes)
    return max(vaddr + size for size, table in platform.vm._tables.items()
               for _, vaddr in table) - 8


@given(schedules, st.sampled_from(THREADS))
@SETTINGS
def test_faulting_ranges_match_event(schedule, threads):
    """Events on unmapped addresses, and ranges that run off the last
    mapped page.  On ``cpu-hmc`` such a miss range streams anonymously,
    round-robin over the cubes — a multi-page one too; stage 2 advances
    the shared cursor in event order, so fast and event replay agree.
    The Charon organisations fault on them instead: fast replay raises
    exactly when event replay does, with the same message, and
    otherwise agrees."""
    for name in ("cpu-hmc", "charon", "charon-cpuside",
                 "charon-distributed"):
        edge = mapped_edge(name)
        traces = [unmapped_sources(trace, edge) for trace
                  in fuzz_traces(*schedule)]
        try:
            want = replay(name, threads, traces, mode="event")
        except ProtectionFault as fault:
            assert name != "cpu-hmc"
            with pytest.raises(ProtectionFault) as fast_fault:
                replay(name, threads, traces)
            assert str(fast_fault.value) == str(fault)
        else:
            assert_equivalent(replay(name, threads, traces), want)


def test_cells_cover_every_kernel():
    """The suite's cells reach every replay kernel."""
    traces = fuzz_traces(0, "major")
    kernels = {replay(name, threads, traces).replay_kernel
               for name in PLATFORMS for threads in THREADS}
    assert kernels == {"closed-form", "ddr4-batched", "hmc-batched",
                       "charon-batched"}


@pytest.mark.parametrize("collector", COLLECTORS)
def test_schedules_yield_events(collector):
    """Every collector's schedules produce traces with events, so the
    properties above are not vacuous."""
    assert sum(len(trace.events) for trace in fuzz_traces(1, collector))


# -- the LRU stack property (more ways never lose hits) ---------------------

#: One operation on a cache: read or write a line-sized address, or
#: flush the whole cache (a MajorGC phase end).
cache_ops = st.lists(st.one_of(
    st.tuples(st.just("access"), st.integers(min_value=0, max_value=4095),
              st.booleans()),
    st.just(("flush",))), max_size=300)


@given(cache_ops, st.integers(min_value=1, max_value=7),
       st.sampled_from((1, 2, 4)))
@settings(max_examples=200, deadline=None)
def test_lru_stack_property(ops, ways, sets):
    """At a fixed set count, an LRU cache with ``ways + 1`` ways holds
    every line one with ``ways`` ways holds, so it never gets fewer hits
    on the same accesses — flushes included, which empty both."""
    line = 32
    small = SetAssociativeCache(sets * ways * line, ways, line)
    large = SetAssociativeCache(sets * (ways + 1) * line, ways + 1, line)
    for op in ops:
        for cache in (small, large):
            if op[0] == "flush":
                cache.flush()
            else:
                cache.access(op[1] * 8, op[2])
        assert large.hits >= small.hits


@pytest.mark.parametrize("name", ["charon", "charon-distributed"])
def test_more_bitmap_cache_ways_never_lose_hits(mixed_run,
                                                concurrent_traces_session,
                                                name):
    """The Bitmap Count unit's cache hits on the golden major trace (and
    the concurrent traces, whose marking writes lines the MajorGC-phase
    flushes write back) do not fall as the ways grow 1, 2, 4, 8 at a
    fixed set count; the fast replay's compiled tag state and flushes
    count exactly what the event path does."""
    major = [t for t in mixed_run.traces if t.kind == "major"]
    config = default_config().with_heap_bytes(SMALL_HEAP_BYTES) \
        .with_distributed_charon(name == "charon-distributed")
    for traces in (major, concurrent_traces_session):
        hits = []
        for ways in (1, 2, 4, 8):
            charon = dataclasses.replace(
                config.charon, bitmap_cache_ways=ways,
                bitmap_cache_bytes=ways * config.charon.bitmap_cache_bytes
                // config.charon.bitmap_cache_ways)
            cell = dataclasses.replace(config, charon=charon)
            fast, slow = (
                make_replayer(build_platform("charon", cell), threads=8,
                              mode=mode).replay_all(traces)
                for mode in ("fast", "event"))
            assert (fast.bitmap_cache_hits, fast.bitmap_cache_accesses) \
                == (slow.bitmap_cache_hits, slow.bitmap_cache_accesses)
            hits.append(fast.bitmap_cache_hits)
        assert hits == sorted(hits), hits
        assert hits[-1] > hits[0], hits  # not vacuous
