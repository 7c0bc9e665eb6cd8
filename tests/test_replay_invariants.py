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
* fast and event-by-event replay agree within the golden 1e-9 contract;
* replay is deterministic: two replays on fresh platforms are
  bit-identical.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import default_fuzz_config
from repro.errors import ProtectionFault
from repro.fuzz.differential import run_schedule
from repro.fuzz.generator import build_schedule
from repro.gcalgo.columnar import CompiledTrace, compile_traces
from repro.platform.fast_replay import make_replayer
from repro.sim.resources import FluidResource

from tests.conftest import platform_for
from tests.test_fast_replay_equivalence import assert_equivalent

PLATFORMS = ("ideal", "cpu-ddr4", "cpu-hmc", "charon", "charon-cpuside",
             "charon-distributed")
THREADS = (1, 8)
COLLECTORS = ("minor", "major", "sweep", "g1", "concurrent")
FUZZ = default_fuzz_config()

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
                and type(value).__name__ != "JavaHeap" \
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
    traces = compile_traces(fuzz_traces(*schedule))
    for threads in THREADS:
        walls = {name: replay(name, threads, traces).wall_seconds
                 for name in PLATFORMS}
        for name, wall in walls.items():
            assert walls["ideal"] <= wall, (name, threads)


@given(schedules)
@SETTINGS
def test_resource_roofline(schedule):
    traces = compile_traces(fuzz_traces(*schedule))
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
def test_fast_matches_event(schedule):
    traces = fuzz_traces(*schedule)
    compiled = compile_traces(traces)
    for name in PLATFORMS:
        for threads in THREADS:
            assert_equivalent(replay(name, threads, compiled),
                              replay(name, threads, traces, mode="event"))


@given(schedules)
@SETTINGS
def test_fresh_replays_are_bit_identical(schedule):
    traces = compile_traces(fuzz_traces(*schedule))
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
    stats = {name: getattr(compiled, name) for name in
             ("objects_visited", "objects_copied", "bytes_copied",
              "objects_promoted", "bytes_freed")}
    return CompiledTrace(compiled.kind, compiled.heap_bytes, events,
                         compiled.phase_names, compiled.residuals, **stats)


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
                  in compile_traces(fuzz_traces(*schedule))]
        try:
            want = replay(name, threads, [trace.to_trace()
                                          for trace in traces],
                          mode="event")
        except ProtectionFault as fault:
            assert name != "cpu-hmc"
            with pytest.raises(ProtectionFault) as fast_fault:
                replay(name, threads, traces)
            assert str(fast_fault.value) == str(fault)
        else:
            assert_equivalent(replay(name, threads, traces), want)


def test_cells_cover_every_kernel():
    """The suite's cells reach every replay kernel."""
    traces = compile_traces(fuzz_traces(0, "major"))
    kernels = {replay(name, threads, traces).replay_kernel
               for name in PLATFORMS for threads in THREADS}
    assert kernels == {"closed-form", "ddr4-batched", "hmc-batched",
                       "charon-batched"}


@pytest.mark.parametrize("collector", COLLECTORS)
def test_schedules_yield_events(collector):
    """Every collector's schedules produce traces with events, so the
    properties above are not vacuous."""
    assert sum(len(trace.events) for trace in fuzz_traces(1, collector))
