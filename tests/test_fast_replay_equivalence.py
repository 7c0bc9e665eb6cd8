"""Golden timing-equivalence tests for the vectorized fast path.

For every platform x GC-kind combination the fast replayer must
produce a :class:`GCTimingResult` equivalent to the event-by-event
replayer — integer traffic counters *exactly* equal, float quantities
within 1e-9 relative tolerance.

Every platform has a replay kernel at every thread count — including
``charon --distributed``, whose per-cube TLB/bitmap-cache slices the
batched kernel resolves at plan time: ``ideal`` (any threads) and
``cpu-ddr4`` with one GC thread price events closed-form, and the rest
replay through a two-stage batched kernel whose stage 2 runs only the
order-dependent recurrence.

The tolerance absorbs exactly one thing: the event-by-event path sums
durations through a sequential clock (``finish - now`` at growing
``now``) while the fast path reduces a duration vector, so float
results may drift by ~n·eps.  Everything integer (DRAM/link/TSV bytes,
bitmap-cache counters) is a pure function of the events and must match
bit for bit.

``TestSpeedup`` holds the fast path's speed floors against the
event-by-event replayer on the same traces; the benchmark ledger
(``python3 bench/run.py``) reports the timings themselves.
"""

import time

import numpy as np
import pytest

from repro.config import default_config
from repro.errors import ConfigError
from repro.experiments import runner
from repro.gcalgo.trace import (EVENT_DTYPE, PRIMITIVE_TYPE_CODES, GCTrace,
                                Primitive)
from repro.gcalgo.trace_io import load_compiled, save_traces_npz
from repro.heap.heap import JavaHeap
from repro.obs.metrics import global_metrics
from repro.platform.factory import build_platform
from repro.platform.fast_replay import FastTraceReplayer, make_replayer
from repro.platform.replay import TraceReplayer
from repro.workloads.base import workload_klasses

from tests.conftest import make_concurrent_traces, platform_for

REL = 1e-9

PLATFORMS = ("cpu-ddr4", "cpu-hmc", "charon", "charon-cpuside",
             "charon-distributed", "ideal")
THREADS = (1, 2, 4, 8)

#: Every (platform, threads) cell of the kernel matrix must replay
#: equivalently — closed-form or batched, ``kernel_for`` decides.
SUPPORTED = [(name, threads) for name in PLATFORMS
             for threads in THREADS]

#: The kernel each cell must select (``GCTimingResult.replay_kernel``).
EXPECTED_KERNEL = {
    ("cpu-ddr4", 1): "closed-form",
    ("ideal", 1): "closed-form",
    ("ideal", 2): "closed-form",
    ("ideal", 4): "closed-form",
    ("ideal", 8): "closed-form",
}


def expected_kernel(platform_name, threads):
    named = EXPECTED_KERNEL.get((platform_name, threads))
    if named is not None:
        return named
    return {"cpu-ddr4": "ddr4-batched",
            "cpu-hmc": "hmc-batched",
            "charon": "charon-batched",
            "charon-cpuside": "charon-batched",
            "charon-distributed": "charon-batched"}[platform_name]


def assert_equivalent(fast, slow):
    """Field-by-field GCTimingResult comparison (fast vs golden)."""
    assert fast.platform == slow.platform
    assert fast.gc_kind == slow.gc_kind
    # Integer traffic counters: exact.
    assert fast.dram_bytes == slow.dram_bytes
    assert fast.link_bytes == slow.link_bytes
    assert fast.tsv_bytes == slow.tsv_bytes
    assert fast.bitmap_cache_hits == slow.bitmap_cache_hits
    assert fast.bitmap_cache_accesses == slow.bitmap_cache_accesses
    # Float quantities: 1e-9 relative.
    approx = lambda value: pytest.approx(value, rel=REL, abs=1e-18)
    assert fast.wall_seconds == approx(slow.wall_seconds)
    assert fast.residual_seconds == approx(slow.residual_seconds)
    assert fast.flush_seconds == approx(slow.flush_seconds)
    assert set(fast.primitive_seconds) == set(slow.primitive_seconds)
    for primitive, seconds in slow.primitive_seconds.items():
        assert fast.primitive_seconds[primitive] == approx(seconds)
    assert fast.energy.host_j == approx(slow.energy.host_j)
    assert fast.energy.memory_j == approx(slow.energy.memory_j)
    assert fast.energy.charon_j == approx(slow.energy.charon_j)
    if slow.local_fraction is None:
        assert fast.local_fraction is None
    else:
        assert fast.local_fraction == approx(slow.local_fraction)


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


def assert_counters_match(fast_platform, slow_platform,
                          skip=("._release_at",)):
    """Every platform counter agrees after fast and event replay:
    integers exactly, floats within the 1e-9 contract.

    Paths ending in ``skip`` are left out: by default
    ``ProcessingUnit._release_at``, the event path's per-dispatch
    working value (the last command's early release time), which stage
    2 keeps in a local and never writes back.  The closed-form kernels
    never move the FIFO horizons (``busy_until``), so their cells skip
    those too.
    """
    fast = {path: value for path, value in counters(fast_platform).items()
            if not path.endswith(skip)}
    slow = {path: value for path, value in counters(slow_platform).items()
            if not path.endswith(skip)}
    assert fast.keys() == slow.keys()
    for path, value in slow.items():
        if isinstance(value, float) or isinstance(fast[path], float):
            assert fast[path] == pytest.approx(value, rel=REL, abs=1e-18), \
                path
        else:
            assert fast[path] == value, path


def traces_of_kind(run, kind):
    traces = [trace for trace in run.traces if trace.kind == kind]
    assert traces, f"fixture run produced no {kind} traces"
    return traces


class TestGoldenEquivalence:
    @pytest.mark.parametrize("platform_name,threads", SUPPORTED)
    @pytest.mark.parametrize("kind", ["minor", "major", "sweep", "g1",
                                      "concurrent"])
    def test_per_kind_equivalence(self, mixed_run, g1_traces_session,
                                  concurrent_traces_session,
                                  platform_name, threads, kind):
        if kind == "g1":
            traces = g1_traces_session
        elif kind == "concurrent":
            traces = concurrent_traces_session
        else:
            traces = traces_of_kind(mixed_run, kind)
        slow_platform, _, _ = platform_for(platform_name)
        fast_platform, _, _ = platform_for(platform_name)
        slow = TraceReplayer(slow_platform, threads=threads)
        fast = FastTraceReplayer(fast_platform, threads=threads)
        for trace in traces:
            fast_result = fast.replay(trace)
            assert_equivalent(fast_result, slow.replay(trace))
            assert fast_result.replay_kernel == \
                expected_kernel(platform_name, threads)
        assert fast.clock == pytest.approx(slow.clock, rel=REL)
        if platform_name.startswith("charon") or platform_name == "cpu-hmc":
            assert_counters_match(fast_platform, slow_platform)

    @pytest.mark.parametrize("platform_name,threads", SUPPORTED)
    def test_full_run_equivalence(self, tiny_spark_run, platform_name,
                                  threads):
        """Whole-run replay (clock accumulating across collections) on
        the realistic workload trace set."""
        slow_platform, _, _ = platform_for(platform_name)
        fast_platform, _, _ = platform_for(platform_name)
        slow = TraceReplayer(slow_platform, threads=threads)
        fast = FastTraceReplayer(fast_platform, threads=threads)
        assert_equivalent(fast.replay_all(tiny_spark_run.traces),
                          slow.replay_all(tiny_spark_run.traces))

    @pytest.mark.parametrize("platform_name",
                             ["cpu-hmc", "charon", "ideal"])
    def test_object_and_compiled_inputs_agree(self, mixed_run,
                                              platform_name, tmp_path):
        """A captured trace and its columns read back from a binary
        trace file replay alike."""
        trace = mixed_run.traces[0]
        path = tmp_path / "trace.gctrace.npz"
        save_traces_npz([trace], path)
        a_platform, _, _ = platform_for(platform_name)
        b_platform, _, _ = platform_for(platform_name)
        captured = FastTraceReplayer(a_platform).replay(trace)
        loaded = FastTraceReplayer(b_platform).replay(
            load_compiled(path)[0][0])
        assert_equivalent(captured, loaded)


def trap_trace(major, concurrent):
    """A major trace built from the golden traces' rows to trip every
    trap of the phase loop: a phase name recurring across runs with a
    residual (charged at every run), residual-only phases after the
    runs (``setup`` recorded first, so insertion order is not run
    order), zero-miss residuals (``drain``, ``summary``: DDR4's
    latency-only stream, a no-op anonymous HMC stream), and the MajorGC
    phases after which Charon flushes its bitmap cache — ``mark`` and
    ``adjust`` runs, and a residual-only ``compact`` that writes back
    the dirty mark lines the last run (``drain``) leaves."""
    def rows(trace, phase, prim):
        ev = trace.events
        pid = trace.phase_names.index(phase)
        return ev[(ev["phase"] == pid)
                  & (ev["prim"] == PRIMITIVE_TYPE_CODES[prim])]

    pushing = rows(concurrent, "concurrent-mark-0", Primitive.SCAN_PUSH)
    counts = rows(major, "adjust", Primitive.BITMAP_COUNT)
    copies = rows(major, "compact", Primitive.COPY)
    assert (pushing["pushes"] > 0).any() and len(counts) and len(copies)
    trace = GCTrace("major")
    trace.residual("setup", 100000.0, 98304)
    third = len(pushing) // 3
    for phase, block in (("mark", pushing[:third]),
                         ("adjust", counts[:len(counts) // 2]),
                         ("mark", pushing[third:2 * third]),
                         ("adjust", counts[len(counts) // 2:]),
                         ("drain", np.concatenate([copies,
                                                   pushing[2 * third:]]))):
        trace.append_columns(phase, **{name: block[name]
                                       for name in EVENT_DTYPE.names
                                       if name != "phase"})
    trace.residual("mark", 3840.0, 6720)
    trace.residual("adjust", 2490.0, 4096)
    trace.residual("drain", 5000.0, 0)
    trace.residual("compact", 1000.0, 640)
    trace.residual("summary", 28120.0, 0)
    return trace


def horizons_skipped(fast):
    """:func:`assert_counters_match`'s ``skip`` for a fast replayer."""
    if fast.kernel_name == "closed-form":
        return ("._release_at", "busy_until")
    return ("._release_at",)


class TestPhaseLoop:
    """The whole phase loop — runs, residual shares at the barriers and
    the bitmap-cache flushes — agrees with the event-by-event path."""

    PLATFORMS = ("cpu-ddr4", "cpu-hmc", "charon", "charon-cpuside",
                 "charon-distributed")

    @pytest.mark.parametrize("threads", (1, 8))
    @pytest.mark.parametrize("platform_name", PLATFORMS)
    def test_residual_traps(self, mixed_run, concurrent_traces_session,
                            platform_name, threads):
        major = traces_of_kind(mixed_run, "major")[0]
        trace = trap_trace(major, concurrent_traces_session[1])
        runs = [name for name, _, _ in trace.phase_runs()]
        assert runs == ["mark", "adjust", "mark", "adjust", "drain"]
        assert list(trace.residuals) == ["setup", "mark", "adjust",
                                         "drain", "compact", "summary"]
        slow_platform, _, _ = platform_for(platform_name)
        fast_platform, _, _ = platform_for(platform_name)
        slow = TraceReplayer(slow_platform, threads=threads)
        fast = FastTraceReplayer(fast_platform, threads=threads)
        for _ in range(2):  # the second replay starts from the first's state
            assert_equivalent(fast.replay(trace), slow.replay(trace))
        assert fast.clock == pytest.approx(slow.clock, rel=REL)
        assert_counters_match(fast_platform, slow_platform,
                              horizons_skipped(fast))
        port = fast_platform.port
        if hasattr(port, "_anon_cube"):
            assert port._anon_cube == slow_platform.port._anon_cube
        if fast_platform.device is not None:
            slices = fast_platform.device.bitmap_cache.slices
            # Four flushed runs and one residual-only flush, twice.
            assert [s.flushes for s in slices] == [10] * len(slices)
            assert sum(s.cache.writebacks for s in slices) > 0

    @pytest.mark.parametrize("platform_name", ["cpu-hmc", "charon",
                                               "charon-distributed"])
    def test_state_moved_between_traces_is_read_again(
            self, concurrent_traces_session, platform_name):
        """A kernel loads the platform's state once per trace, so what
        moves it between two traces — a direct bitmap-cache flush, an
        event-by-event replay on the same platform — shows in the next
        trace, as on the event path."""
        first, second = concurrent_traces_session[:2]
        pairs = []
        for replayer_type in (FastTraceReplayer, TraceReplayer):
            platform, _, _ = platform_for(platform_name)
            replayer = replayer_type(platform, threads=8)
            replayer.replay(first)
            if platform.device is not None:
                platform.device.bitmap_cache.flush_all()
            TraceReplayer(platform, threads=2).replay(second)
            pairs.append((platform, replayer.replay(first)))
        (fast_platform, fast), (slow_platform, slow) = pairs
        assert_equivalent(fast, slow)
        assert_counters_match(fast_platform, slow_platform)

    @pytest.mark.parametrize("platform_name,threads", [
        ("cpu-ddr4", 1), ("cpu-ddr4", 8), ("cpu-hmc", 8), ("charon", 8),
        ("charon-distributed", 8)])
    def test_concurrent_mark_workload(self, concurrent_mark_run,
                                      platform_name, threads):
        """The concurrent-mark workload: 1,476 phase runs over six
        traces, most of them short, with residual-only barrier phases."""
        assert sum(len(t.phase_runs())
                   for t in concurrent_mark_run.traces) == 1476
        config = runner.workload_config("concurrent-mark")
        if platform_name == "charon-distributed":
            platform_name = "charon"
            config = config.with_distributed_charon(True)
        platforms = [build_platform(platform_name, config,
                                    JavaHeap(config.heap,
                                             klasses=workload_klasses()))
                     for _ in range(2)]
        fast = FastTraceReplayer(platforms[0], threads=threads)
        slow = TraceReplayer(platforms[1], threads=threads)
        for trace in concurrent_mark_run.traces:
            assert_equivalent(fast.replay(trace), slow.replay(trace))
        assert_counters_match(*platforms, horizons_skipped(fast))

    @pytest.mark.parametrize("runs", [
        "past-the-end", "gap", "overlap", "backwards", "short"])
    @pytest.mark.parametrize("platform_name,threads", [
        ("cpu-ddr4", 8), ("cpu-hmc", 8), ("charon", 8), ("ideal", 1)])
    def test_runs_outside_the_columns_never_reach_c(
            self, mixed_run, concurrent_traces_session, platform_name,
            threads, runs):
        """The step table is checked once, before anything is planned or
        accounted: phase runs that do not tile the trace's event columns
        raise ``IndexError`` and the compiled stage 2 is never called."""
        trace = trap_trace(traces_of_kind(mixed_run, "major")[0],
                           concurrent_traces_session[1])
        n = len(trace.events)
        trace._phase_runs = {
            "past-the-end": [("mark", 0, n + 8)],
            "gap": [("mark", 0, 10), ("drain", 12, n)],
            "overlap": [("mark", 0, 10), ("drain", 8, n)],
            "backwards": [("mark", 0, 10), ("adjust", 10, 5),
                          ("drain", 5, n)],
            "short": [("mark", 0, n - 1)]}[runs]
        platform, _, _ = platform_for(platform_name)
        replayer = FastTraceReplayer(platform, threads=threads)

        class Unreachable:
            def __getattr__(self, name):
                raise AssertionError(f"stage 2 reached C ({name})")

        replayer._kernel.native = Unreachable()
        before = counters(platform)
        with pytest.raises(IndexError, match="phase runs do not tile"):
            replayer.replay(trace)
        assert counters(platform) == before


@pytest.fixture(scope="module")
def concurrent_mark_run():
    return runner.collect_run("concurrent-mark")


class TestModeSelection:
    def test_distributed_charon_fast_mode_batches(self):
        """The last refusal fell: ``charon --distributed`` replays
        through the slice-aware batched kernel, even in the strict
        ``fast`` mode."""
        platform, _, _ = platform_for("charon-distributed")
        replayer = make_replayer(platform, mode="fast")
        assert isinstance(replayer, FastTraceReplayer)
        assert replayer.kernel_name == "charon-batched"

    def test_distributed_cpuside_still_batches(self):
        """The cpu-side organisation keeps the host-side unified
        TLB/bitmap cache, so --distributed does not refuse it."""
        from repro.config import default_config
        from repro.heap.heap import JavaHeap
        from repro.platform.factory import build_platform
        from repro.workloads.base import workload_klasses

        from tests.conftest import SMALL_HEAP_BYTES

        config = default_config().with_heap_bytes(SMALL_HEAP_BYTES) \
            .with_distributed_charon(True)
        heap = JavaHeap(config.heap, klasses=workload_klasses())
        platform = build_platform("charon-cpuside", config, heap)
        assert isinstance(make_replayer(platform), FastTraceReplayer)

    @pytest.mark.parametrize("platform_name,threads", SUPPORTED)
    def test_auto_mode_selects_fast_path(self, platform_name, threads):
        """The default mode (``fast``) picks each cell's expected
        kernel."""
        platform, _, _ = platform_for(platform_name)
        replayer = make_replayer(platform, threads=threads)
        assert isinstance(replayer, FastTraceReplayer)
        assert replayer.kernel_name == \
            expected_kernel(platform_name, threads)

    def test_event_mode_forces_slow_path(self):
        platform, _, _ = platform_for("ideal")
        replayer = make_replayer(platform, mode="event")
        assert type(replayer) is TraceReplayer

    def test_unknown_mode_rejected(self):
        platform, _, _ = platform_for("ideal")
        for mode in ("turbo", "auto"):
            with pytest.raises(ConfigError, match="unknown replay mode"):
                make_replayer(platform, mode=mode)

    def test_platform_without_kernel_rejected(self):
        from repro.config import default_config

        class KernellessPlatform:
            name = "kernelless-stub"
            offloads = False
            config = default_config()

        with pytest.raises(ConfigError, match="kernelless-stub"):
            make_replayer(KernellessPlatform())


class TestKernelMetrics:
    def test_batched_replay_records_kernel_counters(self, mixed_run):
        platform, _, _ = platform_for("charon")
        scope = global_metrics().scope("replay")
        labels = {"kernel": "charon-batched", "platform": "charon"}
        events = scope.counter("kernel_events", "", **labels)
        before_events = events.value
        trace = mixed_run.traces[0]
        FastTraceReplayer(platform).replay(trace)
        assert events.value == before_events + len(trace.events)
        per_sec = scope.gauge("kernel_events_per_sec", "", **labels)
        assert per_sec.value > 0


class TestSpeedup:
    """Fast replay against event-by-event replay of the same traces.

    Best-of-7 with the two replayers interleaved on fresh platforms, so
    scheduler noise and cache warmth hit both sides alike."""

    @staticmethod
    def best_of(platform_name, threads, traces, repeats=7):
        """``(event seconds, fast seconds)``, best of ``repeats``."""
        best = {TraceReplayer: float("inf"),
                FastTraceReplayer: float("inf")}
        for _ in range(repeats):
            for replayer_type in best:
                replayer = replayer_type(platform_for(platform_name)[0],
                                         threads=threads)
                start = time.perf_counter()
                replayer.replay_all(traces)
                best[replayer_type] = min(best[replayer_type],
                                          time.perf_counter() - start)
        return best[TraceReplayer], best[FastTraceReplayer]

    def test_closed_form_at_least_5x(self, tiny_spark_run):
        """cpu-ddr4 with one GC thread measures ~12x here."""
        slow, fast = self.best_of("cpu-ddr4", 1, tiny_spark_run.traces)
        assert slow >= 5.0 * fast, (
            f"fast path only {slow / fast:.1f}x faster "
            f"({slow * 1e3:.2f}ms vs {fast * 1e3:.2f}ms)")

    @pytest.mark.parametrize("platform_name", ["charon", "cpu-hmc"])
    def test_batched_kernels_substantially_faster(self, tiny_spark_run,
                                                  platform_name):
        """At 8 GC threads the batched kernels replay at least 5x faster
        than event by event (7-16x on a 2-vCPU VM)."""
        slow, fast = self.best_of(platform_name, 8,
                                  tiny_spark_run.traces)
        assert slow >= 5.0 * fast, (
            f"{platform_name} batched kernel only {slow / fast:.1f}x "
            f"faster ({slow * 1e3:.2f}ms vs {fast * 1e3:.2f}ms)")


def test_primitive_seconds_zero_on_ideal(mixed_run):
    """The ideal platform's offloaded primitives are free — the fast
    path must report exact zeros, not merely small numbers."""
    platform, _, _ = platform_for("ideal")
    result = FastTraceReplayer(platform).replay_all(mixed_run.traces)
    for primitive in Primitive:
        assert result.primitive_seconds.get(primitive, 0.0) == 0.0
