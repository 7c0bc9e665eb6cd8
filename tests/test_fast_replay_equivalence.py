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

from repro.errors import ConfigError
from repro.gcalgo.trace import Primitive
from repro.gcalgo.trace_io import load_compiled, save_traces_npz
from repro.obs.metrics import global_metrics
from repro.platform.fast_replay import FastTraceReplayer, make_replayer
from repro.platform.replay import TraceReplayer

from tests.conftest import platform_for

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


def assert_counters_match(fast_platform, slow_platform):
    """Every platform counter agrees after fast and event replay:
    integers exactly, floats within the 1e-9 contract.

    ``ProcessingUnit._release_at`` is skipped: it is the event path's
    per-dispatch working value (the last command's early release time), which
    stage 2 keeps in a local and never writes back.
    """
    fast = {path: value for path, value in counters(fast_platform).items()
            if not path.endswith("._release_at")}
    slow = {path: value for path, value in counters(slow_platform).items()
            if not path.endswith("._release_at")}
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
