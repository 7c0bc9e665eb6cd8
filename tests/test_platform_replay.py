"""Tests for platforms, host cost model, and the trace replayer."""

import pytest

from repro.config import default_config
from repro.gcalgo.parallel_scavenge import MinorGC
from repro.gcalgo.mark_compact import MajorGC
from repro.gcalgo.trace import GCTrace, Primitive, TraceEvent
from repro.errors import ConfigError
from repro.heap.spaces import HeapInfo
from repro.platform import TraceReplayer, build_platform
from repro.platform.factory import PLATFORM_NAMES
from repro.platform.timing import GCTimingResult, PlatformEnergy

from tests.conftest import SMALL_HEAP_BYTES, make_heap, platform_for


def sample_traces(heap):
    """A couple of real GC traces over a populated heap."""
    prev = 0
    for index in range(1500):
        view = heap.new_object("Node")
        heap.set_field(view, 0, prev)
        prev = view.addr
        if index % 200 == 0:
            arr = heap.new_object("typeArray", length=8192)
            holder = heap.new_object("Node")
            heap.set_field(holder, 0, arr.addr)
            heap.set_field(holder, 1, prev)
            prev = holder.addr
    heap.roots.append(prev)
    traces = [MinorGC(heap).collect() for _ in range(5)]
    traces.append(MajorGC(heap).collect())
    return traces


@pytest.fixture(scope="module")
def shared_traces():
    heap = make_heap()
    return heap, sample_traces(heap)


class TestFactory:
    def test_all_platforms_build(self):
        for name in PLATFORM_NAMES:
            platform, _, _ = platform_for(name)
            assert platform.name == name

    def test_unknown_platform_rejected(self):
        config = default_config().with_heap_bytes(SMALL_HEAP_BYTES)
        with pytest.raises(ConfigError):
            build_platform("gpu", config)

    def test_offload_flags(self):
        assert not platform_for("cpu-ddr4")[0].offloads
        assert not platform_for("cpu-hmc")[0].offloads
        assert platform_for("charon")[0].offloads
        assert platform_for("ideal")[0].offloads


class TestHostCosts:
    def events(self, layout):
        table = HeapInfo.of(layout.config).card_table_base
        return {
            "copy": TraceEvent(Primitive.COPY, "evacuate",
                               src=layout.eden.start,
                               dst=layout.old.start,
                               size_bytes=65536),
            "small_copy": TraceEvent(Primitive.COPY, "evacuate",
                                     src=layout.eden.start,
                                     dst=layout.old.start,
                                     size_bytes=64),
            "search": TraceEvent(Primitive.SEARCH, "card-search",
                                 src=table,
                                 size_bytes=64),
            "scan": TraceEvent(Primitive.SCAN_PUSH, "evacuate",
                               src=layout.eden.start, refs=2,
                               pushes=1),
            "mark_scan": TraceEvent(Primitive.SCAN_PUSH, "mark",
                                    src=layout.old.start, refs=2,
                                    pushes=1),
            "bitmap": TraceEvent(Primitive.BITMAP_COUNT, "adjust",
                                 src=layout.old.start, bits=256),
            "bitmap_cached": TraceEvent(Primitive.BITMAP_COUNT,
                                        "compact",
                                        src=layout.old.start,
                                        bits=256, bits_cached=8),
        }

    def test_costs_positive_and_ordered(self):
        platform, layout, _ = platform_for("cpu-ddr4")
        events = self.events(layout)
        costs = {name: platform.cost_model.event_finish(0.0, event)
                 for name, event in events.items()}
        assert all(value > 0 for value in costs.values())
        assert costs["copy"] > costs["small_copy"]

    def test_mark_scan_colder_than_evacuate_scan(self):
        platform, layout, _ = platform_for("cpu-ddr4")
        events = self.events(layout)
        evac = platform.cost_model.event_finish(0.0, events["scan"])
        mark = platform.cost_model.event_finish(0.0,
                                                events["mark_scan"])
        assert mark > evac

    def test_query_cache_cheaper(self):
        platform, layout, _ = platform_for("cpu-ddr4")
        events = self.events(layout)
        full = platform.cost_model.event_finish(0.0, events["bitmap"])
        cached = platform.cost_model.event_finish(
            0.0, events["bitmap_cached"])
        assert cached < full

    def test_search_early_exit_cheaper(self):
        platform, layout, _ = platform_for("cpu-ddr4")
        table = HeapInfo.of(layout.config).card_table_base
        found = TraceEvent(Primitive.SEARCH, "card-search",
                           src=table,
                           size_bytes=512, found=True)
        missed = TraceEvent(Primitive.SEARCH, "card-search",
                            src=table,
                            size_bytes=512, found=False)
        t_found = platform.cost_model.event_finish(0.0, found)
        t_missed = platform.cost_model.event_finish(0.0, missed)
        assert t_found < t_missed


class TestReplayer:
    def test_replay_produces_result(self, shared_traces):
        heap, traces = shared_traces
        platform, _, _ = platform_for("cpu-ddr4")
        result = TraceReplayer(platform).replay(traces[0])
        assert isinstance(result, GCTimingResult)
        assert result.wall_seconds > 0
        assert result.gc_kind == "minor"
        assert result.dram_bytes > 0

    def test_replay_all_combines(self, shared_traces):
        heap, traces = shared_traces
        platform, _, _ = platform_for("cpu-ddr4")
        combined = TraceReplayer(platform).replay_all(traces)
        assert combined.gc_kind == "all"
        assert combined.wall_seconds > 0

    def test_more_threads_not_slower(self, shared_traces):
        heap, traces = shared_traces
        p1, _, _ = platform_for("cpu-ddr4")
        p8, _, _ = platform_for("cpu-ddr4")
        wall1 = TraceReplayer(p1, threads=1).replay_all(traces)
        wall8 = TraceReplayer(p8, threads=8).replay_all(traces)
        assert wall8.wall_seconds < wall1.wall_seconds

    def test_zero_threads_rejected(self):
        platform, _, _ = platform_for("cpu-ddr4")
        with pytest.raises(ValueError):
            TraceReplayer(platform, threads=0)

    def test_energy_components(self, shared_traces):
        heap, traces = shared_traces
        platform, _, _ = platform_for("charon")
        result = TraceReplayer(platform).replay_all(traces)
        assert result.energy.host_j > 0
        assert result.energy.memory_j > 0
        assert result.energy.charon_j > 0
        assert result.energy.total_j == pytest.approx(
            result.energy.host_j + result.energy.memory_j
            + result.energy.charon_j)

    def test_cpu_platform_has_no_charon_energy(self, shared_traces):
        heap, traces = shared_traces
        platform, _, _ = platform_for("cpu-ddr4")
        result = TraceReplayer(platform).replay_all(traces)
        assert result.energy.charon_j == 0.0

    def test_charon_records_locality(self, shared_traces):
        heap, traces = shared_traces
        platform, _, _ = platform_for("charon")
        result = TraceReplayer(platform).replay_all(traces)
        assert 0.0 <= result.local_fraction <= 1.0
        assert result.tsv_bytes > 0

    def test_bitmap_cache_hit_rate_reported(self, shared_traces):
        heap, traces = shared_traces
        platform, _, _ = platform_for("charon")
        result = TraceReplayer(platform).replay_all(traces)
        # Reported only when the Bitmap Count unit actually ran (this
        # trace set's major may compact nothing thanks to the dense
        # prefix); when reported it is a valid rate.
        if result.bitmap_cache_accesses:
            assert 0.0 <= result.bitmap_cache_hit_rate <= 1.0
        else:
            assert result.bitmap_cache_hit_rate is None


class TestPlatformOrdering:
    """The paper's headline orderings must hold on any real trace set."""

    @pytest.fixture(scope="class")
    def results(self, shared_traces):
        heap, traces = shared_traces
        out = {}
        for name in PLATFORM_NAMES:
            platform, _, _ = platform_for(name)
            out[name] = TraceReplayer(platform).replay_all(traces)
        return out

    def test_hmc_not_slower_than_ddr4(self, results):
        assert results["cpu-hmc"].wall_seconds <= \
            results["cpu-ddr4"].wall_seconds * 1.02

    def test_charon_faster_than_ddr4_baseline(self, results):
        # This trace mix is deliberately scan-heavy (the primitive the
        # paper says can degrade), so compare against the DDR4
        # baseline, which is the paper's headline comparison.
        assert results["charon"].wall_seconds < \
            results["cpu-ddr4"].wall_seconds

    def test_memory_side_close_to_or_better_than_cpu_side(self, results):
        # On scan-heavy traces the CPU-side placement can edge ahead
        # (no link hop per tiny offload); memory-side must stay close
        # and wins on copy-heavy workloads (Fig. 16).
        assert results["charon"].wall_seconds <= \
            results["charon-cpuside"].wall_seconds * 1.15

    def test_ideal_fastest(self, results):
        fastest = min(r.wall_seconds for r in results.values())
        assert results["ideal"].wall_seconds == fastest

    def test_charon_saves_energy(self, results):
        assert results["charon"].energy.total_j < \
            results["cpu-ddr4"].energy.total_j

    def test_charon_uses_more_bandwidth(self, results):
        assert results["charon"].utilized_bandwidth > \
            results["cpu-ddr4"].utilized_bandwidth


class TestTimingResult:
    def test_combine_requires_rows(self):
        with pytest.raises(ValueError):
            GCTimingResult.combine([])

    def test_combine_sums(self):
        a = GCTimingResult("p", "minor", 1.0,
                           {Primitive.COPY: 0.5}, residual_seconds=0.1,
                           dram_bytes=100)
        b = GCTimingResult("p", "major", 2.0,
                           {Primitive.COPY: 1.0}, residual_seconds=0.2,
                           dram_bytes=200)
        combined = GCTimingResult.combine([a, b])
        assert combined.wall_seconds == 3.0
        assert combined.primitive_seconds[Primitive.COPY] == 1.5
        assert combined.dram_bytes == 300
        assert combined.gc_kind == "all"

    def test_primitive_share(self):
        result = GCTimingResult("p", "minor", 1.0,
                                {Primitive.COPY: 0.75},
                                residual_seconds=0.25)
        assert result.primitive_share(Primitive.COPY) == \
            pytest.approx(0.75)

    def test_bandwidth(self):
        result = GCTimingResult("p", "minor", 2.0, dram_bytes=4_000)
        assert result.utilized_bandwidth == pytest.approx(2_000)
