"""Tests for workload generators: R-MAT, the driver, and the apps."""

import pytest

from repro.config import PAPER_HEAP_BYTES, PAPER_HEAP_SCALE, \
    scaled_heap_bytes
from repro.errors import ConfigError, OutOfMemoryError
from repro.gcalgo.trace import Primitive
from repro.workloads.mutator import MutatorDriver
from repro.workloads.registry import (TABLE3_WORKLOADS, WORKLOAD_ABBREV,
                                      WORKLOAD_NAMES, get_workload,
                                      run_workload)
from repro.workloads.rmat import (adjacency_lists, degree_histogram,
                                  generate_rmat)

from tests.conftest import TinyGraph, TinySpark, make_heap


class TestRMAT:
    def test_edge_count(self):
        edges = generate_rmat(scale=8, edge_factor=4)
        assert len(edges) <= 4 * 256
        assert len(edges) > 2 * 256  # dedup removes some, not most

    def test_vertices_in_range(self):
        edges = generate_rmat(scale=6, edge_factor=4)
        for src, dst in edges:
            assert 0 <= src < 64
            assert 0 <= dst < 64

    def test_no_self_loops(self):
        edges = generate_rmat(scale=7, edge_factor=4)
        assert all(src != dst for src, dst in edges)

    def test_deterministic_by_seed(self):
        a = generate_rmat(scale=7, edge_factor=4, seed=3)
        b = generate_rmat(scale=7, edge_factor=4, seed=3)
        c = generate_rmat(scale=7, edge_factor=4, seed=4)
        assert a == b
        assert a != c

    def test_skewed_degrees(self):
        # R-MAT produces hubs: the max degree well exceeds the mean.
        edges = generate_rmat(scale=10, edge_factor=8)
        adjacency = adjacency_lists(edges, 1024, max_degree=10_000)
        degrees = [len(n) for n in adjacency.values()]
        assert max(degrees) > 4 * (sum(degrees) / len(degrees))

    def test_max_degree_cap(self):
        edges = generate_rmat(scale=10, edge_factor=8)
        adjacency = adjacency_lists(edges, 1024, max_degree=16)
        assert max(len(n) for n in adjacency.values()) <= 16

    def test_degree_histogram(self):
        edges = [(0, 1), (0, 2), (1, 2)]
        hist = degree_histogram(adjacency_lists(edges, 3))
        assert hist == {2: 1, 1: 1}

    def test_bad_scale_rejected(self):
        with pytest.raises(ConfigError):
            generate_rmat(scale=0)

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ConfigError):
            adjacency_lists([(0, 99)], 10)


class TestMutatorDriver:
    def test_allocate_returns_view(self, driver):
        view = driver.allocate("Node")
        assert view.klass.name == "Node"
        assert driver.run.allocated_objects == 1

    def test_allocation_triggers_minor_gc(self, driver):
        heap = driver.heap
        keep = driver.handle()
        table = driver.allocate("objArray", 64)
        keep.set(table.addr)
        count = 3 * heap.layout.eden.capacity \
            // (64 * 1024)
        for index in range(count):
            data = driver.allocate("typeArray", 64 * 1024 - 32)
            heap.array_store(keep.addr, index % 64, data.addr)
        assert driver.run.minor_count >= 2

    def test_large_object_goes_to_old(self, driver):
        heap = driver.heap
        big = heap.layout.eden.capacity // 2
        view = driver.allocate("typeArray", big)
        assert heap.layout.in_old(view.addr)

    def test_handles_survive_gc(self, driver):
        heap = driver.heap
        handle = driver.handle(driver.allocate("Node").addr)
        original = handle.addr
        driver.minor_gc()
        assert handle.addr != original
        assert heap.object_at(handle.addr).klass.name == "Node"

    def test_released_handle_slot_reused(self, driver):
        handle = driver.handle(driver.allocate("Node").addr)
        index = handle._index
        driver.release(handle)
        handle2 = driver.handle(driver.allocate("Node").addr)
        assert handle2._index == index

    def test_oom_when_heap_truly_full(self, driver):
        heap = driver.heap
        with pytest.raises(OutOfMemoryError):
            while True:
                handle = driver.handle()
                view = driver.allocate("typeArray", 256 * 1024)
                handle.set(view.addr)

    def test_finish_computes_mutator_time(self, driver):
        driver.allocate("typeArray", 1024 * 1024)
        run = driver.finish(compute_seconds=0.5)
        assert run.mutator_seconds > 0.5


class TestRegistry:
    def test_registered_workloads(self):
        # Six Table 3 workloads plus the synthetic concurrent-mark demo.
        assert len(TABLE3_WORKLOADS) == 6
        assert len(WORKLOAD_NAMES) == 7
        assert "concurrent-mark" not in TABLE3_WORKLOADS
        assert "concurrent-mark" in WORKLOAD_NAMES
        assert set(WORKLOAD_ABBREV) == set(WORKLOAD_NAMES)

    def test_get_workload(self):
        workload = get_workload("spark-bs")
        assert workload.name == "spark-bs"
        assert workload.framework == "spark"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            get_workload("spark-xyz")

    def test_heap_scaling(self):
        # Table 3 names scale the paper heaps; the synthetic demo
        # workload supplies its own default instead.
        for name in TABLE3_WORKLOADS:
            assert scaled_heap_bytes(name) == \
                PAPER_HEAP_BYTES[name] // PAPER_HEAP_SCALE
        with pytest.raises(ConfigError):
            scaled_heap_bytes("concurrent-mark")
        assert get_workload("concurrent-mark").default_heap_bytes > 0

    def test_datasets_match_table3(self):
        assert get_workload("spark-bs").dataset == "KDD 2010"
        assert get_workload("spark-lr").dataset == "URL Reputation"
        assert "R-MAT" in get_workload("graphchi-cc").dataset
        assert "Matrix Market" in get_workload("graphchi-als").dataset


class TestTinyWorkloadRuns:
    def test_spark_run_shape(self, tiny_spark_run):
        run = tiny_spark_run
        assert run.minor_count >= 1
        assert run.allocated_bytes > 0
        assert run.mutator_seconds > 0
        kinds = {t.kind for t in run.traces}
        assert "minor" in kinds

    def test_spark_copy_dominated(self, tiny_spark_run):
        copies = sum(t.summary()["copy_bytes"] for t in run_traces(
            tiny_spark_run))
        refs = sum(t.summary()["scan_refs"] for t in run_traces(
            tiny_spark_run))
        # Spark demographics: big arrays, few references.
        assert copies > 50 * refs

    def test_graph_run_shape(self, tiny_graph_run):
        run = tiny_graph_run
        assert run.minor_count >= 1
        assert sum(t.summary()["scan_refs"] for t in run.traces) > 1000

    def test_graph_cards_exercised(self, tiny_graph_run):
        searches = sum(
            1 for t in tiny_graph_run.traces
            for e in t.iter_events()
            if e.primitive is Primitive.SEARCH and e.found)
        assert searches > 0

    def test_traces_alternate_consistently(self, tiny_graph_run):
        for trace in tiny_graph_run.traces:
            assert trace.kind in ("minor", "major")
            assert trace.heap_bytes > 0

    def test_concurrent_demo_run_shape(self):
        run = run_workload("concurrent-mark")
        assert run.sweep_count >= 1
        assert run.allocated_bytes > 0
        assert run.mutator_seconds > 0
        assert {t.kind for t in run.traces} == {"concurrent"}
        # Interleaved cycles: mark pauses beyond the final drain, and
        # barrier traffic from the mid-chain unlinks.
        phases = {p for t in run.traces for p in t.phase_names}
        assert any(p.startswith("concurrent-mark-") for p in phases)
        assert any(p.startswith("barrier-") for p in phases)


def run_traces(run):
    return run.traces


class TestDriverVerification:
    def test_verify_each_gc(self):
        from tests.conftest import TinySpark
        workload = TinySpark()
        heap = workload.build_heap()
        from repro.workloads.mutator import MutatorDriver
        driver = MutatorDriver(heap, run_name="verified",
                               verify_each_gc=True)
        workload.setup(driver)
        for index in range(2):
            workload.iteration(driver, index)
        driver.minor_gc()
        driver.major_gc()
        assert driver.run.gc_count >= 2
