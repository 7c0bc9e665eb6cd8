"""Shared fixtures: small heaps, tiny workloads, and platform kits."""

from __future__ import annotations

import pytest

from repro.config import HeapConfig, SystemConfig, default_config
from repro.gcalgo.trace import STAT_FIELDS
from repro.heap.heap import JavaHeap
from repro.heap.klass import standard_klass_table
from repro.heap.spaces import HeapLayout
from repro.platform.factory import build_platform
from repro.workloads.base import workload_klasses
from repro.workloads.graphchi import ConnectedComponents
from repro.workloads.mutator import MutatorDriver
from repro.workloads.spark import BayesianClassifier

SMALL_HEAP_BYTES = 8 * 1024 * 1024


def trace_contents(traces):
    """What two trace lists must share to be the same traces, one
    comparable tuple per trace: kind, heap size, the event bytes, the
    phase names, the residuals in order and the stats."""
    return [(trace.kind, trace.heap_bytes, trace.events.tobytes(),
             tuple(trace.phase_names), list(trace.residuals.items()),
             [getattr(trace, name) for name in STAT_FIELDS])
            for trace in traces]


def cli_error(capsys, argv) -> str:
    """Run ``repro argv`` in-process where it must fail with a library
    error: it exits 2 with one ``repro: error: <message>`` line on
    stderr; returns the message."""
    from repro.cli import main

    capsys.readouterr()
    assert main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("repro: error: ")
    return line[len("repro: error: "):]


def make_heap(heap_bytes: int = SMALL_HEAP_BYTES) -> JavaHeap:
    """A fresh small heap with the workload klasses plus a Node class."""
    heap = JavaHeap(HeapConfig(heap_bytes=heap_bytes),
                    klasses=workload_klasses())
    heap.klasses.define_instance("Node", ref_fields=2, prim_fields=2)
    return heap


@pytest.fixture
def heap() -> JavaHeap:
    return make_heap()


@pytest.fixture
def config() -> SystemConfig:
    return default_config().with_heap_bytes(SMALL_HEAP_BYTES)


@pytest.fixture
def driver(heap) -> MutatorDriver:
    return MutatorDriver(heap, run_name="test")


class TinySpark(BayesianClassifier):
    """A shrunken Spark workload for fast integration tests."""

    name = "spark-bs"
    iterations = 6
    cached_partitions = 12
    partition_bytes = 64 * 1024
    batches_per_iteration = 12
    batch_bytes = 64 * 1024
    records_per_iteration = 800
    cache_replacements = 3

    @property
    def default_heap_bytes(self) -> int:
        return SMALL_HEAP_BYTES


class TinyGraph(ConnectedComponents):
    """A shrunken GraphChi workload for fast integration tests."""

    name = "graphchi-cc"
    rmat_scale = 9
    edge_factor = 8
    iterations = 14
    shards = 2
    shard_buffer_bytes = 128 * 1024
    edge_chunks_per_shard = 6
    edge_chunk_bytes = 16 * 1024
    messages_per_shard = 384

    @property
    def default_heap_bytes(self) -> int:
        return SMALL_HEAP_BYTES


@pytest.fixture(scope="session")
def tiny_spark_run():
    return TinySpark().run()


@pytest.fixture(scope="session")
def tiny_graph_run():
    return TinyGraph().run()


def platform_for(name: str, heap_bytes: int = SMALL_HEAP_BYTES):
    """(platform, heap layout, config) triple for a named platform.

    ``charon-distributed`` is the ``charon`` platform built with the
    per-cube TLB/bitmap-cache slices enabled — the equivalence suite
    and the CI coverage script exercise it as its own matrix row.
    """
    cfg = default_config().with_heap_bytes(heap_bytes)
    if name == "charon-distributed":
        name = "charon"
        cfg = cfg.with_distributed_charon(True)
    return build_platform(name, cfg), HeapLayout(cfg.heap), cfg


def make_mixed_run(run_name: str = "mixed"):
    """A deterministic run whose traces cover all three GC kinds.

    Minor collections come from young-generation allocation pressure,
    the major collection compacts the promoted survivors (exercising
    BITMAP_COUNT), and the final sweep reclaims the roots released in
    between — so between them the traces carry every primitive the
    replayers price.
    """
    heap = make_heap()
    driver = MutatorDriver(heap, run_name=run_name)
    keep = []
    for index in range(150):
        view = driver.allocate("Node")
        if index % 3 == 0:
            keep.append(driver.handle(view.addr))
    driver.minor_gc()
    for index in range(60):
        view = driver.allocate("typeArray", length=2048)
        if index % 4 == 0:
            keep.append(driver.handle(view.addr))
    driver.minor_gc()
    # Interleaved live/dead old-generation objects force the compaction
    # to move survivors (COPY + BITMAP_COUNT events in the major trace).
    for index in range(80):
        view = heap.new_object("Node", space=heap.layout.old)
        if index % 2 == 0:
            keep.append(driver.handle(view.addr))
    driver.major_gc()
    for handle in keep[::2]:
        driver.release(handle)
    driver.sweep_gc()
    return driver.finish()


@pytest.fixture(scope="session")
def mixed_run():
    return make_mixed_run()


def make_g1_traces():
    """Two G1 collections over a linked-record heap.

    Shared between the fast-path equivalence tests and the CI
    fast-path-coverage script, so both exercise the same ``g1``-kind
    traces (mark + evacuate phases, SCAN_PUSH marking and COPY
    evacuation events).
    """
    from repro.gcalgo.g1 import G1Collector

    heap = make_heap()
    g1 = G1Collector(heap, region_bytes=64 * 1024)
    previous = 0
    for index in range(2500):
        view = g1.allocate("Record")
        heap.set_field(view, 0, previous)
        previous = view.addr
        if index % 300 == 0:
            heap.roots.append(previous)
            previous = 0
        if index % 2 == 0:
            g1.allocate("typeArray", 320)
    g1.collect()
    g1.collect()
    return g1.traces


@pytest.fixture(scope="session")
def g1_traces_session():
    return make_g1_traces()


def make_concurrent_traces():
    """Two interleaved concurrent-marking cycles over a mutating heap.

    The cycle is driven the way the collector is meant to run: marking
    started explicitly, advanced with bounded ``mark_step`` pauses
    between allocation/mutation bursts (so the SATB write barrier logs
    real overwrites), then finished by ``collect``.  Shared between
    the fast-path equivalence tests, the golden-trace regression test
    and the CI fast-path-coverage script.
    """
    from repro.gcalgo.concurrent_mark import ConcurrentMarkGC

    heap = make_heap()
    gc = ConcurrentMarkGC(heap, region_bytes=64 * 1024)
    heap.roots.extend([0] * 16)
    previous = 0
    for index in range(2000):
        view = gc.allocate("Record")
        heap.set_field(view, 0, previous)
        previous = view.addr
        if index % 250 == 0:
            heap.roots[(index // 250) % 8] = previous
            previous = 0
        if index % 2 == 0:
            gc.allocate("typeArray", 320)
        if index == 600:
            gc.start_cycle()
        if index > 600 and index % 150 == 0:
            # Mutate between pauses so the barrier has edges to log.
            root = heap.roots[(index // 150) % 8]
            if root:
                gc_view = heap.object_at(root)
                if gc_view.reference_slots():
                    heap.set_field(gc_view, 0, 0)
            gc.mark_step()
    gc.collect()
    gc.start_cycle()
    for index in range(8):
        heap.roots[8 + index] = gc.allocate("Vertex").addr
        gc.mark_step()
    heap.roots[3] = 0
    gc.collect()
    return gc.traces


@pytest.fixture(scope="session")
def concurrent_traces_session():
    return make_concurrent_traces()
