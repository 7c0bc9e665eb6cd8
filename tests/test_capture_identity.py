"""Batched capture against the per-object oracle, workload by workload.

Reduced-scale GraphChi CC and PR and a Spark workload are captured
twice: under the scalar heap kernels (every object through
``MutatorDriver.allocate``, every reference store through
``JavaHeap.store_ref``, the scalar collectors) and under the fast ones
(chunked ``allocate_batch`` with ``store_refs``, the native scavenge
and major phases).  Both captures must record the same events,
residuals in order and summaries, and leave the same heap bytes,
roots, space tops and card table.
"""

import pytest

from repro.heap.fast_kernels import use_kernel_mode
from repro.workloads.graphchi import ConnectedComponents, PageRank
from repro.workloads.mutator import MutatorDriver
from repro.workloads.spark import LogisticRegression

from tests.conftest import SMALL_HEAP_BYTES
from tests.test_gc_minor import assert_same_trace, state


class SmallGraph:
    rmat_scale = 8
    edge_factor = 8
    iterations = 6
    shards = 2
    shard_buffer_bytes = 128 * 1024
    edge_chunks_per_shard = 6
    messages_per_shard = 256

    @property
    def default_heap_bytes(self) -> int:
        return SMALL_HEAP_BYTES // 4


class SmallCC(SmallGraph, ConnectedComponents):
    pass


class SmallPR(SmallGraph, PageRank):
    pass


class SmallLR(LogisticRegression):
    iterations = 4
    cached_partitions = 12
    partition_bytes = 64 * 1024
    batches_per_iteration = 10
    batch_bytes = 64 * 1024
    records_per_iteration = 900
    cache_replacements = 3

    @property
    def default_heap_bytes(self) -> int:
        return SMALL_HEAP_BYTES // 4


def capture(workload, mode):
    with use_kernel_mode(mode):
        heap = workload.build_heap()
        driver = MutatorDriver(heap, run_name=workload.name)
        workload.setup(driver)
        for index in range(workload.iterations):
            workload.iteration(driver, index)
    return heap, driver.run


@pytest.mark.parametrize("workload", [SmallCC, SmallPR, SmallLR],
                         ids=["graphchi-cc", "graphchi-pr", "spark-lr"])
def test_fast_capture_matches_scalar(workload):
    heap_a, run_a = capture(workload(), "scalar")
    heap_b, run_b = capture(workload(), "fast")
    kinds = [trace.kind for trace in run_a.traces]
    assert "minor" in kinds and "major" in kinds
    assert [trace.kind for trace in run_b.traces] == kinds
    for a, b in zip(run_a.traces, run_b.traces):
        assert_same_trace(a, b)
    assert (run_a.allocated_objects, run_a.allocated_bytes) \
        == (run_b.allocated_objects, run_b.allocated_bytes)
    assert state(heap_a) == state(heap_b)
