"""Micro-benchmarks of the simulator's hot kernels.

Unlike the figure benches (which regenerate paper exhibits once), these
use pytest-benchmark's statistical timing to track the library's own
performance: functional scavenge throughput, the bitmap count
datapaths, the bitmap cache, and offload dispatch.
"""

from repro.config import HeapConfig, default_config
from repro.core.bitmap_math import streaming_live_words
from repro.cpu.cache import SetAssociativeCache
from repro.gcalgo.parallel_scavenge import MinorGC
from repro.gcalgo.trace import Primitive, TraceEvent
from repro.heap.heap import JavaHeap
from repro.heap.mark_bitmap import MarkBitmaps
from repro.heap.spaces import HeapLayout
from repro.platform import TraceReplayer, build_platform
from repro.workloads.base import workload_klasses

from conftest import run_once

HEAP_BYTES = 8 * 1024 * 1024


def populated_heap():
    heap = JavaHeap(HeapConfig(heap_bytes=HEAP_BYTES),
                    klasses=workload_klasses())
    prev = 0
    for _ in range(2000):
        view = heap.new_object("Record")
        heap.set_field(view, 0, prev)
        prev = view.addr
    heap.roots.append(prev)
    return heap


def test_minor_gc_functional_throughput(benchmark):
    """Full functional scavenge of 2000 live objects."""

    def scavenge():
        heap = populated_heap()
        return MinorGC(heap).collect()

    trace = benchmark(scavenge)
    assert trace.objects_copied == 2000


def test_bitmap_streaming_datapath(benchmark):
    """The unit's word-serial subtract+popcount over a 4K-bit range."""
    bitmaps = MarkBitmaps(0x1000_0000, 0x1000_0000 + 4096 * 8)
    cursor = 0
    while cursor < 4090:
        bitmaps.mark_object(0x1000_0000 + cursor * 8, 5 * 8)
        cursor += 7
    beg_int, end_int, num_bits = bitmaps.range_bits(
        0x1000_0000, 0x1000_0000 + 4096 * 8)
    mask = (1 << 64) - 1
    beg = [(beg_int >> (64 * i)) & mask for i in range(64)]
    end = [(end_int >> (64 * i)) & mask for i in range(64)]

    count = benchmark(streaming_live_words, beg, end, num_bits)
    assert count > 0


def test_naive_bitmap_walk(benchmark):
    """The Fig. 8 software loop over the same range (the baseline the
    unit's algorithm beats)."""
    bitmaps = MarkBitmaps(0x1000_0000, 0x1000_0000 + 4096 * 8)
    cursor = 0
    while cursor < 4090:
        bitmaps.mark_object(0x1000_0000 + cursor * 8, 5 * 8)
        cursor += 7

    count = benchmark(bitmaps.naive_live_words_in_range,
                      0x1000_0000, 0x1000_0000 + 4096 * 8)
    assert count > 0


def test_bitmap_cache_access(benchmark):
    """Tag lookup + LRU update throughput."""
    cache = SetAssociativeCache(8 * 1024, 8, 32)
    addrs = [i * 32 for i in range(512)]

    def churn():
        for addr in addrs:
            cache.access(addr)

    benchmark(churn)


def test_offload_dispatch_rate(benchmark):
    """End-to-end offload cost: packet, routing, unit, response."""
    config = default_config().with_heap_bytes(HEAP_BYTES)
    platform = build_platform("charon", config)
    layout = HeapLayout(config.heap)
    event = TraceEvent(Primitive.COPY, "evacuate",
                       src=layout.eden.start,
                       dst=layout.old.start, size_bytes=4096)
    clock = iter(range(1, 10_000_000))

    def offload():
        return platform.offload_finish(next(clock) * 1e-5, event,
                                       "minor")

    assert benchmark(offload) > 0


def test_trace_replay_throughput(benchmark):
    """Replayer event rate on a real minor-GC trace."""
    heap = populated_heap()
    trace = MinorGC(heap).collect()
    config = default_config().with_heap_bytes(HEAP_BYTES)

    def replay():
        platform = build_platform("cpu-ddr4", config)
        return TraceReplayer(platform).replay(trace)

    result = benchmark(replay)
    assert result.wall_seconds > 0
