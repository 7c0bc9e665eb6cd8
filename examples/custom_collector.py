"""Using the Charon primitives from a different collector (Table 1).

The paper argues primitive-level offload outlives any single GC
algorithm.  This example runs the CMS-like mark-sweep collector over a
graph workload's old generation and shows which primitives its traces
contain — and then drives the raw ``offload()`` intrinsic directly,
the way a ported collector would.
"""

from repro import MinorGC, MarkSweepGC, Primitive, default_config
from repro.core.intrinsics import CharonRuntime
from repro.core.device import CharonDevice
from repro.heap.spaces import HeapInfo
from repro.mem.hmc import HMCSystem
from repro.platform.factory import build_vm
from repro.workloads.graphchi import ConnectedComponents
from repro.workloads.mutator import MutatorDriver


class SmallGraph(ConnectedComponents):
    """A shrunken CC workload sized for an 8 MB heap."""

    rmat_scale = 9
    edge_factor = 8
    shards = 2
    shard_buffer_bytes = 64 * 1024
    edge_chunks_per_shard = 4
    edge_chunk_bytes = 16 * 1024
    messages_per_shard = 384

    @property
    def default_heap_bytes(self) -> int:
        return 8 * 1024 * 1024


def main() -> None:
    workload = SmallGraph()
    heap = workload.build_heap()
    driver = MutatorDriver(heap, run_name="cms-demo")
    workload.setup(driver)
    for index in range(4):
        workload.iteration(driver, index)
    print(f"heap: {heap.describe()}")

    # Young generation: the scavenger, whose Copy/Search offload is
    # collector-agnostic.
    minor = MinorGC(heap).collect()
    print(f"\nscavenge: {minor.count(Primitive.COPY)} Copy, "
          f"{minor.count(Primitive.SEARCH)} Search, "
          f"{minor.count(Primitive.SCAN_PUSH)} Scan&Push events")

    # Drop the result-history rings: their records become garbage for
    # the old-generation collector to find.
    for ring in workload.history:
        driver.release(ring)

    # Old generation: mark-sweep.  No compaction means no Bitmap Count
    # and no Copy -- exactly the Table 1 CMS row.
    collector = MarkSweepGC(heap)
    sweep = collector.collect()
    print(f"mark-sweep: {sweep.count(Primitive.SCAN_PUSH)} Scan&Push, "
          f"{sweep.count(Primitive.BITMAP_COUNT)} Bitmap Count, "
          f"{sweep.count(Primitive.COPY)} Copy events; "
          f"freed {sweep.bytes_freed} bytes into "
          f"{len(collector.free_list)} free chunks")

    # Now the raw intrinsics, as a ported collector would call them.
    config = default_config().with_heap_bytes(heap.config.heap_bytes)
    vm = build_vm(config)
    device = CharonDevice(config, HMCSystem(config.hmc), vm)
    runtime = CharonRuntime(device)
    entries = runtime.initialize(HeapInfo.of(config.heap), vm)
    print(f"\ninitialize(): {entries} TLB entries pinned DRAM-side")

    now = 0.0
    live = [view for view in heap.iterate_space(heap.layout.old)
            if not heap.is_filler(view)][:5]
    for view in live:
        refs = len(view.reference_slots())
        now, response = runtime.offload(
            now, Primitive.SCAN_PUSH, view.addr, 0,
            arg=(refs << 16) | refs)
        print(f"offload(SCAN_PUSH, {view.klass.name:10s} "
              f"@{view.addr:#x}, refs={refs}) -> "
              f"t={now * 1e9:7.1f} ns")
    print(f"\n{device.offloads} offloads, "
          f"{device.request_bytes_sent} request bytes, "
          f"{device.response_bytes_sent} response bytes on the wire")


if __name__ == "__main__":
    main()
