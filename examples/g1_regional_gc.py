"""The G1 story: a regional collector driving all four primitives.

Table 1 of the paper claims Charon's primitives carry over to
Garbage-First with at most a "minor fix" (Bitmap Count scanning the
bitmap for whole-heap state).  This example runs the simplified G1
collector, shows the region lifecycle, and replays a G1 evacuation
pause on the host and on Charon.

    python examples/g1_regional_gc.py
"""

from repro import (G1Collector, JavaHeap, Primitive, TraceReplayer,
                   build_platform, default_config)
from repro.gcalgo.g1 import RegionType
from repro.workloads.base import workload_klasses


def main() -> None:
    config = default_config().with_heap_bytes(16 * 1024 * 1024)
    heap = JavaHeap(config.heap, klasses=workload_klasses())
    g1 = G1Collector(heap, region_bytes=64 * 1024)
    print(f"{len(g1.regions)} regions of {g1.region_bytes // 1024} KB")

    # Mutate: long chains (live) interleaved with garbage arrays, plus
    # one humongous object.
    previous = 0
    for index in range(6000):
        view = g1.allocate("Record")
        heap.set_field(view, 0, previous)
        previous = view.addr
        if index % 500 == 0:
            heap.roots.append(previous)
            previous = 0
        if index % 2 == 0:
            g1.allocate("typeArray", 320)  # dies immediately
    matrix = g1.allocate("typeArray", 200 * 1024)
    heap.roots.append(matrix.addr)
    print(f"after mutation: {g1.occupancy_summary()}")

    trace = g1.collect()
    print(f"after the pause: {g1.occupancy_summary()}")
    print(f"evacuated {trace.objects_copied} objects "
          f"({trace.bytes_copied} B), freed {trace.bytes_freed} B")
    print("primitive mix of the G1 pause:")
    for primitive in Primitive:
        print(f"  {primitive.value:13s} {trace.count(primitive):6d} "
              "invocations")
    humongous = g1.region_of(heap.roots[-1])
    print(f"humongous object stayed put in region {humongous.index} "
          f"({humongous.region_type.value})")

    print("\nreplaying the pause:")
    for name in ("cpu-ddr4", "charon"):
        platform = build_platform(name, config)
        result = TraceReplayer(platform).replay(trace)
        print(f"  {name:10s} {result.wall_seconds * 1e6:8.1f} us")


if __name__ == "__main__":
    main()
