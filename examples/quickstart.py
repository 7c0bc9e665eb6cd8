"""Quickstart: build a heap, collect it, and offload the GC to Charon.

Runs in a few seconds:

    python examples/quickstart.py
"""

from repro import (JavaHeap, MinorGC, MajorGC, TraceReplayer,
                   build_platform, default_config)


def main() -> None:
    config = default_config().with_heap_bytes(16 * 1024 * 1024)
    heap = JavaHeap(config.heap)

    # Build a little object graph: a linked list of records, each
    # holding a 4 KB payload array.
    node_klass = heap.klasses.define_instance("ListNode", ref_fields=2)
    previous = 0
    for _ in range(800):
        node = heap.new_object("ListNode")
        payload = heap.new_object("typeArray", length=4096)
        # Re-resolve the node: allocation never moves anything without
        # a GC here, but this is the pattern real mutators must use.
        heap.set_field(heap.object_at(node.addr), 0, previous)
        heap.set_field(heap.object_at(node.addr), 1, payload.addr)
        previous = node.addr
    heap.roots.append(previous)
    print(f"heap after allocation: {heap.describe()}")

    # Run real collections; each returns the primitive trace Charon
    # consumes.
    traces = [MinorGC(heap).collect() for _ in range(4)]
    traces.append(MajorGC(heap).collect())
    print(f"heap after 4 minor + 1 major GC: {heap.describe()}")
    minor = traces[0]
    print(f"first MinorGC: {minor.objects_copied} objects copied, "
          f"{minor.bytes_copied} bytes, {len(minor.events)} primitive "
          "invocations")

    # Replay the same GC work on the paper's platforms.
    print("\nGC time by platform (identical logical work):")
    baseline = None
    for name in ("cpu-ddr4", "cpu-hmc", "charon", "ideal"):
        platform = build_platform(name, config)
        result = TraceReplayer(platform).replay_all(traces)
        if baseline is None:
            baseline = result.wall_seconds
        print(f"  {name:15s} {result.wall_seconds * 1e6:9.1f} us  "
              f"({baseline / result.wall_seconds:5.2f}x)  "
              f"energy {result.energy.total_j * 1e3:7.3f} mJ")

    # Verify the list survived everything intact.
    count = 0
    cursor = heap.roots[-1]
    while cursor:
        view = heap.object_at(cursor)
        cursor = heap.get_field(view, 0)
        count += 1
    print(f"\nlinked list intact after all collections: {count} nodes")


if __name__ == "__main__":
    main()
