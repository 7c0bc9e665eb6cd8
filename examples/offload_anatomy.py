"""Anatomy of one offload: what the 48-byte request packet carries,
where it is routed, and how the four processing units spend their time.

    python examples/offload_anatomy.py
"""

from repro import Primitive, default_config
from repro.core.device import CharonDevice
from repro.core.packets import OffloadRequest
from repro.gcalgo.trace import TraceEvent
from repro.heap.spaces import HeapInfo, HeapLayout
from repro.mem.hmc import HMCSystem
from repro.platform.factory import build_vm


def main() -> None:
    config = default_config().with_heap_bytes(16 * 1024 * 1024)
    layout, info = HeapLayout(config.heap), HeapInfo.of(config.heap)
    vm = build_vm(config)
    hmc = HMCSystem(config.hmc)
    device = CharonDevice(config, hmc, vm)
    device.initialize(info, vm)

    # The wire format of Sec. 4.1.
    request = OffloadRequest(Primitive.COPY, dest_cube=1,
                             src=layout.eden.start,
                             dst=layout.old.start, arg=65536)
    packet = request.encode()
    print(f"offload request packet ({len(packet)} bytes): "
          f"{packet.hex()}")
    print(f"decoded: {OffloadRequest.decode(packet)}\n")

    events = [
        ("Copy 256 B (one object)",
         TraceEvent(Primitive.COPY, "evacuate",
                    src=layout.eden.start,
                    dst=layout.old.start, size_bytes=256)),
        ("Copy 1 MB (an ALS factor matrix)",
         TraceEvent(Primitive.COPY, "evacuate",
                    src=layout.eden.start,
                    dst=layout.old.start, size_bytes=1 << 20)),
        ("Search 64 cards",
         TraceEvent(Primitive.SEARCH, "card-search",
                    src=info.card_table_base, size_bytes=64)),
        ("Scan&Push 2 refs (a Spark record)",
         TraceEvent(Primitive.SCAN_PUSH, "evacuate",
                    src=layout.eden.start, refs=2, pushes=1)),
        ("Scan&Push 48 refs (a graph adjacency chunk)",
         TraceEvent(Primitive.SCAN_PUSH, "mark",
                    src=layout.old.start, refs=48, pushes=20)),
        ("Bitmap Count 256 bits (half a region)",
         TraceEvent(Primitive.BITMAP_COUNT, "adjust",
                    src=layout.old.start, bits=256)),
    ]
    print(f"{'primitive invocation':44s} {'cube':>4s} "
          f"{'round trip':>11s}")
    now = 0.0
    for label, event in events:
        cube = device._target_cube(event)
        finish = device.offload_event(now, event,
                                      "major" if event.phase !=
                                      "evacuate" else "minor")
        print(f"{label:44s} {cube:4d} "
              f"{(finish - now) * 1e9:9.1f}ns")
        now = finish + 1e-6  # let the pipes drain between probes

    hit_rate = device.bitmap_cache.hit_rate
    print(f"\nbitmap cache hit rate so far: {hit_rate * 100:.0f}% "
          "(warms toward ~90% over a compaction, Sec. 4.5)")
    print(f"unit busy time total: "
          f"{device.busy_time_total() * 1e9:.1f} ns across "
          f"{len(device.all_units())} units")


if __name__ == "__main__":
    main()
