"""Section 3.3 made executable: why these three primitives?

The paper's offload set is chosen by GC-time coverage *and* by what
actually benefits from near-memory execution.  It names two
counter-examples:

* *traverse linked list* — "relatively small benefits because of
  limited parallelism and latency-bound characteristics";
* *allocate / check mark* — "essentially single atomic instructions
  whose potential benefits from offloading are outweighed by the
  overheads due to their small offloading granularities".

These studies time both on the reproduced platforms, alongside a Copy
of equal byte volume, so the selection argument can be checked rather
than taken on faith.
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import SystemConfig, default_config
from repro.gcalgo.trace import Primitive, TraceEvent
from repro.heap.spaces import HeapLayout
from repro.mem.hmc import HMCSystem
from repro.platform.factory import build_platform
from repro.units import CACHE_LINE, MB

HEAP_BYTES = 16 * MB


def _kit(config: SystemConfig = None):
    config = config or default_config().with_heap_bytes(HEAP_BYTES)
    host = build_platform("cpu-ddr4", config)
    charon = build_platform("charon", config)
    return config, HeapLayout(config.heap), host, charon


def linked_list_study(nodes: int = 4096) -> List[Dict[str, object]]:
    """Pointer chasing: host vs a hypothetical full-traversal offload
    vs per-node offloads, vs a Copy of the same byte volume.

    The traversal is fully dependent, so the only near-memory win is
    the latency delta between a host access (DRAM + off-chip link) and
    a logic-layer access (TSV) — nothing like the bandwidth-parallel
    wins of the real primitives.
    """
    config, layout, host, charon = _kit()
    node_bytes = CACHE_LINE

    # Host: N dependent cold misses.
    host_seconds = nodes * (config.ddr4.access_latency_s
                            + 1.0 / config.host.freq_hz * 8)

    # Hypothetical unit: N dependent local HMC accesses plus one
    # offload round trip.
    hmc = HMCSystem(config.hmc)
    unit_seconds = (config.costs.charon_dispatch_overhead_s
                    + 2 * (hmc.host_link.latency)
                    + nodes * config.hmc.access_latency_s)

    # Per-node offloads: each hop pays the full offload round trip.
    per_node_seconds = nodes * (
        config.costs.charon_dispatch_overhead_s
        + 2 * hmc.host_link.latency
        + config.hmc.access_latency_s)

    # The same byte volume as a Copy primitive, for contrast.
    volume = nodes * node_bytes
    copy_event = TraceEvent(Primitive.COPY, "evacuate",
                            src=layout.eden.start,
                            dst=layout.old.start,
                            size_bytes=volume)
    host_copy = host.cost_model.event_finish(0.0, copy_event)
    charon_copy = charon.offload_finish(0.0, copy_event, "minor")

    return [
        {"operation": "traverse list (host)",
         "seconds_us": round(host_seconds * 1e6, 2), "speedup": 1.0},
        {"operation": "traverse list (charon, one offload)",
         "seconds_us": round(unit_seconds * 1e6, 2),
         "speedup": round(host_seconds / unit_seconds, 2)},
        {"operation": "traverse list (charon, per-node offloads)",
         "seconds_us": round(per_node_seconds * 1e6, 2),
         "speedup": round(host_seconds / per_node_seconds, 2)},
        {"operation": "copy of equal bytes (host)",
         "seconds_us": round(host_copy * 1e6, 2), "speedup": 1.0},
        {"operation": "copy of equal bytes (charon)",
         "seconds_us": round(charon_copy * 1e6, 2),
         "speedup": round(host_copy / charon_copy, 2)},
    ]


def check_mark_study() -> List[Dict[str, object]]:
    """A single mark-word check: offload round trip vs host access.

    The offload packet path alone dwarfs the operation, which is the
    paper's "small offloading granularity" point.
    """
    config = default_config().with_heap_bytes(HEAP_BYTES)
    hmc = HMCSystem(config.hmc)

    host_seconds = config.ddr4.access_latency_s \
        + 4.0 / config.host.freq_hz
    # Host with a warm cache (the common case mid-GC).
    host_hit_seconds = config.costs.cache_hit_latency_s

    offload_seconds = (config.costs.charon_dispatch_overhead_s
                       + 2 * hmc.host_link.latency
                       + config.hmc.access_latency_s
                       + (config.charon.request_packet_bytes
                          + config.charon.response_packet_bytes)
                       / config.hmc.link_bandwidth)

    return [
        {"operation": "check mark (host, cold)",
         "seconds_ns": round(host_seconds * 1e9, 1)},
        {"operation": "check mark (host, cached)",
         "seconds_ns": round(host_hit_seconds * 1e9, 1)},
        {"operation": "check mark (offloaded)",
         "seconds_ns": round(offload_seconds * 1e9, 1)},
    ]


def selection_summary() -> Dict[str, object]:
    """The Sec. 3.3 conclusion in numbers."""
    traverse = linked_list_study()
    marks = check_mark_study()
    copy_speedup = traverse[-1]["speedup"]
    traversal_speedup = traverse[1]["speedup"]
    offload_ns = marks[-1]["seconds_ns"]
    host_cached_ns = marks[1]["seconds_ns"]
    return {
        "copy_speedup": copy_speedup,
        "traversal_speedup": traversal_speedup,
        # "relatively small benefits" (Sec. 3.3): the latency-bound
        # traversal gains a small constant factor while the
        # parallelism-rich primitives gain an order of magnitude.
        "traversal_benefit_small":
            traversal_speedup < copy_speedup / 3.0,
        "check_mark_offload_penalty": round(
            offload_ns / host_cached_ns, 1),
    }
