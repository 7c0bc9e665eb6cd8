"""Generators for the paper's tables (1-4)."""

from __future__ import annotations

from typing import Dict, List

from repro.config import (PAPER_HEAP_BYTES, PAPER_HEAP_SCALE, default_config,
                          scaled_heap_bytes)
from repro.core.area_power import (CHARON_AVG_POWER_W, CHARON_TOTAL_AREA_MM2,
                                   charon_area_report, charon_total_area,
                                   logic_layer_fraction,
                                   max_power_density_mw_per_mm2)
from repro.experiments.runner import compiled_run_traces
from repro.gcalgo.mark_sweep import MarkSweepGC
from repro.gcalgo.trace import Primitive
from repro.units import GB, MB
from repro.workloads.registry import TABLE3_WORKLOADS, WORKLOAD_ABBREV, \
    get_workload


def table1() -> List[Dict[str, object]]:
    """Primitive applicability across collectors (Table 1).

    ParallelScavenge rows are demonstrated by this repo's MinorGC and
    MajorGC; the CMS row by the mark-sweep collector in
    :mod:`repro.gcalgo.mark_sweep` (Copy/Search via its young-gen
    scavenges, Scan&Push in marking, no Bitmap Count — it never
    compacts).  G1 is classified per the paper's analysis.  The final
    row extends the paper's matrix with this repo's SATB
    concurrent-marking collector: non-moving (no Copy), no card
    scanning (no Search — the logged write barrier replaces the
    remembered-set rebuild), Scan&Push for marking and barrier drains,
    Bitmap Count for per-region liveness.
    """
    return [
        {"collector": "ParallelScavenge", "copy_search": "vv",
         "scan_push": "vv", "bitmap_count": "v",
         "remarks": "High throughput"},
        {"collector": "G1", "copy_search": "vv", "scan_push": "vv",
         "bitmap_count": "v", "remarks": "Low latency"},
        {"collector": "CMS", "copy_search": "vv", "scan_push": "vv",
         "bitmap_count": "x", "remarks": "No compaction"},
        {"collector": "Concurrent (SATB)", "copy_search": "x",
         "scan_push": "vv", "bitmap_count": "v",
         "remarks": "Repo extension; non-moving"},
    ]


def table1_demonstration(workload: str = "graphchi-cc"
                         ) -> Dict[str, object]:
    """Executable evidence behind the Table 1 rows.

    * the CMS row: the mark-sweep collector's traces contain Scan&Push
      but never Bitmap Count or Copy, while its young generation keeps
      the scavenger's Copy/Search;
    * the G1 row: the regional collector's traces contain all four
      primitives, with Bitmap Count applied "with minor fix" to
      per-region liveness accounting;
    * the concurrent row: the SATB collector's traces (from the
      ``concurrent-mark`` demo workload) contain Scan&Push and Bitmap
      Count but never Copy (non-moving) or Search (no card scanning).
    """
    # Young generation: ParallelScavenge minors (Copy + Search).
    minors = [t for t in compiled_run_traces(workload) if t.kind == "minor"]
    minor_counts = {
        "copy": sum(t.count(Primitive.COPY) for t in minors),
        "search": sum(t.count(Primitive.SEARCH) for t in minors),
    }
    # Old generation handled by mark-sweep on a fresh workload heap.
    workload_obj = get_workload(workload)
    heap = workload_obj.build_heap()
    from repro.workloads.mutator import MutatorDriver
    driver = MutatorDriver(heap, run_name=workload)
    workload_obj.setup(driver)
    workload_obj.iteration(driver, 0)
    sweep = MarkSweepGC(heap).collect()

    # The G1 demonstration on its own region-managed heap.
    from repro.gcalgo.g1 import G1Collector
    from repro.heap.heap import JavaHeap
    from repro.config import HeapConfig
    from repro.workloads.base import workload_klasses
    g1_heap = JavaHeap(HeapConfig(heap_bytes=8 * 1024 * 1024),
                       klasses=workload_klasses())
    g1 = G1Collector(g1_heap, region_bytes=64 * 1024)
    previous = 0
    for index in range(1200):
        view = g1.allocate("Record")
        g1_heap.set_field(view, 0, previous)
        previous = view.addr
        if index % 3 == 0:
            g1.allocate("typeArray", 256)  # garbage
    g1_heap.roots.append(previous)
    g1_trace = g1.collect()

    # The concurrent-marking demonstration: the registered synthetic
    # workload, so its (cached) traces are the same ones ``repro run
    # concurrent-mark`` replays.
    concurrent = compiled_run_traces("concurrent-mark")
    concurrent_counts = {
        primitive: sum(t.count(primitive) for t in concurrent)
        for primitive in Primitive
    }

    return {
        "minor_copy_events": minor_counts["copy"],
        "minor_search_events": minor_counts["search"],
        "sweep_scan_push_events": sweep.count(Primitive.SCAN_PUSH),
        "sweep_bitmap_count_events": sweep.count(Primitive.BITMAP_COUNT),
        "sweep_copy_events": sweep.count(Primitive.COPY),
        "sweep_bytes_freed": sweep.bytes_freed,
        "g1_copy_events": g1_trace.count(Primitive.COPY),
        "g1_search_events": g1_trace.count(Primitive.SEARCH),
        "g1_scan_push_events": g1_trace.count(Primitive.SCAN_PUSH),
        "g1_bitmap_count_events": g1_trace.count(
            Primitive.BITMAP_COUNT),
        "concurrent_scan_push_events": concurrent_counts[
            Primitive.SCAN_PUSH],
        "concurrent_bitmap_count_events": concurrent_counts[
            Primitive.BITMAP_COUNT],
        "concurrent_copy_events": concurrent_counts[Primitive.COPY],
        "concurrent_search_events": concurrent_counts[
            Primitive.SEARCH],
    }


def table2() -> List[Dict[str, object]]:
    """The architectural parameters actually configured (Table 2)."""
    config = default_config()
    rows = [
        {"parameter": "host cores",
         "value": config.host.num_cores},
        {"parameter": "host frequency (GHz)",
         "value": config.host.freq_hz / 1e9},
        {"parameter": "instruction window",
         "value": config.host.instruction_window},
        {"parameter": "ROB entries", "value": config.host.rob_entries},
        {"parameter": "L1D (KB)",
         "value": config.caches.l1d.size_bytes // 1024},
        {"parameter": "L2 (KB)",
         "value": config.caches.l2.size_bytes // 1024},
        {"parameter": "L3 (MB)",
         "value": config.caches.l3.size_bytes // MB},
        {"parameter": "DDR4 channels", "value": config.ddr4.channels},
        {"parameter": "DDR4 bandwidth (GB/s)",
         "value": config.ddr4.total_bandwidth / 1e9},
        {"parameter": "DDR4 energy (pJ/bit)",
         "value": config.ddr4.energy_pj_per_bit},
        {"parameter": "HMC cubes", "value": config.hmc.cubes},
        {"parameter": "HMC vaults per cube",
         "value": config.hmc.vaults_per_cube},
        {"parameter": "HMC internal BW per cube (GB/s)",
         "value": config.hmc.internal_bandwidth_per_cube / 1e9},
        {"parameter": "HMC link BW (GB/s)",
         "value": config.hmc.link_bandwidth / 1e9},
        {"parameter": "HMC link latency (ns)",
         "value": config.hmc.link_latency_s * 1e9},
        {"parameter": "HMC energy (pJ/bit)",
         "value": config.hmc.energy_pj_per_bit},
        {"parameter": "Copy/Search units",
         "value": config.charon.copy_search_units},
        {"parameter": "Bitmap Count units",
         "value": config.charon.bitmap_count_units},
        {"parameter": "Scan&Push units",
         "value": config.charon.scan_push_units},
        {"parameter": "bitmap cache (KB)",
         "value": config.charon.bitmap_cache_bytes // 1024},
        {"parameter": "MAI entries per cube",
         "value": config.charon.mai_entries_per_cube},
    ]
    return rows


def table3() -> List[Dict[str, object]]:
    """Workloads, datasets and heap sizes (Table 3), with the scale."""
    rows = []
    for name in TABLE3_WORKLOADS:
        workload = get_workload(name)
        rows.append({
            "workload": WORKLOAD_ABBREV[name],
            "framework": workload.framework,
            "dataset": workload.dataset,
            "paper_heap_gb": PAPER_HEAP_BYTES[name] / GB,
            "scaled_heap_mb": scaled_heap_bytes(name) / MB,
            "scale": f"1/{PAPER_HEAP_SCALE}",
        })
    return rows


def table4() -> List[Dict[str, object]]:
    """Charon component areas (Table 4)."""
    return charon_area_report()


def table4_summary() -> Dict[str, float]:
    """Headline area/power numbers (Sec. 5.3)."""
    return {
        "total_area_mm2": round(charon_total_area(), 4),
        "paper_total_area_mm2": CHARON_TOTAL_AREA_MM2,
        "logic_layer_fraction_pct": round(
            logic_layer_fraction() * 100.0, 2),
        "avg_power_w": CHARON_AVG_POWER_W,
        "max_power_density_mw_mm2": round(
            max_power_density_mw_per_mm2(), 1),
    }
