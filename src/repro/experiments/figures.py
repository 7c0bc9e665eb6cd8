"""Generators for every results figure in the paper's evaluation.

Each function returns a list of row dicts; the matching benchmark
prints them with :func:`repro.experiments.report.render_table` and
EXPERIMENTS.md records the paper-vs-measured comparison.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.experiments.runner import (collect_run, find_min_heap,
                                      replay_grid, replay_platform,
                                      workload_config)
from repro.gcalgo.trace import Primitive
from repro.heap.heap import JavaHeap
from repro.platform import FastTraceReplayer, build_platform
from repro.units import align_up, geomean
from repro.workloads.base import workload_klasses
from repro.workloads.registry import TABLE3_WORKLOADS, WORKLOAD_ABBREV

ALL_WORKLOADS: Sequence[str] = TABLE3_WORKLOADS

#: The four platforms of Fig. 12, in the paper's bar order.
FIG12_PLATFORMS = ("cpu-ddr4", "cpu-hmc", "charon", "ideal")


def _names(workloads: Optional[Iterable[str]]) -> List[str]:
    """A figure's workload list: the argument, or the Table 3 set."""
    return list(ALL_WORKLOADS if workloads is None else workloads)


# ---------------------------------------------------------------------------
# Figure 2: GC overhead vs heap over-provisioning
# ---------------------------------------------------------------------------

def figure2(workloads: Optional[Iterable[str]] = None,
            factors: Sequence[float] = (1.0, 1.25, 1.5, 2.0)
            ) -> List[Dict[str, object]]:
    """GC time normalized to mutator time across heap sizes.

    The paper's methodology: find the minimum viable heap, then
    overprovision by 25/50/100% and measure GC overhead on the host
    (Fig. 2 runs on a plain CPU system).
    """
    rows = []
    for name in _names(workloads):
        minimum = find_min_heap(name)
        row: Dict[str, object] = {
            "workload": WORKLOAD_ABBREV[name],
            "min_heap_mb": minimum / 2**20,
        }
        for factor in factors:
            heap_bytes = align_up(int(minimum * factor), 1 << 20)
            run = collect_run(name, heap_bytes=heap_bytes)
            timing = replay_platform("cpu-ddr4", name,
                                     heap_bytes=heap_bytes)
            overhead = timing.wall_seconds / run.mutator_seconds
            row[f"x{factor:g}"] = round(overhead * 100.0, 1)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 4: GC runtime breakdown on the host
# ---------------------------------------------------------------------------

def figure4(workloads: Optional[Iterable[str]] = None
            ) -> List[Dict[str, object]]:
    """Share of each operation in MinorGC/MajorGC time (cpu-ddr4)."""
    rows = []
    for name in _names(workloads):
        run = collect_run(name)
        config = workload_config(name)
        for kind in ("minor", "major"):
            traces = [trace for trace in run.traces if trace.kind == kind]
            if not traces:
                continue
            heap = JavaHeap(config.heap, klasses=workload_klasses())
            platform = build_platform("cpu-ddr4", config, heap)
            result = FastTraceReplayer(platform).replay_all(traces)
            total = (result.offloadable_seconds
                     + result.residual_seconds)
            if total <= 0:
                continue
            row: Dict[str, object] = {
                "workload": WORKLOAD_ABBREV[name],
                "gc": kind,
            }
            for primitive in Primitive:
                share = result.primitive_seconds.get(primitive, 0.0)
                row[primitive.value] = round(share / total * 100.0, 1)
            row["other"] = round(
                result.residual_seconds / total * 100.0, 1)
            row["offloadable_pct"] = round(
                result.offloadable_seconds / total * 100.0, 1)
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 12: overall GC speedup
# ---------------------------------------------------------------------------

def figure12(workloads: Optional[Iterable[str]] = None
             ) -> List[Dict[str, object]]:
    """GC throughput of each platform normalized to cpu-ddr4."""
    names = _names(workloads)
    # Pre-warm the whole grid (fans out over processes when REPRO_JOBS
    # asks for it); the loop below then reads the memoised results.
    replay_grid(FIG12_PLATFORMS, names)
    rows = []
    speedups: Dict[str, List[float]] = {p: [] for p in FIG12_PLATFORMS}
    for name in names:
        baseline = replay_platform("cpu-ddr4", name).wall_seconds
        row: Dict[str, object] = {"workload": WORKLOAD_ABBREV[name]}
        for platform in FIG12_PLATFORMS:
            wall = replay_platform(platform, name).wall_seconds
            speedup = baseline / wall if wall > 0 else float("inf")
            row[platform] = round(speedup, 2)
            speedups[platform].append(speedup)
        rows.append(row)
    geo: Dict[str, object] = {"workload": "geomean"}
    for platform in FIG12_PLATFORMS:
        geo[platform] = round(geomean(speedups[platform]), 2)
    rows.append(geo)
    return rows


# ---------------------------------------------------------------------------
# Figure 13: utilized bandwidth and locality
# ---------------------------------------------------------------------------

def figure13(workloads: Optional[Iterable[str]] = None
             ) -> List[Dict[str, object]]:
    """Average DRAM bandwidth during GC, plus Charon's local-access %."""
    rows = []
    for name in _names(workloads):
        row: Dict[str, object] = {"workload": WORKLOAD_ABBREV[name]}
        for platform in ("cpu-ddr4", "cpu-hmc", "charon"):
            result = replay_platform(platform, name)
            row[f"{platform}_gbps"] = round(
                result.utilized_bandwidth / 1e9, 2)
        charon = replay_platform("charon", name)
        if charon.local_fraction is not None:
            row["local_pct"] = round(charon.local_fraction * 100.0, 1)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 14: per-primitive speedup
# ---------------------------------------------------------------------------

_FIG14_ORDER = (Primitive.SEARCH, Primitive.SCAN_PUSH, Primitive.COPY,
                Primitive.BITMAP_COUNT)


def figure14(workloads: Optional[Iterable[str]] = None
             ) -> List[Dict[str, object]]:
    """Charon speedup over cpu-ddr4 per primitive (S, SP, C, BC)."""
    names = _names(workloads)
    rows = []
    collected: Dict[Primitive, List[float]] = {p: [] for p in
                                               _FIG14_ORDER}
    for name in names:
        host = replay_platform("cpu-ddr4", name)
        charon = replay_platform("charon", name)
        row: Dict[str, object] = {"workload": WORKLOAD_ABBREV[name]}
        for primitive in _FIG14_ORDER:
            host_s = host.primitive_seconds.get(primitive, 0.0)
            charon_s = charon.primitive_seconds.get(primitive, 0.0)
            if host_s > 0 and charon_s > 0:
                speedup = host_s / charon_s
                row[primitive.value] = round(speedup, 2)
                collected[primitive].append(speedup)
            else:
                row[primitive.value] = None
        rows.append(row)
    summary: Dict[str, object] = {"workload": "average"}
    peak: Dict[str, object] = {"workload": "max"}
    for primitive in _FIG14_ORDER:
        values = collected[primitive]
        summary[primitive.value] = round(
            sum(values) / len(values), 2) if values else None
        peak[primitive.value] = round(max(values), 2) if values else None
    rows.append(summary)
    rows.append(peak)
    return rows


# ---------------------------------------------------------------------------
# Figure 15: scalability with GC threads, unified vs distributed
# ---------------------------------------------------------------------------

def figure15(workloads: Optional[Iterable[str]] = None,
             thread_counts: Sequence[int] = (1, 2, 4, 8, 16)
             ) -> List[Dict[str, object]]:
    """GC throughput vs thread count for DDR4 and both Charon designs.

    Charon's unit count scales with the thread count, per Sec. 5.2
    ("we scale the number of corresponding Charon primitive units as
    we increase the number of GC threads").  Throughput is normalized
    to the single-threaded DDR4 run of the same workload.
    """
    rows = []
    for name in _names(workloads):
        base_config = workload_config(name)
        baseline = replay_platform(
            "cpu-ddr4", name,
            config=base_config.with_gc_threads(1), threads=1
        ).wall_seconds
        for threads in thread_counts:
            row: Dict[str, object] = {
                "workload": WORKLOAD_ABBREV[name],
                "threads": threads,
            }
            ddr4_cfg = base_config.with_gc_threads(threads)
            row["ddr4"] = round(baseline / replay_platform(
                "cpu-ddr4", name, config=ddr4_cfg,
                threads=threads).wall_seconds, 2)
            scaled = base_config.with_gc_threads(threads) \
                .scaled_charon_units(threads / 8.0)
            for label, distributed in (("charon_unified", False),
                                       ("charon_distributed", True)):
                config = scaled.with_distributed_charon(distributed)
                wall = replay_platform("charon", name, config=config,
                                       threads=threads).wall_seconds
                row[label] = round(baseline / wall, 2)
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 16: memory-side vs CPU-side Charon
# ---------------------------------------------------------------------------

def figure16(workloads: Optional[Iterable[str]] = None
             ) -> List[Dict[str, object]]:
    """Throughput of DDR4 / CPU-side Charon / memory-side Charon."""
    names = _names(workloads)
    rows = []
    ratios = []
    for name in names:
        baseline = replay_platform("cpu-ddr4", name).wall_seconds
        cpu_side = replay_platform("charon-cpuside", name).wall_seconds
        memory_side = replay_platform("charon", name).wall_seconds
        ratio = memory_side and cpu_side / memory_side
        rows.append({
            "workload": WORKLOAD_ABBREV[name],
            "cpu_ddr4": 1.0,
            "charon_cpuside": round(baseline / cpu_side, 2),
            "charon": round(baseline / memory_side, 2),
            "memside_vs_cpuside": round(ratio, 2),
        })
        ratios.append(ratio)
    rows.append({
        "workload": "geomean",
        "cpu_ddr4": 1.0,
        "charon_cpuside": None,
        "charon": None,
        "memside_vs_cpuside": round(geomean(ratios), 2),
    })
    return rows


# ---------------------------------------------------------------------------
# Figure 17: GC energy
# ---------------------------------------------------------------------------

def figure17(workloads: Optional[Iterable[str]] = None
             ) -> List[Dict[str, object]]:
    """Per-workload GC energy, normalized to the cpu-ddr4 run."""
    names = _names(workloads)
    rows = []
    charon_norm = []
    hmc_norm = []
    for name in names:
        base = replay_platform("cpu-ddr4", name).energy.total_j
        row: Dict[str, object] = {"workload": WORKLOAD_ABBREV[name]}
        for platform in ("cpu-ddr4", "cpu-hmc", "charon"):
            result = replay_platform(platform, name)
            row[platform] = round(result.energy.total_j / base, 3)
        charon = replay_platform("charon", name)
        row["charon_host_j"] = round(charon.energy.host_j, 4)
        row["charon_mem_j"] = round(charon.energy.memory_j, 4)
        row["charon_dev_j"] = round(charon.energy.charon_j, 4)
        rows.append(row)
        charon_norm.append(row["charon"])
        hmc_norm.append(row["cpu-hmc"])
    rows.append({
        "workload": "average",
        "cpu-ddr4": 1.0,
        "cpu-hmc": round(sum(hmc_norm) / len(hmc_norm), 3),
        "charon": round(sum(charon_norm) / len(charon_norm), 3),
    })
    return rows


def energy_savings_summary() -> Dict[str, float]:
    """The headline numbers: energy savings vs DDR4 and vs HMC."""
    rows = figure17()
    average = rows[-1]
    return {
        "savings_vs_ddr4_pct": round(
            (1.0 - float(average["charon"])) * 100.0, 1),
        "savings_vs_hmc_pct": round(
            (1.0 - float(average["charon"])
             / float(average["cpu-hmc"])) * 100.0, 1),
    }
