"""Per-workload GC study: run a Table 3 application and compare
platforms and primitives (a single-workload slice of Figs. 12 and 14).

    python examples/spark_gc_study.py [workload]

where workload is one of spark-bs, spark-km, spark-lr, graphchi-cc,
graphchi-pr, graphchi-als (default: spark-bs).
"""

import sys

from repro import run_workload
from repro.experiments.runner import replay_platform, collect_run
from repro.gcalgo.trace import Primitive


def main(name: str) -> None:
    run = collect_run(name)
    print(f"workload {name}: {run.minor_count} minor GCs, "
          f"{run.major_count} major GCs, "
          f"{run.allocated_bytes / 2**20:.1f} MB allocated, "
          f"{run.allocated_objects} objects")

    copied = sum(t.bytes_copied for t in run.traces)
    refs = sum(t.summary()["scan_refs"] for t in run.traces)
    print(f"GC moved {copied / 2**20:.1f} MB and scanned {refs} "
          "references\n")

    print(f"{'platform':16s} {'GC wall':>10s} {'speedup':>8s} "
          f"{'energy':>9s} {'bandwidth':>10s}")
    baseline = None
    for platform in ("cpu-ddr4", "cpu-hmc", "charon", "charon-cpuside",
                     "ideal"):
        result = replay_platform(platform, name)
        if baseline is None:
            baseline = result.wall_seconds
        print(f"{platform:16s} {result.wall_seconds * 1e3:8.2f}ms "
              f"{baseline / result.wall_seconds:7.2f}x "
              f"{result.energy.total_j * 1e3:7.2f}mJ "
              f"{result.utilized_bandwidth / 1e9:8.1f}GB/s")

    host = replay_platform("cpu-ddr4", name)
    charon = replay_platform("charon", name)
    print("\nper-primitive speedup (Charon vs cpu-ddr4):")
    for primitive in (Primitive.SEARCH, Primitive.SCAN_PUSH,
                      Primitive.COPY, Primitive.BITMAP_COUNT):
        host_s = host.primitive_seconds.get(primitive, 0.0)
        charon_s = charon.primitive_seconds.get(primitive, 0.0)
        if host_s and charon_s:
            print(f"  {primitive.value:13s} {host_s / charon_s:6.2f}x")
    if charon.local_fraction is not None:
        print(f"\nCharon served {charon.local_fraction * 100:.1f}% of "
              "unit accesses from the local cube; bitmap cache hit "
              f"rate {100 * (charon.bitmap_cache_hit_rate or 0):.1f}%")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "spark-bs")
