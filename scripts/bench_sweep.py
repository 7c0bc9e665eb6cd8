#!/usr/bin/env python
"""Warm sweep benchmark: cold vs warm wall time over the same grid.

Runs the platform x workload sweep twice in fresh measured
subprocesses against the same throwaway cache directory:

1. **cold** — empty trace and stage-1 caches, serial: the run captures
   the workload, compiles it, computes every stage-1 product, and
   stores everything;
2. **warm** — the populated caches and ``processes=2`` (a fork pool
   made for the sweep).

The warm run must finish at least ``FLOOR``x faster, report a 100%
stage-1 hit rate (zero misses, at least one hit — the store's tallies
are the witness that nothing was recomputed), and return results
*bit-exactly* equal to the cold serial sweep (compared through the
shard journal's exact JSON round-trip encoding).  Per-run wall time
and cells/second land in ``BENCH_sweep.json`` for trend tracking.

Exit status 0 on success.  Used by ``scripts/bench_smoke.py`` and the
CI ``bench-smoke`` job; runnable locally with
``python scripts/bench_sweep.py [report.json]``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: A capture-dominated grid: the warm delta then isolates what this
#: benchmark guards — capture, compile and stage-1 work skipped via
#: the caches.  The kernel-heavy charon platforms would drown that
#: signal in irreducible stage-2 replay time (on a single-CPU runner
#: the pool cannot parallelize it away); they have their own floors in
#: ``bench_replay_kernels.py``.
PLATFORMS = ("ideal", "cpu-ddr4", "cpu-hmc")
WORKLOADS = ("spark-km", "graphchi-cc")
JOBS = 2
#: Acceptance floor: the warm repeat sweep must at least halve the
#: cold wall time (in practice capture dominates and it is far more).
FLOOR = 2.0

#: Environment that must not leak into the measured subprocesses.
_CONTROLLED = ("REPRO_TRACE_CACHE", "REPRO_JOBS", "REPRO_SHARD_JOURNAL")


def measure(platforms: list, workloads: list,
            jobs: int) -> None:
    """Measured subprocess body: one sweep, one JSON line out."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.experiments import stage1_cache, trace_cache
    from repro.experiments.runner import replay_grid
    from repro.experiments.shard_journal import result_to_dict

    started = time.perf_counter()
    grid = replay_grid(platforms, workloads, processes=jobs)
    wall = time.perf_counter() - started
    print(json.dumps({
        "wall_seconds": wall,
        "cells": len(grid),
        "cells_per_second": len(grid) / wall,
        "stage1": stage1_cache.STATS.snapshot(),
        "trace_cache": trace_cache.STATS.snapshot(),
        "results": {f"{platform}/{name}": result_to_dict(result)
                    for (platform, name), result in grid.items()},
    }))


def run_measured(extra_env: dict, jobs: int) -> dict:
    env = dict(os.environ)
    for name in _CONTROLLED:
        env.pop(name, None)
    env["PYTHONPATH"] = str(REPO / "src")
    env.update(extra_env)
    process = subprocess.run(
        [sys.executable, __file__, "--measure",
         ",".join(PLATFORMS), ",".join(WORKLOADS), str(jobs)],
        cwd=REPO, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if process.returncode != 0:
        print(process.stdout)
        sys.exit(f"bench sweep: measured sweep failed "
                 f"(exit {process.returncode})")
    return json.loads(process.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", nargs="?",
                        default=str(REPO / "BENCH_sweep.json"))
    parser.add_argument("--measure", nargs=3,
                        metavar=("PLATFORMS", "WORKLOADS", "JOBS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        platforms, workloads, jobs = args.measure
        measure(platforms.split(","), workloads.split(","), int(jobs))
        return 0

    from bench_meta import bench_metadata

    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as temp:
        cache = {"REPRO_TRACE_CACHE": str(Path(temp) / "cache")}
        cold = run_measured(cache, jobs=1)
        warm = run_measured(cache, jobs=JOBS)

    speedup = cold["wall_seconds"] / warm["wall_seconds"]
    failures = []
    if warm["stage1"]["misses"] != 0 or warm["stage1"]["hits"] == 0:
        failures.append(f"warm sweep missed the stage-1 cache: "
                        f"{warm['stage1']}")
    if warm["results"] != cold["results"]:
        failures.append("warm sweep results are not bit-exact against "
                        "the cold serial sweep")
    if speedup < FLOOR:
        failures.append(f"warm speedup {speedup:.1f}x is below the "
                        f"{FLOOR:.0f}x floor")

    report = {
        "benchmark": "sweep",
        **bench_metadata(),
        "platforms": list(PLATFORMS),
        "workloads": list(WORKLOADS),
        "warm_jobs": JOBS,
        "floor": FLOOR,
        "speedup": speedup,
        "bit_exact": warm["results"] == cold["results"],
        "cold": {key: cold[key] for key in
                 ("wall_seconds", "cells", "cells_per_second",
                  "stage1", "trace_cache")},
        "warm": {key: warm[key] for key in
                 ("wall_seconds", "cells", "cells_per_second",
                  "stage1", "trace_cache")},
    }
    Path(args.report).write_text(json.dumps(report, indent=2,
                                            sort_keys=True) + "\n")
    print(f"bench sweep: cold={cold['wall_seconds']:6.2f}s "
          f"({cold['cells_per_second']:.2f} cells/s) "
          f"warm={warm['wall_seconds']:6.2f}s "
          f"({warm['cells_per_second']:.2f} cells/s) "
          f"speedup={speedup:.1f}x "
          f"stage1={warm['stage1']['hits']} hit(s)/"
          f"{warm['stage1']['misses']} miss(es)")
    print(f"wrote {args.report}")
    for failure in failures:
        print(f"bench sweep: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
