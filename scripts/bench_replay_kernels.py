#!/usr/bin/env python
"""Benchmark the replay kernels: event-by-event vs the fast path.

Replays the Spark test trace set (the same ``TinySpark`` workload the
golden equivalence tests use) on every timing platform through both
replayers and writes ``BENCH_replay.json``:

* per-platform events/sec for the event-by-event and fast paths,
* the wall-clock speedup between them,
* an equivalence verdict (integer counters exact, floats to 1e-9
  relative — the same contract the golden tests enforce).

Timing is best-of-N with the two paths interleaved, so scheduler noise
and cache warmth hit both sides alike; the compile step is excluded
(the pipeline compiles once per run).  The script exits non-zero if
any platform's results diverge, or if ``charon`` / ``cpu-hmc`` miss
the tentpole's >=5x floor.  Used by ``scripts/bench_smoke.py`` and the
CI ``bench-smoke`` job; runnable locally with
``python scripts/bench_replay_kernels.py [OUT.json]``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

PLATFORMS = ("ideal", "cpu-ddr4", "cpu-hmc", "charon",
             "charon-cpuside")
#: Platforms the tentpole's acceptance floor applies to.
FLOOR_PLATFORMS = ("charon", "cpu-hmc")
FLOOR = 5.0
THREADS = 8
REPEATS = 7
REL = 1e-9


def relative(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def equivalent(fast, slow) -> bool:
    ints = ((fast.dram_bytes, slow.dram_bytes),
            (fast.link_bytes, slow.link_bytes),
            (fast.tsv_bytes, slow.tsv_bytes),
            (fast.bitmap_cache_hits, slow.bitmap_cache_hits),
            (fast.bitmap_cache_accesses, slow.bitmap_cache_accesses))
    if any(a != b for a, b in ints):
        return False
    floats = [(fast.wall_seconds, slow.wall_seconds),
              (fast.residual_seconds, slow.residual_seconds),
              (fast.energy.host_j, slow.energy.host_j),
              (fast.energy.memory_j, slow.energy.memory_j),
              (fast.energy.charon_j, slow.energy.charon_j)]
    keys = set(fast.primitive_seconds) | set(slow.primitive_seconds)
    floats += [(fast.primitive_seconds.get(key, 0.0),
                slow.primitive_seconds.get(key, 0.0)) for key in keys]
    return all(relative(a, b) <= REL for a, b in floats)


def main() -> int:
    from repro.platform.fast_replay import FastTraceReplayer
    from repro.platform.replay import TraceReplayer

    from tests.conftest import TinySpark, platform_for

    out = Path(sys.argv[1]) if len(sys.argv) > 1 \
        else REPO / "BENCH_replay.json"
    run = TinySpark().run()
    traces = run.traces
    events = sum(len(trace.events) for trace in traces)

    from bench_meta import bench_metadata

    report = {"workload": "spark-bs (TinySpark test trace set)",
              "gc_events": events, "threads": THREADS,
              "repeats": REPEATS, "platforms": {},
              **bench_metadata()}
    failures = []
    for name in PLATFORMS:
        # Equivalence first (fresh platforms, single replay each).
        slow_result = TraceReplayer(
            platform_for(name)[0], threads=THREADS).replay_all(traces)
        fast_result = FastTraceReplayer(
            platform_for(name)[0], threads=THREADS).replay_all(traces)
        equal = equivalent(fast_result, slow_result)
        # Then timing: interleaved best-of-N on fresh platforms.
        best_event = best_fast = float("inf")
        for _ in range(REPEATS):
            replayer = TraceReplayer(platform_for(name)[0],
                                     threads=THREADS)
            start = time.perf_counter()
            replayer.replay_all(traces)
            best_event = min(best_event, time.perf_counter() - start)
            replayer = FastTraceReplayer(platform_for(name)[0],
                                         threads=THREADS)
            start = time.perf_counter()
            replayer.replay_all(traces)
            best_fast = min(best_fast, time.perf_counter() - start)
        speedup = best_event / best_fast
        report["platforms"][name] = {
            "kernel": fast_result.replay_kernel,
            "event_seconds": best_event,
            "fast_seconds": best_fast,
            "event_events_per_sec": events / best_event,
            "fast_events_per_sec": events / best_fast,
            "speedup": speedup,
            "equivalent": equal,
        }
        print(f"{name:15s} {fast_result.replay_kernel:14s} "
              f"event={best_event * 1e3:7.2f}ms "
              f"fast={best_fast * 1e3:7.2f}ms "
              f"speedup={speedup:5.1f}x "
              f"equivalence={'ok' if equal else 'FAILED'}")
        if not equal:
            failures.append(f"{name}: fast path diverged from "
                            f"event-by-event replay")
        if name in FLOOR_PLATFORMS and speedup < FLOOR:
            failures.append(f"{name}: speedup {speedup:.1f}x is below "
                            f"the {FLOOR:.0f}x floor")

    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    for failure in failures:
        print(f"bench replay: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
