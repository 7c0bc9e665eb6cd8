#!/usr/bin/env python
"""Paper-scale replay benchmark: throughput and peak RSS under a cap.

Captures the two fast Table 3 workloads at their default heaps (where
they actually collect), writes the traces as a *chunked* ``.npz``, and
then replays them in a fresh measured subprocess against a platform
configured with a ``--scale``-times heap (default 10x) using the
streaming trace reader:

* the subprocess runs under a hard ``RLIMIT_AS`` address-space cap, so
  a regression that materializes the whole event stream (or copies it)
  dies with ``MemoryError`` instead of quietly bloating CI;
* its peak RSS must stay below the scaled heap size itself — the heap
  buffer and mark bitmaps are ``np.zeros`` (``calloc``: pages commit
  on first touch) and replay only reads trace chunks one at a time,
  so resident memory must not grow with the *configured* heap;
* throughput (events/second through the batched kernels) and peak RSS
  land in ``BENCH_scale.json`` for trend tracking.

Exit status 0 on success.  Used by the CI ``bench-smoke`` job;
runnable locally with ``python scripts/bench_scale.py [report.json]``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

WORKLOADS = ("graphchi-als", "spark-km")
PLATFORM = "charon"
THREADS = 8
CHUNK_EVENTS = 4096
#: address-space headroom above the scaled heap for the interpreter,
#: numpy, and the trace file mapping
AS_HEADROOM_BYTES = 1 << 30


def capture(trace_path: Path) -> int:
    """Capture the workload traces at their default heaps; returns the
    event total."""
    from repro.experiments.runner import collect_run
    from repro.gcalgo.trace_io import save_traces_npz

    def all_traces():
        for name in WORKLOADS:
            for trace in collect_run(name).traces:
                yield trace

    return save_traces_npz(all_traces(), trace_path,
                           chunk_events=CHUNK_EVENTS)


def scaled_heap_bytes(scale: int) -> int:
    from repro.experiments.runner import default_heap_bytes

    return max(default_heap_bytes(name) for name in WORKLOADS) * scale


def measure(trace_path: str, heap_bytes: int, as_cap: int) -> None:
    """Subprocess body: replay the trace file at the scaled heap and
    print a JSON report to stdout."""
    import resource
    import time

    resource.setrlimit(resource.RLIMIT_AS, (as_cap, as_cap))

    def resident_bytes() -> int:
        # current VmRSS, not ru_maxrss: a forked child's ru_maxrss
        # inherits the parent's peak at fork time, so it would track
        # the capture process instead of this replay
        try:
            with open("/proc/self/status") as status:
                return int(status.read()
                           .split("VmRSS:")[1].split()[0]) * 1024
        except (OSError, IndexError, ValueError):
            return resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024

    from repro.config import default_config
    from repro.gcalgo.trace_io import load_manifest, stream_compiled
    from repro.heap.heap import JavaHeap
    from repro.platform import build_platform
    from repro.platform.fast_replay import make_replayer
    from repro.workloads.base import workload_klasses

    events = sum(entry["events"]
                 for entry in load_manifest(trace_path)["traces"])
    config = default_config().with_heap_bytes(heap_bytes)
    heap = JavaHeap(config.heap, klasses=workload_klasses())
    platform = build_platform(PLATFORM, config, heap)
    replayer = make_replayer(platform, threads=THREADS, mode="fast")
    started = time.perf_counter()
    result = replayer.replay_all(stream_compiled(trace_path))
    elapsed = time.perf_counter() - started
    peak_rss = resident_bytes()
    print(json.dumps({
        "events": events,
        "replay_seconds": elapsed,
        "events_per_second": events / elapsed,
        "replay_kernel": result.replay_kernel,
        "gc_wall_seconds": result.wall_seconds,
        "peak_rss_bytes": peak_rss,
    }))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", nargs="?",
                        default=str(REPO / "BENCH_scale.json"))
    parser.add_argument("--scale", type=int, default=10,
                        help="heap scale factor for the replay side")
    parser.add_argument("--measure", nargs=3, metavar=("TRACE",
                        "HEAP_BYTES", "AS_CAP"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        trace_path, heap_bytes, as_cap = args.measure
        measure(trace_path, int(heap_bytes), int(as_cap))
        return

    heap_bytes = scaled_heap_bytes(args.scale)
    as_cap = heap_bytes + AS_HEADROOM_BYTES
    with tempfile.TemporaryDirectory(prefix="bench-scale-") as directory:
        trace_path = Path(directory) / "scale.gctrace.npz"
        events = capture(trace_path)
        if not events:
            sys.exit("bench scale: capture produced zero events")
        process = subprocess.run(
            [sys.executable, __file__, "--measure", str(trace_path),
             str(heap_bytes), str(as_cap)],
            cwd=REPO, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if process.returncode != 0:
            print(process.stdout)
            sys.exit(f"bench scale: measured replay failed under the "
                     f"{as_cap / (1 << 30):.1f} GiB address-space cap "
                     f"(exit {process.returncode})")
        measured = json.loads(process.stdout.strip().splitlines()[-1])

    if measured["events"] != events:
        sys.exit(f"bench scale: subprocess saw {measured['events']} "
                 f"events, parent captured {events}")
    if measured["replay_kernel"] in ("", "event", "mixed"):
        sys.exit(f"bench scale: replay fell back to "
                 f"{measured['replay_kernel']!r}")
    if measured["peak_rss_bytes"] >= heap_bytes:
        sys.exit(f"bench scale: peak RSS "
                 f"{measured['peak_rss_bytes'] / (1 << 20):.0f} MiB is "
                 f"not below the {heap_bytes / (1 << 20):.0f} MiB "
                 f"scaled heap — the lazy-heap/streaming path "
                 f"regressed")
    from bench_meta import bench_metadata

    report = {
        "benchmark": "scale",
        **bench_metadata(),
        "workloads": list(WORKLOADS),
        "platform": PLATFORM,
        "threads": THREADS,
        "heap_scale": args.scale,
        "heap_bytes": heap_bytes,
        "chunk_events": CHUNK_EVENTS,
        "address_space_cap_bytes": as_cap,
        **measured,
    }
    Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    print(f"bench scale: OK — {events} events at "
          f"{measured['events_per_second']:,.0f} events/s on a "
          f"{heap_bytes / (1 << 20):.0f} MiB heap, peak RSS "
          f"{measured['peak_rss_bytes'] / (1 << 20):.0f} MiB "
          f"(report: {args.report})")


if __name__ == "__main__":
    main()
