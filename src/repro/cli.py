"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the workloads, platforms and exhibits available;
* ``run WORKLOAD [--platform P] [--heap-mb N] [--threads T]`` — run a
  workload and replay its GC trace on one platform;
* ``compare WORKLOAD`` — replay one workload on every platform;
* ``figure N`` / ``table N`` — regenerate a paper exhibit;
* ``ablation NAME`` — run one of the ablation studies;
* ``trace WORKLOAD OUT.json`` / ``replay IN.json`` — capture a GC
  trace to disk (``.npz`` for the binary columnar format) and replay
  it later on any platform (``--mode event`` replays it through the
  event-by-event oracle instead of the platform's replay kernel);
* ``cache stats|path|clear`` — the trace and stage-1 product cache;
* ``report WORKLOAD`` — a zsim-style Charon device statistics dump;
* ``stats WORKLOAD`` — the unified metric registry for one replay
  (table, JSON snapshot, or CSV);
* ``timeline WORKLOAD`` — a Chrome-trace (Perfetto-loadable) span
  timeline of the replay's simulated GC pauses.

``--out-dir DIR`` on the exhibit commands writes the rendered output
*and* a provenance manifest (config hashes, cache hits, versions) into
``DIR``; ``REPRO_TRACE_OUT``/``REPRO_METRICS_OUT`` dump a Chrome trace
/ metric snapshot at exit from any command.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.config import REPLAY_MODES, default_config
from repro.experiments import ablations, figures, tables
from repro.experiments.report import render_table
from repro.experiments.runner import (collect_run, compiled_run_traces,
                                      replay_grid, replay_platform)
from repro.gcalgo.trace import Primitive
from repro.gcalgo.trace_io import load_traces, save_traces
from repro.obs import provenance
from repro.obs.tracer import get_tracer, install_env_exporters
from repro.platform.factory import PLATFORM_NAMES, build_platform
from repro.workloads.registry import WORKLOAD_NAMES

FIGURES = {
    "2": figures.figure2,
    "4": figures.figure4,
    "12": figures.figure12,
    "13": figures.figure13,
    "14": figures.figure14,
    "15": figures.figure15,
    "16": figures.figure16,
    "17": figures.figure17,
}

TABLES = {
    "1": tables.table1,
    "2": tables.table2,
    "3": tables.table3,
    "4": tables.table4,
}

ABLATIONS = {
    "bitmap-cache": ablations.bitmap_cache_ablation,
    "scan-push-placement": ablations.scan_push_placement_ablation,
    "unit-count": ablations.unit_count_sweep,
    "dispatch-overhead": ablations.dispatch_overhead_sweep,
    "topology": ablations.topology_ablation,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Charon (MICRO-52 2019) reproduction driver")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="available workloads/platforms/"
                                     "exhibits")

    run = commands.add_parser("run", help="run one workload on one "
                                          "platform")
    run.add_argument("workload", choices=WORKLOAD_NAMES)
    run.add_argument("--platform", choices=PLATFORM_NAMES,
                     default="charon")
    run.add_argument("--heap-mb", type=int, default=None)
    run.add_argument("--threads", type=int, default=None)
    run.add_argument("--trace-out", default=None,
                     help="write a Chrome-trace span timeline of the "
                          "replay to this file")
    run.add_argument("--out-dir", default=None,
                     help="write the output and a provenance manifest "
                          "into this directory")

    compare = commands.add_parser("compare", help="one workload, all "
                                                  "platforms")
    compare.add_argument("workload", choices=WORKLOAD_NAMES)
    compare.add_argument("--heap-mb", type=int, default=None)
    compare.add_argument("--jobs", type=int, default=None,
                         help="replay platforms in N processes "
                              "(default REPRO_JOBS or 1)")
    compare.add_argument("--out-dir", default=None,
                         help="write the table and a provenance "
                              "manifest into this directory")

    figure = commands.add_parser("figure", help="regenerate a paper "
                                                "figure")
    figure.add_argument("number", choices=sorted(FIGURES))
    figure.add_argument("--workloads", nargs="*", default=None,
                        choices=WORKLOAD_NAMES)
    figure.add_argument("--out-dir", default=None,
                        help="write the table and a provenance "
                             "manifest into this directory")

    table = commands.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", choices=sorted(TABLES))
    table.add_argument("--out-dir", default=None,
                       help="write the table and a provenance "
                            "manifest into this directory")

    ablation = commands.add_parser("ablation", help="run an ablation "
                                                    "study")
    ablation.add_argument("name", choices=sorted(ABLATIONS))
    ablation.add_argument("--workloads", nargs="*", default=None,
                          choices=WORKLOAD_NAMES)
    ablation.add_argument("--out-dir", default=None,
                          help="write the table and a provenance "
                               "manifest into this directory")

    trace = commands.add_parser("trace", help="capture a workload's GC "
                                              "trace to a file")
    trace.add_argument("workload", choices=WORKLOAD_NAMES)
    trace.add_argument("output")
    trace.add_argument("--heap-mb", type=int, default=None)

    replay = commands.add_parser("replay", help="replay a captured "
                                                "trace file")
    replay.add_argument("input")
    replay.add_argument("--platform", choices=PLATFORM_NAMES,
                        default="charon")
    replay.add_argument("--threads", type=int, default=None)
    replay.add_argument("--mode", choices=REPLAY_MODES, default="fast",
                        help="fast: the platform's replay kernel; "
                             "event: event-by-event replay (the "
                             "golden oracle)")
    replay.add_argument("--distributed", action="store_true",
                        help="use the distributed (per-cube) "
                             "TLB/bitmap-cache Charon organisation")

    cache = commands.add_parser("cache", help="inspect or clear the "
                                              "content-addressed trace "
                                              "and stage-1 cache")
    cache.add_argument("action", choices=("path", "stats", "clear"))
    cache.add_argument("--dir", default=None,
                       help="cache directory (default "
                            "$REPRO_TRACE_CACHE)")

    report = commands.add_parser("report", help="Charon device "
                                                "statistics for a run")
    report.add_argument("workload", choices=WORKLOAD_NAMES)

    stats = commands.add_parser("stats", help="unified metric registry "
                                              "for one replay")
    stats.add_argument("workload", choices=WORKLOAD_NAMES)
    stats.add_argument("--platform", choices=PLATFORM_NAMES,
                       default="charon")
    stats.add_argument("--heap-mb", type=int, default=None)
    stats.add_argument("--threads", type=int, default=None)
    stats.add_argument("--format", choices=("table", "json", "csv"),
                       default="table")

    sweep = commands.add_parser(
        "sweep", help="run or monitor a (journaled) replay_grid sweep")
    sweep.add_argument("action", choices=("status", "run"))
    sweep.add_argument("--journal", default=None,
                       help="journal directory (default "
                            "$REPRO_SHARD_JOURNAL)")
    sweep.add_argument("--platforms", default=None,
                       help="comma-separated platform subset for "
                            "'run' (default: all)")
    sweep.add_argument("--workloads", default=None,
                       help="comma-separated workload subset for "
                            "'run' (default: all Table 3 workloads)")
    sweep.add_argument("--heap-mb", type=int, default=None)
    sweep.add_argument("--threads", type=int, default=None)
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes for 'run', forked "
                            "per sweep (default $REPRO_JOBS)")
    sweep.add_argument("--format", choices=("table", "json"),
                       default="table")
    sweep.add_argument("--watch", action="store_true",
                       help="redraw until the sweep completes")
    sweep.add_argument("--interval", type=float, default=2.0,
                       help="seconds between --watch redraws")
    sweep.add_argument("--verbose", action="store_true",
                       help="list every shard, not just the summary")

    top = commands.add_parser(
        "top", help="curses-free live view of a journaled sweep "
                    "(active shards, rates, ETA)")
    top.add_argument("--journal", default=None,
                     help="journal directory (default "
                          "$REPRO_SHARD_JOURNAL)")
    top.add_argument("--interval", type=float, default=2.0)
    top.add_argument("--once", action="store_true",
                     help="print one frame and exit (scripts/tests)")

    timeline = commands.add_parser(
        "timeline", help="Chrome-trace span timeline of a replay "
                         "(load in Perfetto / chrome://tracing)")
    timeline.add_argument("workload", choices=WORKLOAD_NAMES)
    timeline.add_argument("--platform", choices=PLATFORM_NAMES,
                          default="charon")
    timeline.add_argument("--heap-mb", type=int, default=None)
    timeline.add_argument("--threads", type=int, default=None)
    timeline.add_argument("--out", default=None,
                          help="output file (default "
                               "<workload>-<platform>-timeline.json)")

    fuzz = commands.add_parser(
        "fuzz", help="differential GC fuzzing with the reachability "
                     "oracle")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="first seed (default 0)")
    fuzz.add_argument("--iterations", "--seeds", type=int, default=25,
                      dest="iterations",
                      help="number of consecutive seeds to run")
    fuzz.add_argument("--collector", action="append", default=None,
                      choices=["minor", "major", "sweep", "g1",
                               "concurrent", "all"],
                      help="restrict to one collector (repeatable; "
                           "'all' or default: every mode, "
                           "cross-checked)")
    fuzz.add_argument("--ops", type=int, default=None,
                      help="schedule length override")
    fuzz.add_argument("--min-step-coverage", type=float, default=0.0,
                      help="fail unless every collector executed at "
                           "least this fraction of its applicable "
                           "schedule steps (e.g. 0.9)")
    fuzz.add_argument("--replay", default=None, metavar="PATH",
                      help="replay a JSON reproducer instead of "
                           "generating schedules")
    fuzz.add_argument("--kernels", action="store_true",
                      help="compare scalar vs fast heap kernels "
                           "instead of cross-collector live graphs: "
                           "every seed must produce identical trace "
                           "event streams and byte-identical heaps "
                           "under both kernel modes")
    fuzz.add_argument("--shrink", action="store_true",
                      help="minimize a failing schedule and write a "
                           "reproducer file")
    fuzz.add_argument("--reproducer", default=None,
                      help="reproducer path (default "
                           "fuzz-repro-<seed>.json)")
    return parser


def _cmd_list() -> str:
    lines = ["workloads:"]
    lines += [f"  {name}" for name in WORKLOAD_NAMES]
    lines.append("platforms:")
    lines += [f"  {name}" for name in PLATFORM_NAMES]
    lines.append(f"figures: {', '.join(sorted(FIGURES))}")
    lines.append(f"tables:  {', '.join(sorted(TABLES))}")
    lines.append(f"ablations: {', '.join(sorted(ABLATIONS))}")
    return "\n".join(lines)


def _publish(out_dir: str, command: str, filename: str,
             text: str) -> str:
    """Write ``text`` and the session's provenance manifest into
    ``out_dir``; returns a one-line note for the console."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    output_path = directory / filename
    output_path.write_text(text + "\n")
    manifest = provenance.write_manifest(directory, command=command,
                                         outputs=[filename])
    return f"\nwrote {output_path} (+ {manifest.name})"


def _cmd_run(args) -> str:
    heap_bytes = args.heap_mb * (1 << 20) if args.heap_mb else None
    tracer = get_tracer()
    if args.trace_out:
        tracer.enable()
    run = collect_run(args.workload, heap_bytes=heap_bytes)
    result = replay_platform(args.platform, args.workload,
                             heap_bytes=heap_bytes,
                             threads=args.threads)
    lines = [
        f"{args.workload}: {run.minor_count} minor / "
        f"{run.major_count} major GCs, "
        f"{run.allocated_bytes / 2**20:.1f} MB allocated",
        f"platform {args.platform}: GC wall "
        f"{result.wall_seconds * 1e3:.3f} ms, energy "
        f"{result.energy.total_j * 1e3:.2f} mJ, bandwidth "
        f"{result.utilized_bandwidth / 1e9:.1f} GB/s",
    ]
    for primitive in Primitive:
        seconds = result.primitive_seconds.get(primitive)
        if seconds:
            lines.append(f"  {primitive.value:13s} "
                         f"{seconds * 1e3:8.3f} ms work")
    lines.append(f"  {'other':13s} "
                 f"{result.residual_seconds * 1e3:8.3f} ms work")
    if args.trace_out:
        path = tracer.write_chrome(args.trace_out)
        lines.append(f"chrome trace: {path} ({len(tracer)} spans)")
    return "\n".join(lines)


def _cmd_compare(args) -> str:
    heap_bytes = args.heap_mb * (1 << 20) if args.heap_mb else None
    grid = replay_grid(PLATFORM_NAMES, [args.workload],
                       heap_bytes=heap_bytes, processes=args.jobs)
    rows = []
    baseline = None
    for platform in PLATFORM_NAMES:
        result = grid[(platform, args.workload)]
        if baseline is None:
            baseline = result.wall_seconds
        rows.append({
            "platform": platform,
            "gc_ms": round(result.wall_seconds * 1e3, 3),
            "speedup": round(baseline / result.wall_seconds, 2),
            "energy_mj": round(result.energy.total_j * 1e3, 2),
            "gbps": round(result.utilized_bandwidth / 1e9, 1),
        })
    return render_table(rows, title=f"{args.workload} across platforms")


def _cmd_replay(args) -> str:
    from repro.gcalgo.columnar import compile_traces
    from repro.gcalgo.trace_io import load_manifest, stream_compiled
    from repro.heap.heap import JavaHeap
    from repro.platform import FastTraceReplayer, make_replayer
    from repro.workloads.base import workload_klasses

    binary = args.input.endswith(".npz")
    if binary:
        # Sizing decisions need only the manifest; the event stream is
        # replayed through the chunked generator reader, one trace in
        # RAM at a time.
        entries = load_manifest(args.input)["traces"]
        traces = None
        heap_bytes = max((entry.get("heap_bytes", 0)
                          for entry in entries), default=0) \
            or 16 * (1 << 20)
        count = len(entries)
    else:
        traces = load_traces(args.input)
        heap_bytes = max((t.heap_bytes for t in traces), default=0) \
            or 16 * (1 << 20)
        count = len(traces)
    config = default_config().with_heap_bytes(heap_bytes)
    if args.distributed:
        config = config.with_distributed_charon(True)
    heap = JavaHeap(config.heap, klasses=workload_klasses())
    platform = build_platform(args.platform, config, heap)
    replayer = make_replayer(platform, threads=args.threads,
                             mode=args.mode)
    if isinstance(replayer, FastTraceReplayer):
        feed = (stream_compiled(args.input) if binary
                else compile_traces(traces))
        path_note = "fast path"
    else:
        feed = (traces if traces is not None else
                (t.to_trace() for t in stream_compiled(args.input)))
        path_note = "event-by-event"
    result = replayer.replay_all(feed)
    return (f"replayed {count} traces on {args.platform} "
            f"({path_note}): "
            f"{result.wall_seconds * 1e3:.3f} ms, "
            f"{result.energy.total_j * 1e3:.2f} mJ, "
            f"{result.utilized_bandwidth / 1e9:.1f} GB/s")


def _cmd_cache(args) -> str:
    from repro.experiments import store

    directory = store.resolve(args.dir)
    if args.action == "path":
        return (str(directory) if directory is not None else
                "cache disabled (set REPRO_TRACE_CACHE or --dir)")
    if args.action == "clear":
        counts = [(ns.noun, ns.clear(directory)) for ns in store.CACHES]
        return "removed " + ", ".join(
            f"{n} {noun} entr{'y' if n == 1 else 'ies'}"
            for noun, n in counts)
    lines = [] if directory is None else [str(directory)]
    for namespace in store.CACHES:
        entries = namespace.entries(directory)
        if entries:
            total = sum(path.stat().st_size for path in entries)
            lines.append(f"{namespace.noun}: {len(entries)} entries, "
                         f"{total / 2**20:.2f} MB")
            lines += [f"  {path.name}  "
                      f"{path.stat().st_size / 2**10:.1f} KB"
                      for path in entries]
        lines.append(namespace.stats_line())
    return "\n".join(lines)


def _cmd_report(args) -> str:
    from repro.core.report import full_report
    from repro.heap.heap import JavaHeap
    from repro.platform import FastTraceReplayer
    from repro.workloads.base import workload_klasses
    from repro.experiments.runner import workload_config

    config = workload_config(args.workload)
    heap = JavaHeap(config.heap, klasses=workload_klasses())
    platform = build_platform("charon", config, heap)
    FastTraceReplayer(platform).replay_all(
        compiled_run_traces(args.workload))
    return full_report(platform.device)


def _cmd_stats(args) -> str:
    from repro.experiments.runner import workload_config
    from repro.heap.heap import JavaHeap
    from repro.obs.adapters import (cache_metrics, device_metrics,
                                    heap_kernel_metrics, hmc_metrics,
                                    replay_kernel_metrics,
                                    timing_metrics)
    from repro.obs.export import metrics_csv, metrics_snapshot
    from repro.obs.metrics import MetricsRegistry
    from repro.platform import FastTraceReplayer
    from repro.workloads.base import workload_klasses

    heap_bytes = args.heap_mb * (1 << 20) if args.heap_mb else None
    config = workload_config(args.workload, heap_bytes)
    heap = JavaHeap(config.heap, klasses=workload_klasses())
    platform = build_platform(args.platform, config, heap)
    result = FastTraceReplayer(platform, threads=args.threads).replay_all(
        compiled_run_traces(args.workload, heap_bytes))

    registry = MetricsRegistry()
    timing_metrics(registry, result, workload=args.workload)
    replay_kernel_metrics(registry)
    heap_kernel_metrics(registry)
    cache_metrics(registry)
    if platform.device is not None:
        device_metrics(registry, platform.device)
    if platform.hmc is not None:
        hmc_metrics(registry, platform.hmc)
    if args.format == "json":
        return json.dumps(metrics_snapshot(registry), indent=2,
                          sort_keys=True)
    if args.format == "csv":
        return metrics_csv(registry)
    rows = []
    for sample in registry.samples():
        if sample["kind"] == "histogram":
            # percentile() answers None on an empty histogram — keep
            # the sentinel visible instead of faking a 0.
            p99 = ("n/a" if sample["p99"] is None
                   else f"{sample['p99']:.4g}")
            value = (f"n={sample['count']} mean={sample['mean']:.4g} "
                     f"p99={p99}")
        else:
            value = f"{sample['value']:.6g}"
        labels = ";".join(f"{key}={val}" for key, val
                          in sorted(sample["labels"].items()))
        rows.append({"metric": sample["metric"],
                     "kind": sample["kind"],
                     "labels": labels, "value": value})
    return render_table(
        rows, title=f"{args.workload} on {args.platform}")


def _cmd_sweep(args) -> int:
    """``repro sweep run`` executes a grid sweep through
    ``replay_grid`` (journaled when a journal is configured, on a fork
    pool made for the sweep when ``--jobs`` exceeds 1);
    ``repro sweep status [--watch]`` is the progress monitor's view of
    a journaled sweep (table or the shared JSON serializer)."""
    import time as time_mod

    from repro.experiments import progress, shard_journal

    if args.action == "run":
        from repro.experiments.store import CACHES
        from repro.workloads.registry import TABLE3_WORKLOADS

        platforms = (args.platforms.split(",") if args.platforms
                     else list(PLATFORM_NAMES))
        workloads = (args.workloads.split(",") if args.workloads
                     else list(TABLE3_WORKLOADS))
        heap_bytes = args.heap_mb * (1 << 20) if args.heap_mb else None
        grid = replay_grid(platforms, workloads,
                           heap_bytes=heap_bytes, threads=args.threads,
                           processes=args.jobs, journal=args.journal)
        for (platform, workload), result in grid.items():
            print(f"{platform:18s} {workload:16s} "
                  f"{result.wall_seconds * 1e3:10.3f} ms  "
                  f"{result.energy.total_j * 1e3:8.2f} mJ")
        for namespace in CACHES:
            print(namespace.stats_line())
        return 0

    journal = shard_journal.journal_dir(args.journal)
    if journal is None:
        print("sweep: no journal (pass --journal or set "
              f"{shard_journal.REPRO_SHARD_JOURNAL})", file=sys.stderr)
        return 2
    while True:
        snapshot = progress.progress_snapshot(journal)
        if args.format == "json":
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        else:
            print(progress.format_status(snapshot,
                                         verbose=args.verbose))
        if not args.watch:
            return 0 if snapshot.get("available") else 1
        if snapshot.get("available") \
                and snapshot["shards_done"] == snapshot["shards_total"]:
            return 0
        time_mod.sleep(args.interval)


def _cmd_top(args) -> int:
    """``repro top``: redraw the whole one-screen sweep view (ANSI
    clear, no curses) until the sweep completes."""
    import time as time_mod

    from repro.experiments import progress, shard_journal

    journal = shard_journal.journal_dir(args.journal)
    if journal is None:
        print("top: no journal (pass --journal or set "
              f"{shard_journal.REPRO_SHARD_JOURNAL})", file=sys.stderr)
        return 2
    while True:
        snapshot = progress.progress_snapshot(journal)
        frame = progress.format_top(snapshot)
        if args.once:
            print(frame)
            return 0 if snapshot.get("available") else 1
        print("\033[2J\033[H" + frame, flush=True)
        if snapshot.get("available") \
                and snapshot["shards_done"] == snapshot["shards_total"]:
            return 0
        time_mod.sleep(args.interval)


def _cmd_timeline(args) -> str:
    heap_bytes = args.heap_mb * (1 << 20) if args.heap_mb else None
    tracer = get_tracer()
    tracer.enable()
    collect_run(args.workload, heap_bytes=heap_bytes)
    result = replay_platform(args.platform, args.workload,
                             heap_bytes=heap_bytes,
                             threads=args.threads)
    out = args.out or f"{args.workload}-{args.platform}-timeline.json"
    path = tracer.write_chrome(out)
    covered = tracer.span_seconds("gc")
    fraction = covered / result.wall_seconds if result.wall_seconds \
        else 1.0
    return (f"wrote {len(tracer)} spans to {path}\n"
            f"simulated GC time covered: {covered * 1e3:.3f} ms of "
            f"{result.wall_seconds * 1e3:.3f} ms "
            f"({fraction * 100:.1f}%)")


def _cmd_fuzz(args) -> int:
    from repro.config import default_fuzz_config
    from repro.fuzz import fuzz_seed
    from repro.fuzz.differential import compare_kernel_modes
    from repro.fuzz.shrink import (failure_predicate, shrink_schedule,
                                   write_reproducer)

    config = default_fuzz_config()
    if args.ops:
        config = config.with_ops(args.ops)
    collectors = config.collectors
    if args.collector and "all" not in args.collector:
        collectors = tuple(args.collector)
    if args.replay:
        from repro.errors import ReproError
        from repro.fuzz.shrink import replay_reproducer
        try:
            results = replay_reproducer(args.replay, config)
        except ReproError as error:
            print(f"fuzz: FAIL — reproducer {args.replay} still "
                  f"fails: {error}")
            return 1
        print(f"fuzz: ok — reproducer {args.replay} passes under "
              f"{len(results)} collector(s)")
        return 0
    run_one = compare_kernel_modes if args.kernels else fuzz_seed
    failures = 0
    infeasible = 0
    checked = 0
    executed_total = 0
    applicable_total = 0
    for seed in range(args.seed, args.seed + args.iterations):
        result = run_one(seed, config, collectors)
        if result.status == "ok":
            checked += result.collections_checked
            coverage_note = ""
            counts = getattr(result, "step_counts", None)
            if counts:
                executed = sum(e for e, _ in counts.values())
                applicable = sum(a for _, a in counts.values())
                executed_total += executed
                applicable_total += applicable
                coverage_note = (f", steps {executed}/{applicable} "
                                 f"({result.step_coverage:.0%} worst)")
                if result.step_coverage < args.min_step_coverage:
                    failures += 1
                    worst = min(
                        counts,
                        key=lambda n: (counts[n][0] / counts[n][1]
                                       if counts[n][1] else 1.0))
                    print(f"seed {seed}: FAILED [coverage] "
                          f"{worst} executed "
                          f"{counts[worst][0]}/{counts[worst][1]} "
                          f"schedule steps, below "
                          f"{args.min_step_coverage:.0%}")
                    continue
            print(f"seed {seed}: ok ({result.ops} ops, "
                  f"{result.collections_checked} collections checked, "
                  f"{result.live_objects} live objects"
                  f"{coverage_note})")
            continue
        if result.status == "infeasible":
            infeasible += 1
            print(f"seed {seed}: infeasible ({result.detail})")
            continue
        failures += 1
        failure = result.failure
        print(f"seed {seed}: FAILED [{failure.collector}] "
              f"{failure.message}")
        if args.shrink and not args.kernels:
            fails = failure_predicate(collectors, config)
            minimized = shrink_schedule(failure.ops, fails,
                                        rounds=config.shrink_rounds)
            path = args.reproducer or f"fuzz-repro-{seed}.json"
            write_reproducer(path, minimized, seed, collectors,
                             failure.message, config)
            print(f"  minimized {len(failure.ops)} -> "
                  f"{len(minimized)} ops; reproducer written to "
                  f"{path}")
    verdict = "FAIL" if failures else "ok"
    coverage_line = ""
    if applicable_total:
        coverage_line = (f", {executed_total}/{applicable_total} "
                         f"schedule steps executed "
                         f"({executed_total / applicable_total:.0%})")
    print(f"fuzz: {verdict} — {args.iterations} seeds on "
          f"{'+'.join(collectors)}, {failures} failed, "
          f"{infeasible} infeasible, {checked} collections "
          f"oracle-checked{coverage_line}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    install_env_exporters()
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print(_cmd_list())
    elif args.command == "run":
        text = _cmd_run(args)
        if args.out_dir:
            text += _publish(args.out_dir, f"run {args.workload}",
                             f"run-{args.workload}.txt", text)
        print(text)
    elif args.command == "compare":
        text = _cmd_compare(args)
        if args.out_dir:
            text += _publish(args.out_dir, f"compare {args.workload}",
                             f"compare-{args.workload}.txt", text)
        print(text)
    elif args.command == "figure":
        generator = FIGURES[args.number]
        rows = generator(args.workloads) if args.workloads is not None \
            else generator()
        text = render_table(rows, title=f"Figure {args.number}")
        if args.out_dir:
            text += _publish(args.out_dir, f"figure {args.number}",
                             f"figure{args.number}.txt", text)
        print(text)
    elif args.command == "table":
        text = render_table(TABLES[args.number](),
                            title=f"Table {args.number}")
        if args.out_dir:
            text += _publish(args.out_dir, f"table {args.number}",
                             f"table{args.number}.txt", text)
        print(text)
    elif args.command == "ablation":
        generator = ABLATIONS[args.name]
        rows = generator(args.workloads) if args.workloads is not None \
            else generator()
        text = render_table(rows, title=f"Ablation: {args.name}")
        if args.out_dir:
            text += _publish(args.out_dir, f"ablation {args.name}",
                             f"ablation-{args.name}.txt", text)
        print(text)
    elif args.command == "trace":
        heap_bytes = args.heap_mb * (1 << 20) if args.heap_mb else None
        run = collect_run(args.workload, heap_bytes=heap_bytes)
        events = save_traces(run.traces, args.output)
        print(f"wrote {len(run.traces)} GC traces "
              f"({events} primitive events) to {args.output}")
    elif args.command == "replay":
        print(_cmd_replay(args))
    elif args.command == "cache":
        print(_cmd_cache(args))
    elif args.command == "report":
        print(_cmd_report(args))
    elif args.command == "stats":
        print(_cmd_stats(args))
    elif args.command == "sweep":
        return _cmd_sweep(args)
    elif args.command == "top":
        return _cmd_top(args)
    elif args.command == "timeline":
        print(_cmd_timeline(args))
    elif args.command == "fuzz":
        return _cmd_fuzz(args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
