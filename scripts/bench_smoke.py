#!/usr/bin/env python
"""Benchmark smoke: prove the trace cache makes replays capture-free.

Runs ``benchmarks/bench_fig12_speedup.py`` twice on a tiny two-workload
grid against a fresh cache directory:

1. the first run captures the workload traces and stores them in the
   content-addressed cache;
2. the second run sets ``REPRO_TRACE_CACHE_REQUIRE``, under which any
   cache miss raises instead of re-running a collector — so a passing
   second run *is* the proof of zero collector re-execution.  The
   session footer's cache tally is checked on top ("0 run(s)
   generated", at least one hit).

The second run also exports telemetry through ``REPRO_TRACE_OUT`` /
``REPRO_METRICS_OUT`` into ``$BENCH_SMOKE_ARTIFACTS`` (default
``bench-smoke-artifacts/``); the script then checks the Chrome trace
and metric snapshot are well-formed, and that every provenance
manifest the benchmarks published round-trips with config hashes that
match the trace-cache entry keys on disk.  CI uploads the artifact
directory and ``benchmarks/results/``.

Exit status 0 on success; any failure prints the offending pytest
output.  Used by the CI ``bench-smoke`` job; runnable locally with
``python scripts/bench_smoke.py``.
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SMOKE_WORKLOADS = "spark-km,graphchi-cc"
ARTIFACTS = Path(os.environ.get("BENCH_SMOKE_ARTIFACTS")
                 or REPO / "bench-smoke-artifacts")
TRACE_ARTIFACT = ARTIFACTS / "bench-smoke.trace.json"
METRICS_ARTIFACT = ARTIFACTS / "bench-smoke.metrics.json"


def run_bench(cache_dir: str, require: bool) -> str:
    env = dict(os.environ)
    env["REPRO_TRACE_CACHE"] = cache_dir
    env["REPRO_WORKLOADS"] = SMOKE_WORKLOADS
    env.pop("REPRO_TRACE_CACHE_REQUIRE", None)
    if require:
        env["REPRO_TRACE_CACHE_REQUIRE"] = "1"
        # The proving run also leaves telemetry behind for CI artifacts.
        ARTIFACTS.mkdir(parents=True, exist_ok=True)
        env["REPRO_TRACE_OUT"] = str(TRACE_ARTIFACT)
        env["REPRO_METRICS_OUT"] = str(METRICS_ARTIFACT)
    process = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         str(REPO / "benchmarks" / "bench_fig12_speedup.py")],
        cwd=REPO, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    label = "second (cache-required)" if require else "first (capture)"
    if process.returncode != 0:
        print(process.stdout)
        sys.exit(f"bench smoke: {label} run failed "
                 f"(exit {process.returncode})")
    print(f"bench smoke: {label} run passed")
    return process.stdout


def cache_tally(output: str) -> dict:
    match = re.search(r"trace cache: (\d+) hit\(s\), (\d+) miss\(es\), "
                      r"(\d+) stale, (\d+) store\(s\), (\d+) run\(s\) "
                      r"generated", output)
    if match is None:
        print(output)
        sys.exit("bench smoke: no trace-cache tally in pytest output")
    keys = ("hits", "misses", "stale", "stores", "generated")
    return dict(zip(keys, map(int, match.groups())))


def check_artifacts(cache: Path) -> None:
    """Validate the exported telemetry and the published manifests."""
    trace = json.loads(TRACE_ARTIFACT.read_text())
    complete = [e for e in trace if e.get("ph") == "X"]
    if not (isinstance(trace, list) and complete):
        sys.exit("bench smoke: Chrome trace artifact has no complete "
                 "spans")
    if not all("pid" in e and "tid" in e and "ts" in e
               for e in complete):
        sys.exit("bench smoke: Chrome trace artifact events are "
                 "missing pid/tid/ts fields")
    metrics = json.loads(METRICS_ARTIFACT.read_text())
    if not metrics.get("metrics"):
        sys.exit("bench smoke: metric snapshot artifact is empty")

    sys.path.insert(0, str(REPO / "src"))
    from repro.experiments.store import TRACES
    from repro.obs.provenance import load_manifest, round_trips

    smoke = set(SMOKE_WORKLOADS.split(","))
    keys = {path.stem for path in TRACES.entries(cache)}
    manifests = sorted(
        (REPO / "benchmarks" / "results").glob("*.manifest.json"))
    if not manifests:
        sys.exit("bench smoke: benchmarks published no provenance "
                 "manifests")
    checked = 0
    for path in manifests:
        if not round_trips(path):
            sys.exit(f"bench smoke: manifest {path.name} does not "
                     f"round-trip")
        for run in load_manifest(path).get("runs", ()):
            if run["workload"] not in smoke:
                continue  # a stale manifest from a full local session
            checked += 1
            if run["config_hash"] not in keys:
                sys.exit(f"bench smoke: manifest {path.name} records "
                         f"config hash {run['config_hash'][:12]}… with "
                         f"no matching trace-cache entry")
    if not checked:
        sys.exit("bench smoke: no manifest recorded the smoke "
                 "workloads")
    print(f"bench smoke: telemetry artifacts OK — "
          f"{len(complete)} spans, {len(metrics['metrics'])} metrics, "
          f"{checked} manifest run(s) matched to cache keys")


def run_replay_kernel_bench() -> None:
    """Run the replay-kernel benchmark and validate its report.

    ``bench_replay_kernels.py`` exits non-zero on an equivalence
    failure or a sub-5x charon/cpu-hmc speedup; on success the report
    must carry a verdict and speedup for every platform.
    """
    report_path = ARTIFACTS / "BENCH_replay.json"
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    process = subprocess.run(
        [sys.executable, str(REPO / "scripts" /
                             "bench_replay_kernels.py"),
         str(report_path)],
        cwd=REPO, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if process.returncode != 0:
        print(process.stdout)
        sys.exit(f"bench smoke: replay-kernel benchmark failed "
                 f"(exit {process.returncode})")
    report = json.loads(report_path.read_text())
    platforms = report.get("platforms", {})
    expected = {"ideal", "cpu-ddr4", "cpu-hmc", "charon",
                "charon-cpuside"}
    if set(platforms) != expected:
        sys.exit(f"bench smoke: BENCH_replay.json covers "
                 f"{sorted(platforms)}, expected {sorted(expected)}")
    broken = [name for name, row in platforms.items()
              if not row["equivalent"] or row["speedup"] <= 0]
    if broken:
        sys.exit(f"bench smoke: BENCH_replay.json records bad rows "
                 f"for {broken}")
    print(f"bench smoke: replay-kernel report OK — " + ", ".join(
        f"{name} {platforms[name]['speedup']:.1f}x"
        for name in sorted(platforms)))


def run_collect_bench() -> None:
    """Run the collect-kernel benchmark and validate its report.

    ``bench_collect.py`` exits non-zero on a scalar/fast divergence or
    a combined minor+major generation speedup below the 3x floor; on
    success the report must carry an equivalence verdict and a speedup
    for every collector scenario.
    """
    report_path = ARTIFACTS / "BENCH_collect.json"
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    process = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "bench_collect.py"),
         str(report_path)],
        cwd=REPO, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if process.returncode != 0:
        print(process.stdout)
        sys.exit(f"bench smoke: collect-kernel benchmark failed "
                 f"(exit {process.returncode})")
    report = json.loads(report_path.read_text())
    scenarios = report.get("scenarios", {})
    expected = {"minor", "major", "sweep", "g1"}
    if set(scenarios) != expected:
        sys.exit(f"bench smoke: BENCH_collect.json covers "
                 f"{sorted(scenarios)}, expected {sorted(expected)}")
    broken = [name for name, row in scenarios.items()
              if not row["equivalent"] or row["speedup"] <= 0]
    if broken:
        sys.exit(f"bench smoke: BENCH_collect.json records bad rows "
                 f"for {broken}")
    combined = report.get("combined_minor_major_speedup", 0.0)
    if combined < report.get("floor", 3.0):
        sys.exit(f"bench smoke: combined minor+major speedup "
                 f"{combined:.1f}x is below the floor")
    print(f"bench smoke: collect-kernel report OK — " + ", ".join(
        f"{name} {scenarios[name]['speedup']:.1f}x"
        for name in sorted(scenarios))
        + f", combined minor+major {combined:.1f}x")


def run_scale_bench() -> None:
    """Run the paper-scale replay benchmark and validate its report.

    ``bench_scale.py`` replays chunk-streamed traces against a
    10x-scaled mmap-backed heap in a subprocess under a hard
    address-space cap and exits non-zero if peak RSS reaches the
    scaled heap size — the lazy-heap/streaming regression guard.
    """
    report_path = ARTIFACTS / "BENCH_scale.json"
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    process = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "bench_scale.py"),
         str(report_path)],
        cwd=REPO, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if process.returncode != 0:
        print(process.stdout)
        sys.exit(f"bench smoke: scale benchmark failed "
                 f"(exit {process.returncode})")
    report = json.loads(report_path.read_text())
    if report.get("events", 0) <= 0 \
            or report.get("events_per_second", 0) <= 0:
        sys.exit(f"bench smoke: BENCH_scale.json records no replay "
                 f"throughput: {report}")
    if report.get("peak_rss_bytes", 0) >= report.get("heap_bytes", 0):
        sys.exit("bench smoke: BENCH_scale.json peak RSS reached the "
                 "scaled heap size")
    print(f"bench smoke: scale report OK — "
          f"{report['events_per_second']:,.0f} events/s, peak RSS "
          f"{report['peak_rss_bytes'] / (1 << 20):.0f} MiB on a "
          f"{report['heap_bytes'] / (1 << 20):.0f} MiB heap")


def run_sweep_bench() -> None:
    """Run the warm-sweep benchmark and validate its report.

    ``bench_sweep.py`` runs the same grid cold (empty caches, serial)
    and warm (populated caches, 2-process fork pool, cache-require
    armed) and exits non-zero below the 2x warm-over-cold floor, on
    any stage-1 miss during the warm run, or if the two result sets
    are not bit-exact.
    """
    report_path = ARTIFACTS / "BENCH_sweep.json"
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    process = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "bench_sweep.py"),
         str(report_path)],
        cwd=REPO, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if process.returncode != 0:
        print(process.stdout)
        sys.exit(f"bench smoke: sweep benchmark failed "
                 f"(exit {process.returncode})")
    report = json.loads(report_path.read_text())
    if report.get("speedup", 0.0) < report.get("floor", 2.0):
        sys.exit(f"bench smoke: BENCH_sweep.json warm speedup "
                 f"{report.get('speedup', 0.0):.1f}x is below the "
                 f"floor")
    if not report.get("bit_exact"):
        sys.exit("bench smoke: BENCH_sweep.json warm results are not "
                 "bit-exact")
    warm = report.get("warm", {}).get("stage1", {})
    if warm.get("misses", 1) != 0 or warm.get("hits", 0) <= 0:
        sys.exit(f"bench smoke: warm sweep stage-1 tally is not "
                 f"all-hit: {warm}")
    if not report.get("git_sha") or not report.get("generated_at"):
        sys.exit("bench smoke: BENCH_sweep.json is missing the "
                 "git_sha/generated_at provenance stamp")
    print(f"bench smoke: sweep report OK — warm "
          f"{report['speedup']:.1f}x over cold, "
          f"{warm['hits']} stage-1 hit(s), 0 miss(es), bit-exact")


_PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eEnNaIf]+$")

_LIVE_SWEEP_DRIVER = """
import sys
from repro.obs.tracer import install_env_exporters
install_env_exporters()
from repro.experiments.runner import replay_grid
replay_grid(("ideal", "cpu-ddr4", "cpu-hmc", "charon",
             "charon-cpuside"), ["graphchi-als"],
            journal=sys.argv[1])
"""


def _scrape(port: int, path: str) -> str:
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=5) as response:
        return response.read().decode("utf-8")


def run_live_observability_probe() -> None:
    """Drive a journaled sweep with the live endpoint armed.

    Polls ``/metrics`` and ``/progress`` while the sweep runs:
    the exposition text must parse line by line, the completion
    percentage must be monotone non-decreasing and reach 100%, and the
    run-event log (written into the artifact dir, which CI uploads)
    must carry the typed records the sweep emits.
    """
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    eventlog_path = ARTIFACTS / "bench-smoke.events.jsonl"
    eventlog_path.unlink(missing_ok=True)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_METRICS_PORT"] = str(port)
    env["REPRO_EVENTLOG"] = str(eventlog_path)
    with tempfile.TemporaryDirectory(prefix="live-sweep-") as temp:
        env["REPRO_TRACE_CACHE"] = str(Path(temp) / "cache")
        journal = Path(temp) / "journal"
        sweep = subprocess.Popen(
            [sys.executable, "-c", _LIVE_SWEEP_DRIVER, str(journal)],
            cwd=REPO, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        completions = []
        exposition_checked = False
        try:
            while True:
                finished = sweep.poll() is not None
                try:
                    body = _scrape(port, "/metrics")
                    bad = [line for line in body.splitlines()
                           if line and not line.startswith("#")
                           and not _PROM_LINE.match(line)]
                    if bad:
                        sys.exit(f"bench smoke: invalid exposition "
                                 f"line(s): {bad[:3]}")
                    if body.strip():
                        exposition_checked = True
                    if _scrape(port, "/healthz").strip() != "ok":
                        sys.exit("bench smoke: /healthz did not "
                                 "answer ok")
                    progress = json.loads(_scrape(port, "/progress"))
                    if progress.get("available"):
                        completions.append(progress["completion_pct"])
                except (urllib.error.URLError, OSError,
                        ConnectionError):
                    pass  # server not up yet (or already exiting)
                if finished:
                    break
                time.sleep(0.05)
        finally:
            output = sweep.communicate()[0]
        if sweep.returncode != 0:
            print(output)
            sys.exit(f"bench smoke: live sweep failed "
                     f"(exit {sweep.returncode})")
        if not exposition_checked:
            sys.exit("bench smoke: never scraped a non-empty "
                     "/metrics exposition mid-run")
        if not completions:
            sys.exit("bench smoke: /progress never reported an "
                     "active sweep")
        if completions != sorted(completions):
            sys.exit(f"bench smoke: completion % went backwards: "
                     f"{completions}")
        final = json.loads(
            (journal / "progress.json").read_text())
        if final["completion_pct"] != 100.0 \
                or final["shards_pending"]:
            sys.exit(f"bench smoke: sweep ended at "
                     f"{final['completion_pct']}% with "
                     f"{final['shards_pending']} pending shard(s)")

    sys.path.insert(0, str(REPO / "src"))
    from repro.obs.eventlog import read_events
    events = {record["event"] for record in read_events(eventlog_path)}
    missing = {"run_start", "gc_pause", "shard_claimed", "shard_done",
               "run_end"} - events
    if missing:
        sys.exit(f"bench smoke: run-event log is missing record "
                 f"type(s): {sorted(missing)}")
    print(f"bench smoke: live observability OK — "
          f"{len(completions)} /progress samples (monotone to 100%), "
          f"exposition valid, event log at {eventlog_path.name}")


def main() -> None:
    run_replay_kernel_bench()
    run_collect_bench()
    run_scale_bench()
    run_sweep_bench()
    run_live_observability_probe()
    with tempfile.TemporaryDirectory(prefix="trace-cache-") as cache:
        first = cache_tally(run_bench(cache, require=False))
        workloads = len(SMOKE_WORKLOADS.split(","))
        if first["generated"] != workloads or first["stores"] != workloads:
            sys.exit(f"bench smoke: first run should capture "
                     f"{workloads} workloads, tallied {first}")
        # Stage-1 products share the directory; count trace entries.
        sys.path.insert(0, str(REPO / "src"))
        from repro.experiments.store import TRACES
        entries = len(TRACES.entries(cache))
        if entries != workloads:
            sys.exit(f"bench smoke: expected {workloads} cache "
                     f"entries, found {entries}")
        second = cache_tally(run_bench(cache, require=True))
        if second["generated"] != 0 or second["misses"] != 0:
            sys.exit(f"bench smoke: second run re-executed a "
                     f"collector, tallied {second}")
        if second["hits"] < workloads:
            sys.exit(f"bench smoke: second run should hit the cache "
                     f"{workloads} times, tallied {second}")
        check_artifacts(Path(cache))
    print(f"bench smoke: OK — second run served {second['hits']} "
          f"cached trace set(s), zero collector re-execution")


if __name__ == "__main__":
    main()
