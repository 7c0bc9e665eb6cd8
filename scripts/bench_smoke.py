#!/usr/bin/env python
"""Benchmark smoke: prove the trace cache makes replays capture-free.

Runs ``python -m repro figure 12 --workloads spark-km graphchi-cc
--out-dir DIR`` twice against a fresh cache directory, and reads each
run's provenance manifest (``DIR/manifest.json``):

1. the first run must capture both workloads (its manifest's
   ``trace_cache`` tally: 2 generated, 2 stored; every ``runs[].cache``
   is ``generated``), leaving 2 trace entries in the cache;
2. the second run must serve both from the cache: 0 generated runs,
   0 misses, at least 2 hits, every ``runs[].cache`` a ``hit`` — the
   proof of zero collector re-execution.

The second run replays the Fig. 12 grid on a 2-process pool
(``REPRO_JOBS=2``) and exports telemetry through ``REPRO_OBS_OUT``
into ``$BENCH_SMOKE_ARTIFACTS`` (default ``bench-smoke-artifacts/``:
``trace.json`` and ``metrics.json``); the script then checks the
Chrome trace and metric snapshot are well-formed, that they carry one
``replay.wall_seconds`` row and one ``replay`` host span per grid cell
(the pool workers' telemetry reached the parent), that both manifests
round-trip with config hashes that match the trace-cache entry keys
on disk, and that the geomean row orders ``cpu-hmc`` < ``charon`` <
``ideal``.  CI uploads the artifact directory.

First, a live probe drives a journaled sweep with
``REPRO_METRICS_PORT`` and ``REPRO_OBS_OUT`` armed and scrapes its
``/metrics`` and ``/progress`` endpoints while it runs.

Speed numbers come from the benchmark ledger (``python3 bench/run.py``)
and the speed floors are tier-1 tests; this script checks behaviour
only.

Exit status 0 on success; any failure prints the offending command
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
SMOKE_WORKLOADS = ("spark-km", "graphchi-cc")
ARTIFACTS = Path(os.environ.get("BENCH_SMOKE_ARTIFACTS")
                 or REPO / "bench-smoke-artifacts")
TRACE_ARTIFACT = ARTIFACTS / "trace.json"
METRICS_ARTIFACT = ARTIFACTS / "metrics.json"
#: ``repro.experiments.figures.FIG12_PLATFORMS``: the grid's columns.
FIG12_PLATFORMS = ("cpu-ddr4", "cpu-hmc", "charon", "ideal")
#: The Chrome-trace pid of the host (wall-clock) domain.
HOST_PID = 1


def run_figure(cache_dir: str, out_dir: Path, pooled: bool) -> dict:
    """One ``repro figure 12`` run on the smoke grid; returns its
    provenance manifest."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    env["REPRO_TRACE_CACHE"] = cache_dir
    for name in ("REPRO_JOBS", "REPRO_OBS_OUT"):
        env.pop(name, None)
    if pooled:
        # The cached run replays on the pool and leaves its telemetry
        # behind for CI artifacts.
        ARTIFACTS.mkdir(parents=True, exist_ok=True)
        env["REPRO_OBS_OUT"] = str(ARTIFACTS)
        env["REPRO_JOBS"] = "2"
    process = subprocess.run(
        [sys.executable, "-m", "repro", "figure", "12", "--workloads",
         *SMOKE_WORKLOADS, "--out-dir", str(out_dir)],
        cwd=REPO, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    label = "second (cached)" if pooled else "first (capture)"
    if process.returncode != 0:
        print(process.stdout)
        sys.exit(f"bench smoke: {label} run failed "
                 f"(exit {process.returncode})")
    print(f"bench smoke: {label} run passed")
    return json.loads((out_dir / "manifest.json").read_text())


def run_caches(manifest: dict) -> list:
    """The ``runs[].cache`` of the smoke workloads' captures."""
    return [run["cache"] for run in manifest["runs"]
            if run["workload"] in SMOKE_WORKLOADS]


def check_geomean(out_dir: Path) -> None:
    """The Fig. 12 geomean row orders the platforms as the paper does
    (DDR4 < HMC < Charon < Ideal), with Charon's headline factor in
    the paper's neighbourhood and HMC alone a modest win."""
    lines = (out_dir / "figure12.txt").read_text().splitlines()
    header = lines[1].split()
    geo = dict(zip(header, lines[-1].split()))
    if geo.get("workload") != "geomean":
        sys.exit(f"bench smoke: figure12.txt ends in {lines[-1]!r}, "
                 f"not the geomean row")
    hmc, charon, ideal = (float(geo[name]) for name in
                          ("cpu-hmc", "charon", "ideal"))
    if not (1.0 < hmc < charon < ideal and 2.0 < charon < 6.0
            and hmc < 2.0):
        sys.exit(f"bench smoke: Fig. 12 geomean speedups out of "
                 f"order or range: {geo}")
    print(f"bench smoke: Fig. 12 geomean cpu-hmc {hmc}x < charon "
          f"{charon}x < ideal {ideal}x")


def check_artifacts(cache: Path, out_dirs: list) -> None:
    """Validate the exported telemetry and the runs' manifests."""
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
    smoke = set(SMOKE_WORKLOADS)
    cells = sorted((platform, workload) for platform in FIG12_PLATFORMS
                   for workload in smoke)
    walls = sorted((row["labels"]["platform"], row["labels"]["workload"])
                   for row in metrics["metrics"]
                   if row["metric"] == "replay.wall_seconds")
    if walls != cells:
        sys.exit(f"bench smoke: metric snapshot has replay.wall_seconds "
                 f"rows for {walls}, expected one per cell {cells}")
    replays = sorted((e["args"]["platform"], e["args"]["workload"])
                     for e in complete
                     if e["name"] == "replay" and e["pid"] == HOST_PID)
    if replays != cells:
        sys.exit(f"bench smoke: Chrome trace has replay spans for "
                 f"{replays}, expected one per cell {cells}")

    sys.path.insert(0, str(REPO / "src"))
    from repro.experiments.store import TRACES
    from repro.obs.provenance import load_manifest, round_trips

    keys = {path.stem for path in TRACES.entries(cache)}
    checked = 0
    for path in (directory / "manifest.json" for directory in out_dirs):
        if not round_trips(path):
            sys.exit(f"bench smoke: manifest {path.name} does not "
                     f"round-trip")
        for run in load_manifest(path).get("runs", ()):
            if run["workload"] not in smoke:
                continue
            checked += 1
            if run["config_hash"] not in keys:
                sys.exit(f"bench smoke: manifest {path.name} records "
                         f"config hash {run['config_hash'][:12]}… with "
                         f"no matching trace-cache entry")
    if not checked:
        sys.exit("bench smoke: no manifest recorded the smoke "
                 "workloads")
    print(f"bench smoke: telemetry artifacts OK — "
          f"{len(complete)} spans, {len(metrics['metrics'])} metrics "
          f"({len(cells)} pooled cells each counted once), "
          f"{checked} manifest run(s) matched to cache keys")


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
    the exposition text must parse line by line and the completion
    percentage must be monotone non-decreasing and reach 100%.  The
    sweep exports its telemetry through ``REPRO_OBS_OUT`` (into the
    artifact dir's ``live-sweep/``, which CI uploads): the Chrome
    trace must hold simulated ``gc`` spans, and the ``shard_journal``
    runs plus hits must cover every shard of the sweep manifest.
    """
    obs_out = ARTIFACTS / "live-sweep"
    for name in ("trace.json", "metrics.json"):
        (obs_out / name).unlink(missing_ok=True)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_METRICS_PORT"] = str(port)
    env["REPRO_OBS_OUT"] = str(obs_out)
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
        sys.path.insert(0, str(REPO / "src"))
        from repro.experiments.progress import progress_snapshot
        final = progress_snapshot(journal)
        if final["completion_pct"] != 100.0 \
                or final["shards_pending"]:
            sys.exit(f"bench smoke: sweep ended at "
                     f"{final['completion_pct']}% with "
                     f"{final['shards_pending']} pending shard(s)")

    gc_spans = [event for event in json.loads(
                    (obs_out / "trace.json").read_text())
                if event.get("cat") == "gc"]
    if not gc_spans:
        sys.exit("bench smoke: the live sweep's trace.json has no "
                 "gc spans")
    counters = {row["metric"]: row["value"] for row in json.loads(
                    (obs_out / "metrics.json").read_text())["metrics"]
                if not row["labels"]}
    covered = (counters.get("shard_journal.runs", 0)
               + counters.get("shard_journal.hits", 0))
    if covered != final["shards_total"]:
        sys.exit(f"bench smoke: shard_journal runs + hits = "
                 f"{covered:g}, the manifest names "
                 f"{final['shards_total']} shard(s)")
    print(f"bench smoke: live observability OK — "
          f"{len(completions)} /progress samples (monotone to 100%), "
          f"exposition valid, {len(gc_spans)} gc spans and "
          f"{covered:g} journaled shards in {obs_out.name}/")


def main() -> None:
    run_live_observability_probe()
    out_dirs = [ARTIFACTS / "fig12-capture", ARTIFACTS / "fig12-cached"]
    workloads = len(SMOKE_WORKLOADS)
    with tempfile.TemporaryDirectory(prefix="trace-cache-") as cache:
        manifest = run_figure(cache, out_dirs[0], pooled=False)
        first = manifest["trace_cache"]
        if first["generated"] != workloads or first["stores"] != workloads \
                or run_caches(manifest) != ["generated"] * workloads:
            sys.exit(f"bench smoke: first run should capture "
                     f"{workloads} workloads, tallied {first}, runs "
                     f"{run_caches(manifest)}")
        # Stage-1 products share the directory; count trace entries.
        sys.path.insert(0, str(REPO / "src"))
        from repro.experiments.store import TRACES
        entries = len(TRACES.entries(cache))
        if entries != workloads:
            sys.exit(f"bench smoke: expected {workloads} cache "
                     f"entries, found {entries}")
        manifest = run_figure(cache, out_dirs[1], pooled=True)
        second = manifest["trace_cache"]
        if second["generated"] != 0 or second["misses"] != 0 \
                or run_caches(manifest) != ["hit"] * workloads:
            sys.exit(f"bench smoke: second run re-executed a "
                     f"collector, tallied {second}, runs "
                     f"{run_caches(manifest)}")
        if second["hits"] < workloads:
            sys.exit(f"bench smoke: second run should hit the cache "
                     f"{workloads} times, tallied {second}")
        check_artifacts(Path(cache), out_dirs)
        check_geomean(out_dirs[1])
    print(f"bench smoke: OK — second run served {second['hits']} "
          f"cached trace set(s), zero collector re-execution")


if __name__ == "__main__":
    main()
