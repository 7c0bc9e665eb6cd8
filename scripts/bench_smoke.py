#!/usr/bin/env python
"""Benchmark smoke: prove the trace cache makes replays capture-free.

Runs ``python -m repro figure 12 --workloads spark-km graphchi-cc
--out-dir DIR`` three times and reads each run's provenance manifest
(``DIR/manifest.json``):

1. serially into a fresh cache directory, and
2. on a 2-process pool (``REPRO_JOBS=2``) into a second fresh cache
   directory, where the pool workers capture: each of these runs must
   capture both workloads (its manifest's ``trace_cache`` tally: 2
   generated, 2 stored; one ``runs[]`` record per workload, each
   ``generated``), leaving 2 trace entries in its cache;
3. on the pool again, against the first cache: it must serve both
   workloads from the cache: 0 generated runs, 0 misses, at least 2
   hits, every ``runs[].cache`` a ``hit`` — the proof of zero
   collector re-execution.

The third run exports telemetry through ``REPRO_OBS_OUT``
into ``$BENCH_SMOKE_ARTIFACTS`` (default ``bench-smoke-artifacts/``:
``trace.json`` and ``metrics.json``); the script then checks the
Chrome trace and metric snapshot are well-formed, that they carry one
``replay.wall_seconds`` row and one ``replay`` host span per grid cell
(the pool workers' telemetry reached the parent) and simulated ``gc``
spans, that both manifests round-trip with config hashes that match
the trace-cache entry keys on disk, and that the geomean row orders
``cpu-hmc`` < ``charon`` < ``ideal``.  CI uploads the artifact
directory.

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
import subprocess
import sys
import tempfile
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


def run_figure(cache_dir: str, out_dir: Path, label: str, pooled: bool,
               telemetry: bool = False) -> dict:
    """One ``repro figure 12`` run on the smoke grid, serial or on a
    2-process pool; returns its provenance manifest."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    env["REPRO_TRACE_CACHE"] = cache_dir
    for name in ("REPRO_JOBS", "REPRO_OBS_OUT"):
        env.pop(name, None)
    if pooled:
        env["REPRO_JOBS"] = "2"
    if telemetry:
        # The cached run leaves its telemetry behind for CI artifacts.
        ARTIFACTS.mkdir(parents=True, exist_ok=True)
        env["REPRO_OBS_OUT"] = str(ARTIFACTS)
    process = subprocess.run(
        [sys.executable, "-m", "repro", "figure", "12", "--workloads",
         *SMOKE_WORKLOADS, "--out-dir", str(out_dir)],
        cwd=REPO, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if process.returncode != 0:
        print(process.stdout)
        sys.exit(f"bench smoke: {label} run failed "
                 f"(exit {process.returncode})")
    print(f"bench smoke: {label} run passed")
    return json.loads((out_dir / "manifest.json").read_text())


def run_caches(manifest: dict) -> list:
    """The ``(workload, runs[].cache)`` of the smoke workloads'
    captures, sorted."""
    return sorted((run["workload"], run["cache"])
                  for run in manifest["runs"]
                  if run["workload"] in SMOKE_WORKLOADS)


def each_run_once(cache: str) -> list:
    """What :func:`run_caches` reads when each smoke workload's run is
    recorded once, as ``cache``."""
    return [(workload, cache) for workload in sorted(SMOKE_WORKLOADS)]


def check_capture(cache: str, manifest: dict, label: str) -> None:
    """A cold run captured and stored each smoke workload once."""
    workloads = len(SMOKE_WORKLOADS)
    tally = manifest["trace_cache"]
    if tally["generated"] != workloads or tally["stores"] != workloads \
            or run_caches(manifest) != each_run_once("generated"):
        sys.exit(f"bench smoke: {label} run should capture "
                 f"{workloads} workloads, tallied {tally}, runs "
                 f"{run_caches(manifest)}")
    # Stage-1 products share the directory; count trace entries.
    from repro.experiments.store import TRACES
    entries = len(TRACES.entries(cache))
    if entries != workloads:
        sys.exit(f"bench smoke: {label} run left {entries} cache "
                 f"entries, expected {workloads}")


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
    gc_spans = [e for e in complete if e.get("cat") == "gc"]
    if not gc_spans:
        sys.exit("bench smoke: Chrome trace artifact has no simulated "
                 "gc spans")

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
          f"{len(complete)} spans ({len(gc_spans)} gc), "
          f"{len(metrics['metrics'])} metrics "
          f"({len(cells)} pooled cells each counted once), "
          f"{checked} manifest run(s) matched to cache keys")


def main() -> None:
    sys.path.insert(0, str(REPO / "src"))
    out_dirs = [ARTIFACTS / "fig12-capture", ARTIFACTS / "fig12-pool-capture",
                ARTIFACTS / "fig12-cached"]
    workloads = len(SMOKE_WORKLOADS)
    with tempfile.TemporaryDirectory(prefix="trace-cache-") as cache, \
            tempfile.TemporaryDirectory(prefix="trace-cache-") as pooled:
        label = "first (serial capture)"
        check_capture(cache, run_figure(cache, out_dirs[0], label,
                                        pooled=False), label)
        label = "second (pooled capture)"
        check_capture(pooled, run_figure(pooled, out_dirs[1], label,
                                         pooled=True), label)
        label = "third (cached)"
        manifest = run_figure(cache, out_dirs[2], label, pooled=True,
                              telemetry=True)
        third = manifest["trace_cache"]
        if third["generated"] != 0 or third["misses"] != 0 \
                or run_caches(manifest) != each_run_once("hit"):
            sys.exit(f"bench smoke: third run re-executed a "
                     f"collector, tallied {third}, runs "
                     f"{run_caches(manifest)}")
        if third["hits"] < workloads:
            sys.exit(f"bench smoke: third run should hit the cache "
                     f"{workloads} times, tallied {third}")
        check_artifacts(Path(cache), out_dirs)
        check_geomean(out_dirs[2])
    print(f"bench smoke: OK — third run served {third['hits']} "
          f"cached trace set(s), zero collector re-execution")


if __name__ == "__main__":
    main()
