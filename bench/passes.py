"""One pass of a benchmark workload, run in a fresh interpreter.

    python3 bench/passes.py SPEC.json OUT.json

``run.py`` starts one of these per timed repetition, per cache fill and
per traced pass: the library memoises runs and replays in-process, so a
second pass in the same interpreter would be free.  ``SPEC`` names the
pass and its arguments and says whether to trace it; the environment
carries ``PYTHONHASHSEED`` and the two cache directories.  ``OUT``
receives the pass's wall and CPU time, the speed the host ran it at
(``hostspeed.py``), peak resident set, a digest of every cell it computed, how many workloads it captured, the caches'
hit/miss tallies and, for a traced pass, its spans and the measured
cost of recording one.

The pass drives the library only through public entry points:
``replay_grid``, ``replay_platform``, ``workload_config`` and the
``figures``/``ablations`` generators.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import hostspeed

# Sample from before the library's imports, which set-up time includes.
SAMPLER = hostspeed.Sampler()
SAMPLER.start()

from repro.experiments import (ablations, figures, runner,  # noqa: E402
                               stage1_cache, trace_cache)
from repro.units import geomean  # noqa: E402
from repro.workloads.registry import TABLE3_WORKLOADS  # noqa: E402

import spans  # noqa: E402

READY = time.monotonic()

#: The small-trace workloads of ``figures-small`` (1.7k-14k events).
SMALL_WORKLOADS = ("spark-bs", "spark-km", "spark-lr", "graphchi-als",
                   "concurrent-mark")

FIG15_THREADS = (1, 2, 4, 8, 16)


def timing_digest(result) -> dict:
    """Every public field of a ``GCTimingResult``, JSON-ready."""
    fields = dataclasses.asdict(result)
    fields["primitive_seconds"] = {
        primitive.value: seconds
        for primitive, seconds in result.primitive_seconds.items()}
    return fields


def fig12(processes: int, workloads=None, platforms=None):
    """The Fig. 12 grid: Table 3 workloads x the four platforms (or the
    named subsets)."""
    names = list(workloads or TABLE3_WORKLOADS)
    columns = list(platforms or figures.FIG12_PLATFORMS)
    cells = [f"{platform}/{name}" for name in names
             for platform in columns]
    try:
        grid = runner.replay_grid(columns, names, processes=processes)
    except Exception:
        return {}, dict.fromkeys(cells, traceback.format_exc()), {}
    digests = {f"{platform}/{name}": timing_digest(result)
               for (platform, name), result in grid.items()}
    if columns != list(figures.FIG12_PLATFORMS):
        return digests, {}, {}
    return digests, {}, fig12_model(grid, names)


def fig12_model(grid, names) -> dict:
    """Fig. 12 geomean speedups and the Fig. 17 energy saving."""
    def speedups(platform):
        return [grid[("cpu-ddr4", name)].wall_seconds
                / grid[(platform, name)].wall_seconds for name in names]

    energy = [grid[("charon", name)].energy.total_j
              / grid[("cpu-ddr4", name)].energy.total_j for name in names]
    return {"charon_speedup": geomean(speedups("charon")),
            "hmc_speedup": geomean(speedups("cpu-hmc")),
            "energy_saving": (1.0 - sum(energy) / len(energy)) * 100}


def fig15_cc():
    """Fig. 15 on graphchi-cc with figure15's configurations."""
    name = "graphchi-cc"
    base = runner.workload_config(name)
    calls = [("cpu-ddr4/t1-baseline", "cpu-ddr4",
              base.with_gc_threads(1), 1)]
    for threads in FIG15_THREADS:
        scaled = base.with_gc_threads(threads) \
            .scaled_charon_units(threads / 8.0)
        calls += [
            (f"cpu-ddr4/t{threads}", "cpu-ddr4",
             base.with_gc_threads(threads), threads),
            (f"charon-unified/t{threads}", "charon",
             scaled.with_distributed_charon(False), threads),
            (f"charon-distributed/t{threads}", "charon",
             scaled.with_distributed_charon(True), threads)]
    digests, errors = {}, {}
    for cell, platform, config, threads in calls:
        try:
            digests[cell] = timing_digest(runner.replay_platform(
                platform, name, config=config, threads=threads))
        except Exception:
            errors[cell] = traceback.format_exc()
    return digests, errors, {}


#: Every figure generator and ablation, in the paper's order.
GENERATORS = (figures.figure2, figures.figure4, figures.figure12,
              figures.figure13, figures.figure14, figures.figure15,
              figures.figure16, figures.figure17,
              ablations.bitmap_cache_ablation,
              ablations.scan_push_placement_ablation,
              ablations.unit_count_sweep, ablations.topology_ablation,
              ablations.dispatch_overhead_sweep)


def figures_small(generators=None):
    """The generators (all, or those named) over the small workloads."""
    digests, errors = {}, {}
    for generator in GENERATORS:
        if generators is not None and generator.__name__ not in generators:
            continue
        try:
            rows = generator(SMALL_WORKLOADS)
            digests[generator.__name__] = json.loads(json.dumps(rows))
        except Exception:
            errors[generator.__name__] = traceback.format_exc()
    return digests, errors, {}


PASSES = {"fig12": fig12, "fig15-cc": fig15_cc,
          "figures-small": figures_small}


def count_captures() -> dict:
    """Count workload executions: ``completed`` runs produced traces,
    ``failed`` ones raised (Fig. 2's out-of-memory heap probes)."""
    tally = {"completed": 0, "failed": 0}
    for cls in spans.workload_classes():
        def run(self, *args, _original=cls.run, **kwargs):
            try:
                result = _original(self, *args, **kwargs)
            except BaseException:
                tally["failed"] += 1
                raise
            tally["completed"] += 1
            return result
        cls.run = run
    return tally


def _usage() -> tuple:
    own = resource.getrusage(resource.RUSAGE_SELF)
    pool = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + pool.ru_utime + pool.ru_stime
    return cpu, max(own.ru_maxrss, pool.ru_maxrss) / 1024.0


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured here."""
    recorder = spans.SpanRecorder()

    def noop():
        return None

    traced = recorder.wrap("calibrate", noop)
    started = time.perf_counter()
    for _ in range(calls):
        traced()
    with_span = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - started
    return max(0.0, (with_span - bare) / calls)


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    out = {"ready": READY}
    if spec["pass"] != "startup":
        out.update(measure(spec))
    out["speed"] = SAMPLER.stop()
    Path(argv[2]).write_text(json.dumps(out))
    return 0


def measure(spec: dict) -> dict:
    captures = count_captures()
    function = PASSES[spec["pass"]]
    recorder = None
    if spec.get("traced"):
        recorder = spans.SpanRecorder()
        spans.install(recorder)
        function = recorder.wrap("pass", function)
    caches = (trace_cache.STATS.snapshot(), stage1_cache.STATS.snapshot())
    cpu_before, _ = _usage()
    start = time.perf_counter()
    cells, errors, model = function(**spec.get("args", {}))
    wall = time.perf_counter() - start
    cpu_after, peak_rss = _usage()
    out = {"wall_s": wall, "cpu_s": cpu_after - cpu_before,
           "peak_rss_mib": peak_rss, "cells": cells, "errors": errors,
           "model": model, "captures": captures,
           "caches": {"trace_cache": _delta(trace_cache.STATS.snapshot(),
                                            caches[0]),
                      "stage1_cache": _delta(stage1_cache.STATS.snapshot(),
                                             caches[1])}}
    if recorder is not None:
        out["spans"] = [spans.dump(span) for span in recorder.spans]
        out["span_cost_s"] = span_cost()
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv))
