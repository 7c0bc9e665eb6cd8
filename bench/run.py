"""The sweep benchmark behind the paper's figures.

    python3 bench/run.py [--workload W ...] [--seed N] [--reps R]
                         [--trace-dir DIR] [--out results.json]
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --compare BASE.json CHANGE.json
    python3 bench/run.py --check
    python3 bench/run.py --record-reference --seed N

Without ``--trace`` it measures every selected workload end to end
(``--reps`` timed repetitions, default 5) and then in a separate serial
traced pass for the per-layer breakdown, prints every metric with its
unit and optionally writes the results JSON.  ``--trace 0`` measures
only the end-to-end metrics and ``--trace 1`` only the per-layer ones;
``--seconds`` keeps starting repetitions until that much has been
timed.  The last line of standard output is one JSON object:
``correct``, the cells ``attempted`` and ``failed``, and the metrics.
The exit status is non-zero when any simulated result is wrong.

Every pass runs in a fresh interpreter (``passes.py``) with
``PYTHONHASHSEED`` set to the seed, every ``REPRO_*`` variable cleared
except the two cache directories, and all state in a scratch directory
under ``.bench-work/`` that is deleted afterwards.  Each pass also
reports the speed the shared host ran it at (``hostspeed.py``); the
end-to-end times are scaled by it to quiet-vCPU seconds.  README.md
describes the workloads, the metrics and how to read the output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import benchmath
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".bench-work"
REFERENCE = BENCH / "reference"

#: The paper's values the Fig. 12 workloads report their error against.
PAPER = {"charon_speedup": 3.29, "hmc_speedup": 1.21,
         "energy_saving": 60.7}

#: Simulated, deterministic end-to-end metrics: printed and compared,
#: but not in BENCHMARK.json, whose metrics every workload must emit.
#: Their bound is exact.
MODEL_METRICS = {"cell_fail_rate": "ratio",
                 "charon_speedup_err_pct": "%",
                 "hmc_speedup_err_pct": "%",
                 "energy_saving_err_pct": "%"}

#: Per-layer metrics a warm workload takes from its traced cache fill:
#: that is where its capture, compile and store work happens.
SETUP_LAYERS = ("capture.s", "capture.events_per_s", "compile.s",
                "compile.redundancy", "trace_io.store_s")

#: The end-to-end metrics every workload reports (BENCHMARK.json).
END_TO_END = ("sweep_s", "cpu_s", "peak_rss_mib", "setup_s")

#: Per-layer metrics the harness adds to those ``spans.layer_metrics``
#: derives from the spans alone.
TRACE_LAYERS = ("fanout.overhead_s", "trace.overhead_pct",
                "trace.coverage_pct")

#: A cold workload sets up only a fresh interpreter; it measures that
#: at least this many times per run.
SETUP_SAMPLES = 7

CHILD_TIMEOUT_S = 900
#: ``--seconds`` starts no repetition that could end past this.
RUN_BUDGET_S = 150


@dataclasses.dataclass(frozen=True)
class Pass:
    """One call of ``passes.py``: the pass name and its arguments."""

    name: str
    args: dict = dataclasses.field(default_factory=dict)

    @property
    def processes(self) -> int:
        return self.args.get("processes", 1)

    def spec(self, traced: bool = False) -> dict:
        return {"pass": self.name, "args": self.args, "traced": traced}

    def serial(self) -> "Pass":
        if self.processes == 1:
            return self
        return Pass(self.name, {**self.args, "processes": 1})


@dataclasses.dataclass(frozen=True)
class Workload:
    """A timed pass, and the cold passes that fill the caches before it,
    run at once, one per core (none: the timed pass starts from empty
    caches itself)."""

    timed: Pass
    fill: Tuple[Pass, ...] = ()


_GRID = Pass("fig12", {"processes": 2})


def _ddr4_cells(*workloads: str) -> Pass:
    """Capture ``workloads`` and replay their DDR4 baselines: that
    writes every trace and stage-1 product a warm replay reads (the
    stage-1 cache holds only host-cost columns and primitive indices)."""
    return Pass("fig12", {"processes": 1, "workloads": list(workloads),
                          "platforms": ["cpu-ddr4"]})


WORKLOADS: Dict[str, Workload] = {
    "fig12-cold": Workload(_GRID),
    "fig12-warm": Workload(_GRID, fill=(
        _ddr4_cells("graphchi-pr"),
        _ddr4_cells("spark-bs", "spark-km", "spark-lr", "graphchi-cc",
                    "graphchi-als"))),
    "fig15-cc": Workload(Pass("fig15-cc"),
                         fill=(_ddr4_cells("graphchi-cc"),)),
    # Fig. 2's minimum-heap search decides which heaps it captures, so
    # only the pass itself knows what to fill.
    "figures-small": Workload(Pass("figures-small"), fill=(
        Pass("figures-small", {"generators": ["figure2"]}),
        Pass("figures-small", {"generators": [
            "figure4", "figure12", "figure13", "figure14", "figure15",
            "figure16", "figure17", "bitmap_cache_ablation",
            "scan_push_placement_ablation", "unit_count_sweep",
            "topology_ablation", "dispatch_overhead_sweep"]}))),
}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- running passes ----------------------------------------------------------

class Scratch:
    """A run's scratch directory and the environment its passes see."""

    def __init__(self, seed: int) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=WORK_ROOT))
        self.seed = seed
        self._count = 0

    def fresh_cache(self) -> Path:
        self._count += 1
        cache = self.path / f"cache-{self._count}"
        cache.mkdir()
        return cache

    def run(self, specs: List[dict], cache: Path) -> List[dict]:
        """Run passes at once, sharing ``cache``; returns each result,
        or ``{"failure": why}``.  Results carry ``startup_s`` (spawn to
        ready) and ``process_s`` (spawn to exit)."""
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update(PYTHONHASHSEED=str(self.seed), TMPDIR=str(self.path),
                   REPRO_TRACE_CACHE=str(cache),
                   REPRO_STAGE1_CACHE=str(cache),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(ROOT / "src"),
                                     env.get("PYTHONPATH")])))
        started = []
        try:
            for spec in specs:
                self._count += 1
                paths = [self.path / f"{kind}-{self._count}.{ext}"
                         for kind, ext in (("spec", "json"),
                                           ("out", "json"),
                                           ("log", "txt"))]
                paths[0].write_text(json.dumps(spec))
                with open(paths[2], "wb") as log:
                    spawned = time.monotonic()
                    child = subprocess.Popen(
                        [sys.executable, str(BENCH / "passes.py"),
                         str(paths[0]), str(paths[1])], env=env,
                        cwd=self.path, stdout=log, stderr=log,
                        start_new_session=True)
                started.append((child, spawned, paths))
            deadline = time.monotonic() + CHILD_TIMEOUT_S
            return [self._finish(child, spawned, paths, deadline)
                    for child, spawned, paths in started]
        finally:
            for child, _, _ in started:
                if child.poll() is None:
                    os.killpg(child.pid, signal.SIGKILL)
                    child.wait()

    @staticmethod
    def _finish(child, spawned: float, paths: List[Path],
                deadline: float) -> dict:
        try:
            child.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return {"failure": "timed out"}
        exited = time.monotonic()
        if child.returncode != 0 or not paths[1].exists():
            tail = paths[2].read_text(errors="replace").strip()
            return {"failure": tail.splitlines()[-1] if tail else
                    f"exit status {child.returncode}"}
        result = json.loads(paths[1].read_text())
        result["startup_s"] = result["ready"] - spawned
        result["process_s"] = exited - spawned
        return result

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


# -- correctness -------------------------------------------------------------

#: Cells that replay the same configuration through two entry points,
#: so they must agree whenever both run.
SAME_CELL = {
    ("fig15-cc", "cpu-ddr4/t8"): ("fig12", "cpu-ddr4/graphchi-cc"),
    ("fig15-cc", "charon-unified/t8"): ("fig12", "charon/graphchi-cc"),
}


def load_reference(seed: int) -> Optional[dict]:
    path = REFERENCE / f"seed-{seed}.json"
    return json.loads(path.read_text()) if path.exists() else None


class Cells:
    """Tallies the cells of every pass against the reference results.

    With a committed reference for the seed, every cell must match it.
    Other seeds change only the hash-seeded R-MAT graphs: cells that
    agree across the committed seeds must still match, and every cell
    must agree across all passes of the run.
    """

    def __init__(self, seed: int) -> None:
        self.reference = load_reference(seed)
        self.invariant: Dict[str, dict] = {}
        if self.reference is None:
            first, second = load_reference(0), load_reference(1)
            for name, cells in (first or {}).get("passes", {}).items():
                other = (second or {}).get("passes", {}).get(name, {})
                self.invariant[name] = {
                    cell: digest for cell, digest in cells.items()
                    if cell in other and not benchmath.digest_mismatches(
                        digest, other[cell])}
        self.seen: Dict[tuple, object] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, label: str, pass_: Pass, result: dict,
              warm: bool) -> None:
        if "failure" in result:
            cells = (self.reference or {}).get("passes", {}) \
                .get(pass_.name, {})
            count = max(1, len(cells))
            self.attempted += count
            self.failed += count
            self.problems.append(f"{label}: {result['failure']}")
            return
        digests, errors = result["cells"], result["errors"]
        captured = result["captures"]["completed"] if warm else 0
        for cell in sorted(set(digests) | set(errors)):
            self.attempted += 1
            if cell in errors:
                problem = "raised " + errors[cell].strip() \
                    .splitlines()[-1]
            elif captured:
                problem = f"warm pass captured {captured} workload run(s)"
            else:
                problem = self._compare(pass_.name, cell, digests[cell])
            if problem:
                self.failed += 1
                self.problems.append(
                    f"{label} {pass_.name}:{cell}: {problem}")

    def _compare(self, name: str, cell: str, digest) -> Optional[str]:
        if self.reference is not None:
            want = self.reference["passes"].get(name, {}).get(cell)
        else:
            want = self.invariant.get(name, {}).get(cell)
        if want is None and self.reference is not None:
            return "not in the reference"
        key = SAME_CELL.get((name, cell), (name, cell))
        for expected, source in ((want, "reference"),
                                 (self.seen.get(key), "an earlier pass")):
            if expected is None:
                continue
            problems = benchmath.digest_mismatches(expected, digest)
            if problems:
                return f"differs from {source}: {problems[0]}"
        self.seen.setdefault(key, digest)
        return None


# -- measuring a workload ----------------------------------------------------

class Measurement:
    """One workload's passes, samples and cell tally within a run."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.warm = bool(self.workload.fill)
        self.cells = Cells(seed)
        self.scratch = Scratch(seed)
        self.samples: Dict[str, List[float]] = {
            metric: [] for metric in END_TO_END}
        self.startups: List[float] = []
        self.speeds: List[float] = []
        self.model: Dict[str, float] = {}
        self.record: dict = {}
        self.cache: Optional[Path] = None

    def _pass(self, label: str, pass_: Pass, cache: Path,
              traced: bool = False) -> dict:
        [result] = self.scratch.run([pass_.spec(traced)], cache)
        self.cells.check(label, pass_, result, self.warm)
        return result

    def _fill(self, traced: bool) -> List[dict]:
        """Fill fresh caches, which later passes then read."""
        self.cache = self.scratch.fresh_cache()
        results = self.scratch.run([pass_.spec(traced)
                                    for pass_ in self.workload.fill],
                                   self.cache)
        for pass_, result in zip(self.workload.fill, results):
            self.cells.check("fill", pass_, result, False)
        return results

    def set_up(self) -> None:
        if self.warm:
            results = self._fill(False)
            if all("process_s" in result for result in results):
                self.samples["setup_s"].append(
                    max(result["process_s"] * result["speed"]
                        for result in results))

    def repeat(self) -> Optional[float]:
        """One timed repetition; returns its process seconds, or None
        when it failed."""
        result = self._pass("timed", self.workload.timed,
                            self.cache or self.scratch.fresh_cache())
        if "failure" in result:
            return None
        speed = result["speed"]
        self.speeds.append(speed)
        self.samples["sweep_s"].append(result["wall_s"] * speed)
        self.samples["cpu_s"].append(result["cpu_s"] * speed)
        self.samples["peak_rss_mib"].append(result["peak_rss_mib"])
        self.startups.append(result["startup_s"] * speed)
        self.model.update(result["model"])
        return result["process_s"]

    def finish_end_to_end(self) -> None:
        if not self.warm:
            while len(self.startups) < SETUP_SAMPLES:
                [probe] = self.scratch.run([Pass("startup").spec()],
                                           self.scratch.path)
                if "failure" in probe:
                    self.cells.check("startup", self.workload.timed, probe,
                                     False)
                    break
                self.startups.append(probe["startup_s"] * probe["speed"])
            self.samples["setup_s"] = self.startups[:]
        self.record["e2e"] = self.samples
        self.record["host_speed"] = self.speeds

    def trace(self, trace_dir: Optional[Path]) -> None:
        """The traced fill and serial traced pass, and the per-layer
        metrics from them."""
        timed = self.workload.timed
        fills = self._fill(True) if self.warm else []
        if timed.processes > 1 and not self.samples["sweep_s"]:
            self.repeat()  # the pooled time fan-out is measured against
        result = self._pass("traced", timed.serial(),
                            self.cache or self.scratch.fresh_cache(),
                            traced=True)
        if "failure" in result:
            return
        traced = [spans.load(result["spans"])]
        layers = spans.layer_metrics(traced, result["caches"])
        filled = [spans.load(fill["spans"]) for fill in fills
                  if "spans" in fill]
        if filled:
            setup = spans.layer_metrics(filled, {})
            layers.update({key: setup[key] for key in SETUP_LAYERS})
        wall = result["wall_s"]
        layers["fanout.overhead_s"] = 0.0  # a serial workload has no pool
        if timed.processes > 1 and self.samples["sweep_s"]:
            # sweep_s is in quiet-vCPU seconds; so are the traced times.
            layers["fanout.overhead_s"] = benchmath.fanout_overhead(
                statistics.median(self.samples["sweep_s"]),
                wall * result["speed"],
                spans.replay_seconds(traced) * result["speed"],
                timed.processes)
        # The spans' own cost, measured in the traced process: the
        # run-to-run noise of a shared host is far larger than this, so
        # the difference of a traced and an untraced run would measure
        # the noise instead.
        layers["trace.overhead_pct"] = 100.0 * len(traced[0]) \
            * result["span_cost_s"] / wall
        self_times = spans.layer_table(traced)
        layers["trace.coverage_pct"] = 100.0 * (
            1.0 - self_times.get("unattributed", 0.0) / wall)
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            (trace_dir / f"{self.name}.trace.json").write_text(
                json.dumps(spans.chrome_trace(filled + traced)))
            (trace_dir / f"{self.name}.layers.json").write_text(json.dumps(
                {"traced_wall_s": wall, "self_times": self_times,
                 "per_layer": layers}, indent=1, sort_keys=True))
        self.record.update(per_layer=layers, self_times=self_times)

    def close(self) -> dict:
        """Delete the scratch state; returns the record."""
        self.scratch.close()
        if self.model:
            self.record["model"] = {
                f"{key}_err_pct": benchmath.error_pct(value, PAPER[key])
                for key, value in self.model.items()}
        self.record.update(attempted=self.cells.attempted,
                           failed=self.cells.failed,
                           problems=self.cells.problems,
                           correct=self.cells.failed == 0
                           and self.cells.attempted > 0)
        return self.record


def measure(names: List[str], seed: int, reps: int,
            seconds: Optional[float], end_to_end: bool, per_layer: bool,
            trace_dir: Optional[Path]) -> Dict[str, dict]:
    """Measure the workloads; returns each one's record.

    The timed repetitions of different workloads take turns, so a slow
    spell of a shared host lands on a few repetitions of every workload
    rather than on all repetitions of one.
    """
    runs = [Measurement(name, seed) for name in names]
    started = time.monotonic()
    try:
        if end_to_end:
            for run_ in runs:
                run_.set_up()
            pending = list(runs)
            while pending:
                for run_ in list(pending):
                    took = run_.repeat()
                    timed = run_.samples["sweep_s"]
                    if took is None:
                        done = True
                    elif seconds is None:
                        done = len(timed) >= reps
                    else:
                        done = (sum(timed) >= seconds or time.monotonic()
                                - started + took > RUN_BUDGET_S)
                    if done:
                        pending.remove(run_)
            for run_ in runs:
                run_.finish_end_to_end()
        if per_layer:
            for run_ in runs:
                run_.trace(trace_dir)
    finally:
        records = {run_.name: run_.close() for run_ in runs}
    return records


# -- reporting ---------------------------------------------------------------

def units(benchmark: dict) -> Dict[str, dict]:
    """Every metric's unit, direction and bound, by name."""
    table = {metric["name"]: metric for group in ("end_to_end",
                                                  "per_layer")
             for metric in benchmark[group]}
    for metric, unit in MODEL_METRICS.items():
        table[metric] = {"name": metric, "unit": unit, "better": "lower",
                         "bound": 0.0}
    return table


def summarize(record: dict, benchmark: dict) -> dict:
    """The record's metrics in the results-file shape."""
    table = units(benchmark)
    out = {key: record[key] for key in ("attempted", "failed",
                                        "correct", "problems")}
    rate = record["failed"] / max(1, record["attempted"])
    out["model"] = {"cell_fail_rate": {"value": rate, "unit": "ratio"}}
    for metric, value in record.get("model", {}).items():
        out["model"][metric] = {"value": value,
                                "unit": table[metric]["unit"]}
    if "e2e" in record:
        out["e2e"] = {metric: {"unit": table[metric]["unit"],
                               **benchmath.summarize(values)}
                      for metric, values in record["e2e"].items()
                      if values}
    if record.get("host_speed"):
        out["host_speed"] = benchmath.summarize(record["host_speed"])
    if "per_layer" in record:
        out["per_layer"] = {metric: {"value": value,
                                     "unit": table[metric]["unit"]}
                            for metric, value in record["per_layer"]
                            .items()}
        out["self_times"] = record["self_times"]
    return out


def print_workload(name: str, summary: dict) -> None:
    print(f"== {name}: {summary['failed']}/{summary['attempted']} "
          f"cells failed ==")
    for metric, stat in summary.get("e2e", {}).items():
        print(f"  {metric:<28} {stat['median']:>12.4f} {stat['unit']:<6}"
              f" q1 {stat['q1']:.4f}  q3 {stat['q3']:.4f}  "
              f"n={stat['n']}")
    if "host_speed" in summary:
        print(f"  {'(host speed, quiet = 1)':<28} "
              f"{summary['host_speed']['median']:>12.4f}")
    for metric, stat in summary["model"].items():
        print(f"  {metric:<28} {stat['value']:>12.4f} {stat['unit']}")
    if "per_layer" in summary:
        print("  -- per layer (serial traced pass) --")
        for metric, stat in summary["per_layer"].items():
            print(f"  {metric:<34} {stat['value']:>14.4f} "
                  f"{stat['unit']}")
        total = sum(summary["self_times"].values())
        print("  -- self time by layer --")
        for layer, seconds in sorted(summary["self_times"].items(),
                                     key=lambda item: -item[1]):
            print(f"  {layer:<16} {seconds:>9.3f} s "
                  f"{100 * seconds / total:>5.1f} %")
    for problem in summary["problems"][:10]:
        print(f"  FAILED {problem}")


def result_line(summaries: Dict[str, dict], trace: Optional[int]) -> dict:
    """The final JSON line: one workload's metrics by plain name, as
    ``BENCHMARK.json`` lists them, or ``workload:metric`` for several."""
    groups = {0: ("e2e",), 1: ("per_layer",),
              None: ("e2e", "per_layer", "model")}[trace]
    metrics = {}
    for name, summary in summaries.items():
        for group in groups:
            for metric, stat in summary.get(group, {}).items():
                key = metric if len(summaries) == 1 else f"{name}:{metric}"
                value = stat["median"] if "median" in stat \
                    else stat["value"]
                metrics[key] = {"value": value, "unit": stat["unit"]}
    return {"correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": metrics}


def git_sha() -> Optional[str]:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


# -- modes -------------------------------------------------------------------

def run(args, benchmark: dict) -> int:
    records = measure(args.workload or list(WORKLOADS), args.seed,
                      args.reps, args.seconds,
                      end_to_end=args.trace in (None, 0),
                      per_layer=args.trace in (None, 1),
                      trace_dir=args.trace_dir)
    summaries = {}
    for name, record in records.items():
        summaries[name] = summary = summarize(record, benchmark)
        print_workload(name, summary)
    mismatched = check_emitted(summaries, benchmark)
    if args.out is not None:
        args.out.write_text(json.dumps({
            "git_sha": git_sha(), "seed": args.seed,
            "reps": None if args.seconds else args.reps,
            "seconds": args.seconds,
            "host": {"cpus": os.cpu_count(),
                     "machine": platform.machine(),
                     "python": platform.python_version()},
            "workloads": summaries}, indent=1, sort_keys=True))
    line = result_line(summaries, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] and not mismatched else 1


def check_emitted(summaries: Dict[str, dict], benchmark: dict) -> bool:
    """Report metric names a correct run emitted that BENCHMARK.json does
    not list, or the other way round; True when any differ."""
    differ = False
    for group, key in (("e2e", "end_to_end"), ("per_layer", "per_layer")):
        listed = {metric["name"] for metric in benchmark[key]}
        for name, summary in summaries.items():
            if group not in summary or not summary["correct"]:
                continue
            emitted = set(summary[group])
            if emitted != listed:
                differ = True
                print(f"{name}: {key} metrics differ from BENCHMARK.json:"
                      f" extra {sorted(emitted - listed)}, missing "
                      f"{sorted(listed - emitted)}", file=sys.stderr)
    return differ


def check(benchmark: dict) -> int:
    """Compare BENCHMARK.json's names with what the harness emits."""
    problems = []
    listed = [workload["name"] for workload in benchmark["workloads"]]
    if listed != list(WORKLOADS):
        problems.append(f"workloads {listed} != harness {list(WORKLOADS)}")
    per_layer = list(spans.layer_metrics([], {})) + list(TRACE_LAYERS)
    for key, emitted in (("end_to_end", END_TO_END),
                         ("per_layer", per_layer)):
        names = [metric["name"] for metric in benchmark[key]]
        if sorted(names) != sorted(emitted):
            problems.append(
                f"{key}: listed-only {sorted(set(names) - set(emitted))}, "
                f"emitted-only {sorted(set(emitted) - set(names))}")
    for problem in problems:
        print(f"check: {problem}")
    print("check: ok" if not problems else "check: FAILED")
    return 1 if problems else 0


def compare(base_path: Path, change_path: Path, benchmark: dict) -> int:
    """The ``--compare`` table: every workload x end-to-end metric."""
    base = json.loads(base_path.read_text())["workloads"]
    change = json.loads(change_path.read_text())["workloads"]
    table = units(benchmark)
    regressed = False
    print(f"{'workload':<14} {'metric':<24} {'base [q1, q3]':>28} "
          f"{'change [q1, q3]':>28} {'delta':>8} {'wins':>5}  verdict")
    for name in base:
        if name not in change:
            print(f"{name:<14} missing from {change_path}")
            regressed = True
            continue
        pairs = []
        for metric, stat in base[name].get("e2e", {}).items():
            other = change[name].get("e2e", {}).get(metric)
            if other is not None:
                pairs.append((metric, stat["samples"], other["samples"]))
        for metric, stat in base[name]["model"].items():
            other = change[name]["model"].get(metric)
            if other is not None:
                pairs.append((metric, [stat["value"]], [other["value"]]))
        for metric, before, after in pairs:
            info = table[metric]
            verdict = benchmath.verdict(before, after, info["bound"],
                                        info["better"])
            regressed |= verdict == "regressed"
            wins = benchmath.win_fraction(before, after, info["better"])
            mid_before = statistics.median(before)
            delta = (statistics.median(after) - mid_before) \
                / abs(mid_before) * 100 if mid_before else 0.0
            print(f"{name:<14} {metric:<24} {_spread(before):>28} "
                  f"{_spread(after):>28} {delta:>+7.1f}% "
                  f"{'-' if wins is None else f'{wins:.1f}':>5}  {verdict}")
    return 1 if regressed else 0


def _spread(values: List[float]) -> str:
    q1, q3 = benchmath.quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def record_reference(seed: int) -> int:
    """Write ``reference/seed-N.json`` from one cold pass of each kind."""
    passes = {}
    scratch = Scratch(seed)
    try:
        for pass_ in {w.timed.name: w.timed
                      for w in WORKLOADS.values()}.values():
            [result] = scratch.run([pass_.spec()], scratch.fresh_cache())
            if "failure" in result or result["errors"]:
                print(f"{pass_.name}: {result.get('failure')}"
                      f"{result.get('errors')}", file=sys.stderr)
                return 1
            passes[pass_.name] = result["cells"]
    finally:
        scratch.close()
    REFERENCE.mkdir(exist_ok=True)
    path = REFERENCE / f"seed-{seed}.json"
    path.write_text(json.dumps({"seed": seed, "passes": passes},
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="PYTHONHASHSEED of every pass (seeds the "
                             "R-MAT graphs); default 0, held out: 1")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--seconds", type=float,
                        help="time at least this long instead of --reps")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer "
                             "only; default both")
    parser.add_argument("--trace-dir", type=Path,
                        help="write each traced pass's Chrome trace and "
                             "self-time table here")
    parser.add_argument("--out", type=Path, help="results JSON")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("BASE", "CHANGE"))
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so every pass still running is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be a PYTHONHASHSEED, 0 to 2**32 - 1")
    benchmark = load_benchmark()
    if args.compare:
        return compare(*args.compare, benchmark)
    if args.check:
        return check(benchmark)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no library at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(args.seed)
    return run(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
