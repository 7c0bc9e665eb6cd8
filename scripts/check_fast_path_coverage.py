#!/usr/bin/env python
"""CI guard: every timing platform must take the fast replay path.

Replays the bundled test traces — the TinySpark run plus the mixed
minor/major/sweep, G1 and concurrent-mark fixture traces — on every
platform configuration (the five named platforms plus ``charon
--distributed``) through ``make_replayer``'s default ``fast`` mode at
each of the 1/2/4/8 GC-thread counts the paper sweeps, then fails if

* the compiled kernel library (``repro.platform.native``: gcc builds
  ``_stage2.c`` and ``_scavenge.c`` into one library and ``ctypes``
  loads it) does not build or load,
* kernel selection raised for any platform x thread cell (no replay
  kernel models it), or
* any replay result reports ``replay_kernel == "event"``, or
* a Charon cell (unified, ``charon-cpuside`` or ``--distributed``)
  re-plans a trace set whose plans the traces already keep: a trace
  keeps its plan from its second Charon plan on, and the thread count
  is not part of the plan's key, so once a set's plans are kept the
  platform's later thread counts must reuse them
  (``replay.charon_plans{outcome=miss}`` must not move), or
* a batched cell makes other than one native stage-2 call per replayed
  trace (a closed-form cell, none): the phase loop, residual shares
  and bitmap-cache flushes run inside that one call.  The script counts
  the calls by wrapping the library's entry points
  (``native.TRACE_ENTRIES``), or
* a cell builds a ``JavaHeap`` while its platform is built or its
  traces replay: a platform takes the heap's layout
  (``HeapInfo.of(config.heap)``), never a heap.  The script counts
  constructions by wrapping ``JavaHeap.__init__`` once the trace sets
  below are generated.

The trace sets themselves are generated fresh at the top, which also
pins the *collect-side* fast path: the script fails if that generation
recorded zero fast heap-kernel calls, no batched mutator chunk
(``MutatorDriver.allocate_batch``), any ``heap.kernel_fallbacks``
demotion to scalar kernels or to the per-object mutator path, any
collector run that took the scalar path outright
(``heap.kernel_calls`` with ``kernel=scalar``), or a fast MajorGC
without its native mark, adjust and compact calls while the default
``fast`` mode was in effect.

Before any of that it reads the production modules
(``src/repro/experiments/*.py``) as text and fails if one names the
event-by-event ``TraceReplayer`` or calls ``.iter_events(``: the
figures, tables and sweeps replay the event columns a run already
holds, and per-event objects are for the oracle and the fuzzer only.

This pins the kernel matrix: every platform x thread cell must select
a replay kernel, every collector run must stay on the fast heap
kernels, and no production path builds per-event objects — a quiet
demotion to a slow path keeps results correct, just slow, and nothing
else would notice.  Exit status 0 on success.
Used by the CI ``fast-path-coverage`` job; runnable locally with
``python scripts/check_fast_path_coverage.py``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

PLATFORMS = ("ideal", "cpu-ddr4", "cpu-hmc", "charon",
             "charon-cpuside", "charon-distributed")
CHARON = ("charon", "charon-cpuside", "charon-distributed")
THREADS = (1, 2, 4, 8)

#: The collectors whose scalar runs the collect-side guard rejects.
COLLECTORS = ("minor", "major", "sweep", "g1", "concurrent")

#: The native phases (``_scavenge.c``) every fast MajorGC runs.
MAJOR_PHASES = ("major_mark", "major_adjust", "major_compact")

#: What a production module must not contain: the event-by-event
#: replayer (``FastTraceReplayer`` is fine) or a trace's row iterator.
EVENT_PATH = re.compile(r"\bTraceReplayer\b|\.iter_events\(")


def event_path_references() -> list:
    """``path:line: text`` for every EVENT_PATH match under
    ``src/repro/experiments``."""
    found = []
    for path in sorted((REPO / "src/repro/experiments").glob("*.py")):
        for number, line in enumerate(
                path.read_text().splitlines(), 1):
            if EVENT_PATH.search(line):
                found.append(f"{path.relative_to(REPO)}:{number}: "
                             f"{line.strip()}")
    return found


def charon_misses() -> float:
    """Charon stage-1 plans built (not reused) so far."""
    from repro.obs.metrics import global_metrics

    return global_metrics().as_dict().get(
        "replay.charon_plans{outcome=miss}", 0.0)


def count_stage2_calls(lib) -> dict:
    """Wrap the library's stage-2 entry points; returns the live call
    counts, by entry point."""
    from repro.platform import native

    calls = dict.fromkeys(native.TRACE_ENTRIES, 0)
    for name in native.TRACE_ENTRIES:
        def counted(*args, _entry=getattr(lib, name), _name=name):
            calls[_name] += 1
            return _entry(*args)
        setattr(lib, name, counted)
    return calls


def count_heaps() -> dict:
    """Wrap ``JavaHeap.__init__``; returns the live construction count
    (under ``"JavaHeap"``)."""
    from repro.heap.heap import JavaHeap

    built = {"JavaHeap": 0}
    init = JavaHeap.__init__

    def counted(self, *args, **kwargs):
        built["JavaHeap"] += 1
        init(self, *args, **kwargs)

    JavaHeap.__init__ = counted
    return built


def main() -> int:
    from repro.errors import ReproError
    from repro.obs.metrics import global_metrics
    from repro.platform import native
    from repro.platform.fast_replay import make_replayer

    from tests.conftest import (TinySpark, make_concurrent_traces,
                                make_g1_traces, make_mixed_run,
                                platform_for)

    failures = [f"production module uses the event path: {found}"
                for found in event_path_references()]
    if not failures:
        print("production modules: no TraceReplayer, no .iter_events(")

    # First, because fast capture below needs the library too.
    try:
        stage2_calls = count_stage2_calls(native.library())
    except (ReproError, OSError) as exc:
        print(f"fast-path coverage: the compiled kernel library did not "
              f"build or load: {exc}", file=sys.stderr)
        return 1
    print("kernel library (stage 2, scavenge, major): built and "
          "loaded")

    trace_sets = {
        "spark-bs": TinySpark().run().traces,
        "mixed": make_mixed_run().traces,
        "g1": make_g1_traces(),
        "concurrent": make_concurrent_traces(),
    }

    # Collect-side guard: generating the trace sets above ran real
    # collectors and mutators under the default (fast) heap-kernel mode.
    calls = {}
    heap_fallbacks = []
    for sample in global_metrics().samples():
        labels = sample["labels"]
        if sample["metric"] == "heap.kernel_calls":
            key = (labels.get("op"), labels.get("kernel"))
            calls[key] = calls.get(key, 0.0) + sample["value"]
        elif sample["metric"] == "heap.kernel_fallbacks":
            heap_fallbacks.append(f"{labels.get('op')} "
                                  f"x{sample['value']:.0f}")
    fast_calls = sum(value for (_, kernel), value in calls.items()
                     if kernel == "fast")
    scalar_collects = [f"{op} x{value:.0f}"
                       for (op, kernel), value in sorted(calls.items())
                       if kernel == "scalar" and op in COLLECTORS]
    if fast_calls == 0:
        failures.append("trace generation recorded zero fast "
                        "heap-kernel calls")
    if not calls.get(("alloc", "fast")):
        failures.append("no mutator allocated through the batched "
                        "allocate_batch chunks")
    if heap_fallbacks:
        failures.append("fast-mode runs were demoted to the scalar or "
                        "per-object path: " + ", ".join(heap_fallbacks))
    if scalar_collects:
        failures.append("collector runs took the scalar heap-kernel "
                        "path in fast mode: "
                        + ", ".join(scalar_collects))
    majors = calls.get(("major", "fast"), 0.0)
    for phase in MAJOR_PHASES:
        if calls.get((phase, "fast"), 0.0) < majors:
            failures.append(f"{majors:.0f} fast MajorGC runs but only "
                            f"{calls.get((phase, 'fast'), 0.0):.0f} "
                            f"native {phase} calls")
    if not failures:
        print(f"collect-side kernels: {fast_calls:.0f} fast calls, "
              f"{majors:.0f} native MajorGC runs, 0 fallbacks, "
              f"0 scalar collector runs")
    heaps = count_heaps()  # only capture builds heaps, and it is done
    planned = set()  # trace sets some Charon cell has planned
    kept = set()  # (platform, trace set) whose plans the traces keep
    for name in PLATFORMS:
        for threads in THREADS:
            built = heaps["JavaHeap"]
            platform, _, _ = platform_for(name)
            try:
                replayer = make_replayer(platform, threads=threads)
            except ReproError as exc:
                failures.append(f"{name} x{threads}: no replay kernel "
                                f"({exc})")
                continue
            for set_name, traces in trace_sets.items():
                misses = charon_misses()
                calls = sum(stage2_calls.values())
                result = replayer.replay_all(traces)
                calls = sum(stage2_calls.values()) - calls
                per_trace = 0 if result.replay_kernel == "closed-form" \
                    else 1
                if calls != per_trace * len(traces):
                    failures.append(
                        f"{name} x{threads} on {set_name}: {calls} native "
                        f"stage-2 calls for {len(traces)} traces "
                        f"({result.replay_kernel}; want {per_trace} "
                        f"per trace)")
                if name in CHARON:
                    missed = charon_misses() - misses
                    if (name, set_name) in kept and missed:
                        failures.append(
                            f"{name} x{threads} on {set_name}: re-planned "
                            f"{missed:.0f} trace(s) whose plans the "
                            f"traces keep")
                    if set_name in planned:
                        kept.add((name, set_name))
                    planned.add(set_name)
                if result.replay_kernel in ("", "event", "mixed"):
                    failures.append(
                        f"{name} x{threads} on {set_name}: replay "
                        f"kernel was {result.replay_kernel!r}")
                else:
                    print(f"{name:15s} x{threads} {set_name:8s} -> "
                          f"{result.replay_kernel}")
            if heaps["JavaHeap"] != built:
                failures.append(
                    f"{name} x{threads}: built "
                    f"{heaps['JavaHeap'] - built} JavaHeap(s) to build "
                    f"the platform or replay (a replay takes the "
                    f"layout, never a heap)")

    # Publish the verdict as a gauge in the registry (exported by
    # REPRO_OBS_OUT) — a kernel-coverage regression then shows up in
    # the metric snapshot, not only in the CI log.
    from repro.obs.tracer import install_env_exporters
    install_env_exporters()
    coverage = global_metrics().scope("coverage")
    coverage.gauge("fast_path_ok",
                   "1 when every platform took the fast replay "
                   "path").set(0.0 if failures else 1.0)
    coverage.gauge("fast_path_failures",
                   "fast-path coverage violations found").set(
                       len(failures))

    for failure in failures:
        print(f"fast-path coverage: {failure}", file=sys.stderr)
    if not failures:
        print(f"fast-path coverage: OK — {len(PLATFORMS)} platforms x "
              f"{len(THREADS)} thread counts x {len(trace_sets)} "
              f"trace sets, every cell on a replay kernel, no kept "
              f"Charon plan re-planned ({charon_misses():.0f} plans "
              f"built), one native stage-2 call per batched trace "
              f"({sum(stage2_calls.values())} calls), no JavaHeap "
              f"built by any replay")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
