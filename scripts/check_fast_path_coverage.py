#!/usr/bin/env python
"""CI guard: every timing platform must take the fast replay path.

Replays the bundled test traces — the TinySpark run plus the mixed
minor/major/sweep, G1 and concurrent-mark fixture traces — on every
platform configuration (the five named platforms plus ``charon
--distributed``) through ``make_replayer``'s default ``fast`` mode at
each of the 1/2/4/8 GC-thread counts the paper sweeps, then fails if

* the compiled stage-2 loop (``repro.platform.native``: gcc builds
  ``_stage2.c`` and ``ctypes`` loads it) does not build or load,
* kernel selection raised for any platform x thread cell (no replay
  kernel models it), or
* any replay result reports ``replay_kernel == "event"``.

The trace sets themselves are generated fresh at the top, which also
pins the *collect-side* fast path: the script fails if that generation
recorded zero fast heap-kernel calls, any ``heap.kernel_fallbacks``
demotion to scalar kernels, or any collector run that took the scalar
path outright (``heap.kernel_calls`` with ``kernel=scalar``) while the
default ``fast`` mode was in effect.

Before any of that it reads the production modules
(``src/repro/experiments/*.py``) as text and fails if one names the
event-by-event ``TraceReplayer`` or calls ``.to_trace(``: the figures,
tables and sweeps replay the columnar traces a run already holds, and
per-event objects are for the oracle, the fuzzer and the codec only.

This pins the kernel matrix: every platform x thread cell must select
a replay kernel, every collector run must stay on the fast heap
kernels, and no production path decompiles — a quiet demotion to a
slow path keeps results correct, just slow, and nothing else would
notice.  Exit status 0 on success.
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
THREADS = (1, 2, 4, 8)

#: What a production module must not contain: the event-by-event
#: replayer (``FastTraceReplayer`` is fine) or a decompile call.
EVENT_PATH = re.compile(r"\bTraceReplayer\b|\.to_trace\(")


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


def main() -> int:
    from repro.gcalgo.columnar import compile_traces
    from repro.errors import ReproError
    from repro.obs.metrics import global_metrics
    from repro.platform import native
    from repro.platform.fast_replay import make_replayer

    from tests.conftest import (TinySpark, make_concurrent_traces,
                                make_g1_traces, make_mixed_run,
                                platform_for)

    trace_sets = {
        "spark-bs": TinySpark().run().traces,
        "mixed": make_mixed_run().traces,
        "g1": make_g1_traces(),
        "concurrent": make_concurrent_traces(),
    }
    compiled_sets = {name: compile_traces(traces)
                     for name, traces in trace_sets.items()}
    failures = [f"production module uses the event path: {found}"
                for found in event_path_references()]
    if not failures:
        print("production modules: no TraceReplayer, no .to_trace(")

    try:
        native.library()
    except (ReproError, OSError) as exc:
        failures.append(f"the compiled stage-2 loop did not build or "
                        f"load: {exc}")
    else:
        print("stage-2 library: built and loaded")

    # Collect-side guard: generating the trace sets above ran real
    # collectors under the default (fast) heap-kernel mode.
    fast_calls = 0.0
    heap_fallbacks = 0.0
    scalar_collects = []
    for sample in global_metrics().samples():
        metric = sample["metric"]
        if metric == "heap.kernel_calls":
            labels = sample["labels"]
            if labels.get("kernel") == "fast":
                fast_calls += sample["value"]
            elif labels.get("op") in ("minor", "major", "sweep", "g1",
                                      "concurrent"):
                scalar_collects.append(
                    f"{labels['op']} x{sample['value']:.0f}")
        elif metric == "heap.kernel_fallbacks":
            heap_fallbacks += sample["value"]
    if fast_calls == 0:
        failures.append("trace generation recorded zero fast "
                        "heap-kernel calls")
    if heap_fallbacks:
        failures.append(f"{heap_fallbacks:.0f} collector run(s) were "
                        f"silently demoted to scalar heap kernels")
    if scalar_collects:
        failures.append("collector runs took the scalar heap-kernel "
                        "path in fast mode: "
                        + ", ".join(scalar_collects))
    if not failures:
        print(f"collect-side kernels: {fast_calls:.0f} fast calls, "
              f"0 fallbacks, 0 scalar collector runs")
    for name in PLATFORMS:
        for threads in THREADS:
            platform, _, _ = platform_for(name)
            try:
                replayer = make_replayer(platform, threads=threads)
            except ReproError as exc:
                failures.append(f"{name} x{threads}: no replay kernel "
                                f"({exc})")
                continue
            for set_name, compiled in compiled_sets.items():
                result = replayer.replay_all(compiled)
                if result.replay_kernel in ("", "event", "mixed"):
                    failures.append(
                        f"{name} x{threads} on {set_name}: replay "
                        f"kernel was {result.replay_kernel!r}")
                else:
                    print(f"{name:15s} x{threads} {set_name:8s} -> "
                          f"{result.replay_kernel}")

    # Publish the verdict where live consumers see it: a gauge in the
    # registry (scraped by /metrics when a port is armed, exported by
    # REPRO_OBS_OUT) — a kernel-coverage regression then shows up on
    # the instrument panel, not only in the CI log.
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
              f"trace sets, every cell on a replay kernel")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
