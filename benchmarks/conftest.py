"""Benchmark harness plumbing.

Every benchmark regenerates one of the paper's result exhibits.  The
rendered tables are printed (visible with ``pytest -s``) and also
written under ``benchmarks/results/`` so EXPERIMENTS.md can be checked
against a fresh run.  Workload traces are produced once per session and
shared through :mod:`repro.experiments.runner`'s cache, so the full
suite replays each workload on each platform exactly once.

Captured traces and stage-1 products also persist across sessions:
unless the caller already pointed ``REPRO_TRACE_CACHE`` somewhere, the
content-addressed cache lives in ``benchmarks/.trace-cache``, so a
second benchmark run skips every collector execution and goes straight
to replay.  The session footer prints the cache hit/miss tallies.
"""

from __future__ import annotations

import os
import pathlib

from repro.config import TRACE_CACHE_ENV
from repro.obs import provenance
from repro.obs.tracer import install_env_exporters

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

os.environ.setdefault(TRACE_CACHE_ENV,
                      str(pathlib.Path(__file__).parent / ".trace-cache"))

# Honour REPRO_TRACE_OUT / REPRO_METRICS_OUT under pytest too, so a
# benchmark session can leave a Chrome trace and a metric snapshot
# behind (the CI bench-smoke job uploads both as artifacts).
install_env_exporters()


def publish(name: str, text: str) -> None:
    """Print an exhibit and persist it under benchmarks/results/,
    alongside a provenance manifest tying it to its trace-cache keys."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    provenance.write_manifest(RESULTS_DIR,
                              name=f"{name}.manifest.json",
                              command=f"benchmark {name}",
                              outputs=[f"{name}.txt"])


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The experiment sweeps are deterministic and expensive; statistical
    repetition would only re-measure the memoisation layer.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    from repro.experiments.store import CACHES
    for namespace in CACHES:
        terminalreporter.write_line(namespace.stats_line())
