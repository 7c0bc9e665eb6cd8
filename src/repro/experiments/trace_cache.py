"""Content-addressed trace cache: capture once, replay many.

Every experiment and benchmark replays the *same* GC traces across the
platform grid.  This module keys a captured
:class:`~repro.workloads.mutator.WorkloadRun` by a hash of exactly the
inputs that determine its traces:

* the workload name (its parameters are code, versioned below),
* the heap configuration (geometry decides when collections happen and
  what they move),
* :data:`~repro.gcalgo.columnar.TRACE_SCHEMA_VERSION` (the columnar
  layout) and :data:`GENERATOR_VERSION` (the collectors' recording
  semantics).

Timing-side parameters — platform, GC thread count, Charon unit
organisation — deliberately do **not** enter the key: one captured
trace set serves the whole platform grid.

Entries are the store's ``trace_cache`` namespace (``<sha256>.npz`` in
the binary codec of :mod:`repro.gcalgo.trace_io`); see
:mod:`repro.experiments.store`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

from repro.config import SystemConfig
from repro.experiments import store
from repro.gcalgo.columnar import (CompiledTrace, TRACE_SCHEMA_VERSION,
                                   compile_traces)
from repro.gcalgo.trace_io import load_compiled, save_traces_npz
from repro.workloads.mutator import WorkloadRun

#: Bump when the functional collectors' *recording* changes (what events
#: or residuals they emit for the same workload/heap), so cached traces
#: from older code are regenerated.
GENERATOR_VERSION = 1

#: WorkloadRun stats stored alongside the traces (everything but the
#: trace list itself).
_RUN_FIELDS = ("name", "heap_bytes", "allocated_bytes",
               "allocated_objects", "mutator_seconds", "minor_count",
               "major_count", "sweep_count")

#: Cumulative cache behaviour for this process tree.
STATS = store.TRACES.stats


def run_cache_key(workload: str, config: SystemConfig) -> str:
    """Content hash of everything that determines the captured traces."""
    payload = {
        "workload": workload,
        "heap": dataclasses.asdict(config.heap),
        "schema": TRACE_SCHEMA_VERSION,
        "generator": GENERATOR_VERSION,
    }
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def store_run(directory: Union[str, Path], key: str, run: WorkloadRun
              ) -> Tuple[Optional[Path], List[CompiledTrace]]:
    """Write a captured run under ``key``; returns ``(entry path or
    None if the write failed, compiled traces)`` — storing compiles
    every trace, and the caller keeps those for the fast replayer."""
    compiled = compile_traces(run.traces)
    extra = {"run": {name: getattr(run, name) for name in _RUN_FIELDS}}
    path = store.write(store.TRACES, directory, key,
                       lambda temp: save_traces_npz(compiled, temp,
                                                    extra=extra))
    return path, compiled


def _decode(path: Path) -> Tuple[WorkloadRun, List[CompiledTrace]]:
    compiled, extra = load_compiled(path)
    run = WorkloadRun(traces=[trace.to_trace() for trace in compiled],
                      **dict(extra["run"]))
    return run, compiled


def load_run(directory: Union[str, Path], key: str
             ) -> Optional[Tuple[WorkloadRun, List[CompiledTrace]]]:
    """Fetch ``key`` as ``(run, compiled_traces)`` — decompiled traces
    for the event-by-event replayer and every functional consumer, the
    columnar ones for the fast replayer — or ``None`` (also for a stale
    or unreadable entry)."""
    return store.read(store.TRACES, directory, key, _decode)


def fetch_run(workload: str, config: SystemConfig,
              produce: Callable[[], WorkloadRun],
              directory: Union[str, Path, None] = None,
              require: Optional[bool] = None
              ) -> Tuple[WorkloadRun, Optional[List[CompiledTrace]]]:
    """The capture-once/replay-many entry point.

    Returns ``(run, compiled)`` where ``compiled`` is the columnar
    trace list: read from the entry on a hit, or compiled once by
    :func:`store_run` when ``produce`` (re)generated the run; ``None``
    with no cache directory configured (see
    :func:`repro.experiments.store.fetch`).
    """
    def generate() -> Tuple[WorkloadRun, None]:
        run = produce()
        STATS.add("generated")
        return run, None

    return store.fetch(
        store.TRACES, run_cache_key(workload, config), load_run,
        generate, lambda directory, key, value:
        (value[0], store_run(directory, key, value[0])[1]),
        directory, require, workload=workload)
