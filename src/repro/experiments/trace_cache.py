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
:mod:`repro.experiments.store`.  A hit builds the run from the entry's
columns alone: the fast replayer reads them as they are, and nothing is
decompiled to per-event objects unless a caller asks for ``run.traces``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Callable, Optional, Union

from repro.config import SystemConfig
from repro.experiments import store
from repro.gcalgo.columnar import TRACE_SCHEMA_VERSION
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
              ) -> Optional[Path]:
    """Write a captured run under ``key``; returns the entry path, or
    None if the write failed.  Storing reads ``run.compiled``, so a
    captured run compiles here, once."""
    extra = {"run": {name: getattr(run, name) for name in _RUN_FIELDS}}
    return store.write(store.TRACES, directory, key,
                       lambda temp: save_traces_npz(run.compiled, temp,
                                                    extra=extra))


def _decode(path: Path) -> WorkloadRun:
    compiled, extra = load_compiled(path)
    return WorkloadRun(compiled=compiled, **dict(extra["run"]))


def load_run(directory: Union[str, Path], key: str
             ) -> Optional[WorkloadRun]:
    """Fetch ``key`` as a run holding the entry's columnar traces —
    nothing is decompiled until something reads ``run.traces`` — or
    ``None`` (also for a stale or unreadable entry)."""
    return store.read(store.TRACES, directory, key, _decode)


def _save(directory: Path, key: str, run: WorkloadRun) -> WorkloadRun:
    store_run(directory, key, run)
    return run


def fetch_run(workload: str, config: SystemConfig,
              produce: Callable[[], WorkloadRun],
              directory: Union[str, Path, None] = None,
              require: Optional[bool] = None) -> WorkloadRun:
    """The capture-once/replay-many entry point.

    Returns the run read from the entry on a hit, or the run
    ``produce`` (re)generated, stored through :func:`store_run` when a
    cache directory is configured (see
    :func:`repro.experiments.store.fetch`).
    """
    def generate() -> WorkloadRun:
        run = produce()
        STATS.add("generated")
        return run

    return store.fetch(
        store.TRACES, run_cache_key(workload, config), load_run,
        generate, _save, directory, require, workload=workload)
