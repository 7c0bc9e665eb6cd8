"""Content-addressed trace cache: capture once, replay many.

Every experiment and benchmark replays the *same* GC traces across the
platform grid.  This module keys a captured
:class:`~repro.workloads.mutator.WorkloadRun` by a hash of exactly the
inputs that determine its traces:

* the workload name,
* the heap configuration (geometry decides when collections happen and
  what they move),
* :data:`~repro.gcalgo.columnar.TRACE_SCHEMA_VERSION` (the columnar
  layout),
* :func:`capture_digest`: a sha256 of the code that captures traces --
  the workloads, the collectors, the heap and the C capture kernels --
  so an entry made by other capture code is never served.

Timing-side parameters — platform, GC thread count, Charon unit
organisation — deliberately do **not** enter the key: one captured
trace set serves the whole platform grid.

Entries are the store's ``trace_cache`` namespace (``<sha256>.npz`` in
the binary codec of :mod:`repro.gcalgo.trace_io`); see
:mod:`repro.experiments.store`.  A hit builds the run from the entry's
columns alone, which the fast replayer reads as they are.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from pathlib import Path
from typing import Callable, Optional, Union

from repro.config import SystemConfig
from repro.experiments import store
from repro.gcalgo.columnar import TRACE_SCHEMA_VERSION
from repro.gcalgo.trace_io import load_compiled, save_traces_npz
from repro.platform.native import source_digest
from repro.workloads.mutator import WorkloadRun

#: The ``repro`` package directory the capture sources are read from.
_SOURCES_ROOT = Path(__file__).resolve().parents[1]

#: The capture sources: every module of these packages, plus the C
#: capture kernels.
_CAPTURE_PACKAGES = ("workloads", "gcalgo", "heap")
_CAPTURE_KERNELS = "platform/_scavenge.c"

#: WorkloadRun stats stored alongside the traces (everything but the
#: trace list itself).
_RUN_FIELDS = ("name", "heap_bytes", "allocated_bytes",
               "allocated_objects", "mutator_seconds", "minor_count",
               "major_count", "sweep_count")

#: Cumulative cache behaviour for this process tree.
STATS = store.TRACES.stats


@functools.lru_cache(maxsize=None)
def capture_digest(root: Path = _SOURCES_ROOT) -> str:
    """sha256 of the capture sources under the package directory
    ``root`` (computed once per process)."""
    paths = [path for package in _CAPTURE_PACKAGES
             for path in sorted((root / package).glob("*.py"))]
    paths.append(root / _CAPTURE_KERNELS)
    return source_digest({path.relative_to(root).as_posix():
                          path.read_bytes() for path in paths}).hexdigest()


def run_cache_key(workload: str, config: SystemConfig) -> str:
    """Content hash of everything that determines the captured traces."""
    payload = {
        "workload": workload,
        "heap": dataclasses.asdict(config.heap),
        "schema": TRACE_SCHEMA_VERSION,
        "capture": capture_digest(),
    }
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def store_run(directory: Union[str, Path], key: str, run: WorkloadRun
              ) -> Optional[Path]:
    """Write a captured run under ``key``; returns the entry path, or
    None if the write failed."""
    extra = {"run": {name: getattr(run, name) for name in _RUN_FIELDS}}
    return store.write(store.TRACES, directory, key,
                       lambda temp: save_traces_npz(run.traces, temp,
                                                    extra=extra))


def _decode(path: Path) -> WorkloadRun:
    traces, extra = load_compiled(path)
    return WorkloadRun(traces=traces, **dict(extra["run"]))


def load_run(directory: Union[str, Path], key: str
             ) -> Optional[WorkloadRun]:
    """Fetch ``key`` as a run holding the entry's traces, or ``None``
    (also for a stale or unreadable entry)."""
    return store.read(store.TRACES, directory, key, _decode)


def _save(directory: Path, key: str, run: WorkloadRun) -> WorkloadRun:
    store_run(directory, key, run)
    return run


def fetch_run(workload: str, config: SystemConfig,
              produce: Callable[[], WorkloadRun],
              directory: Union[str, Path, None] = None) -> WorkloadRun:
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
        generate, _save, directory)
