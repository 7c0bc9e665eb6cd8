"""Content-addressed on-disk trace cache: capture once, replay many.

Every experiment and benchmark replays the *same* GC traces across the
platform grid, yet historically each process regenerated them by
re-running the functional collectors.  This module keys a captured
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

Entries are ``<sha256>.npz`` files written atomically, so concurrent
experiment processes can share a cache directory.  A stale entry (any
version mismatch) is rejected loudly, deleted, and regenerated — never
misreplayed.  The cache lives wherever :data:`REPRO_TRACE_CACHE`
points (or an explicit ``directory=``); without either, caching is off
and :func:`fetch_run` just runs the producer.

Set :data:`REPRO_TRACE_CACHE_REQUIRE` (or pass ``require=True``) to
turn a cache miss into a hard :class:`TraceCacheMiss` — the benchmark
smoke job uses this to prove a warmed cache serves a whole run with
zero collector re-execution.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import warnings
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.config import (SystemConfig, TRACE_CACHE_ENV,
                          TRACE_CACHE_REQUIRE_ENV)
from repro.errors import ConfigError, ReproError
from repro.gcalgo.columnar import (CompiledTrace, TRACE_SCHEMA_VERSION,
                                   compile_traces)
from repro.gcalgo.trace_io import load_compiled, save_traces_npz
from repro.obs.eventlog import get_eventlog
from repro.workloads.mutator import WorkloadRun

#: Bump when the functional collectors' *recording* changes (what events
#: or residuals they emit for the same workload/heap), so cached traces
#: from older code are regenerated.
GENERATOR_VERSION = 1

#: Environment variable naming the cache directory (unset = no cache).
REPRO_TRACE_CACHE = TRACE_CACHE_ENV

#: Environment variable: any non-empty value makes a miss an error.
REPRO_TRACE_CACHE_REQUIRE = TRACE_CACHE_REQUIRE_ENV

#: WorkloadRun stats stored alongside the traces (everything but the
#: trace list itself).
_RUN_FIELDS = ("name", "heap_bytes", "allocated_bytes",
               "allocated_objects", "mutator_seconds", "minor_count",
               "major_count", "sweep_count")


class CacheStats:
    """The cumulative cache tally, safe across threads *and* forked
    workers.

    Each field is a ``multiprocessing.Value`` in fork-shared memory
    guarded by one shared lock, so :func:`fetch_run` calls from
    :func:`repro.experiments.runner.replay_grid` worker processes (and
    from threads) all land in the same tally the parent reports.  The
    mapping protocol (``keys``/``__getitem__``/``items``) is kept so
    existing ``dict(STATS)``-style consumers read it like the plain
    dict it used to be.
    """

    FIELDS = ("hits", "misses", "stale", "stores", "generated")

    def __init__(self) -> None:
        self._lock = multiprocessing.RLock()
        self._values = {name: multiprocessing.Value("q", 0, lock=False)
                        for name in self.FIELDS}

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._values[name].value += amount

    def __getitem__(self, name: str) -> int:
        return int(self._values[name].value)

    def __setitem__(self, name: str, value: int) -> None:
        with self._lock:
            self._values[name].value = int(value)

    def keys(self) -> Tuple[str, ...]:
        return self.FIELDS

    def __iter__(self) -> Iterator[str]:
        return iter(self.FIELDS)

    def items(self) -> Iterator[Tuple[str, int]]:
        snapshot = self.snapshot()
        return iter(snapshot.items())

    def update(self, **values: int) -> None:
        with self._lock:
            for name, value in values.items():
                self._values[name].value = int(value)

    def snapshot(self) -> Dict[str, int]:
        """A consistent point-in-time copy of the tally."""
        with self._lock:
            return {name: int(value.value)
                    for name, value in self._values.items()}


#: Cumulative cache behaviour for this process tree (see
#: :func:`stats_line`).
STATS = CacheStats()


class TraceCacheMiss(ReproError):
    """Required a cached trace set (``require``) but none was stored."""


def reset_stats() -> None:
    STATS.update(hits=0, misses=0, stale=0, stores=0, generated=0)


def stats_line() -> str:
    """One-line summary, e.g. for a benchmark session footer."""
    return ("trace cache: {hits} hit(s), {misses} miss(es), "
            "{stale} stale, {stores} store(s), {generated} run(s) "
            "generated".format(**STATS.snapshot()))


def cache_dir(directory: Union[str, Path, None] = None) -> Optional[Path]:
    """Resolve the cache directory (explicit arg beats the environment);
    ``None`` means caching is disabled."""
    if directory is None:
        directory = os.environ.get(REPRO_TRACE_CACHE) or None
    return None if directory is None else Path(directory)


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


def _entry_path(directory: Path, key: str) -> Path:
    return directory / f"{key}.npz"


def store_run(directory: Union[str, Path], key: str,
              run: WorkloadRun) -> Tuple[Path, List[CompiledTrace]]:
    """Write a captured run under ``key``.

    Returns ``(entry path, compiled traces)``: storing compiles every
    trace to columnar form, and the caller keeps those copies for the
    fast replayer instead of compiling the traces a second time.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = _entry_path(directory, key)
    compiled = compile_traces(run.traces)
    save_traces_npz(compiled, path, extra={
        "run": {name: getattr(run, name) for name in _RUN_FIELDS}})
    STATS.add("stores")
    return path, compiled


def load_run(directory: Union[str, Path], key: str
             ) -> Optional[Tuple[WorkloadRun, List[CompiledTrace]]]:
    """Fetch ``key`` from the cache.

    Returns ``(run, compiled_traces)``: the run carries decompiled
    :class:`~repro.gcalgo.trace.GCTrace` objects (what the event-by-
    event replayer and every functional consumer expect) while the
    compiled columnar traces ride alongside for the fast replayer, so
    neither side pays a conversion it does not need.  A stale or
    unreadable entry warns, is deleted, and reads as a miss.
    """
    path = _entry_path(Path(directory), key)
    if not path.exists():
        return None
    try:
        compiled, extra = load_compiled(path)
        stats = dict(extra["run"])
        run = WorkloadRun(traces=[trace.to_trace() for trace in compiled],
                          **stats)
    except (ConfigError, KeyError, TypeError) as exc:
        warnings.warn(f"discarding stale trace-cache entry {path.name}: "
                      f"{exc}", stacklevel=2)
        STATS.add("stale")
        path.unlink(missing_ok=True)
        return None
    return run, compiled


def fetch_run(workload: str, config: SystemConfig,
              produce: Callable[[], WorkloadRun],
              directory: Union[str, Path, None] = None,
              require: Optional[bool] = None
              ) -> Tuple[WorkloadRun, Optional[List[CompiledTrace]]]:
    """The capture-once/replay-many entry point.

    Returns ``(run, compiled)`` where ``compiled`` is the columnar
    trace list: read from the entry on a hit, or compiled once by
    :func:`store_run` when ``produce`` (re)generated the run.  With no
    cache directory configured this degrades to calling ``produce``
    (still honouring ``require``) and ``compiled`` is ``None``.
    """
    if require is None:
        require = bool(os.environ.get(REPRO_TRACE_CACHE_REQUIRE))
    directory = cache_dir(directory)
    key = run_cache_key(workload, config)
    eventlog = get_eventlog()
    if directory is not None:
        cached = load_run(directory, key)
        if cached is not None:
            STATS.add("hits")
            if eventlog.enabled:
                eventlog.emit("cache_hit", workload=workload,
                              key=key[:12])
            return cached
        STATS.add("misses")
        if eventlog.enabled:
            eventlog.emit("cache_miss", workload=workload,
                          key=key[:12])
    if require:
        raise TraceCacheMiss(
            f"no cached traces for workload {workload!r} (key "
            f"{key[:12]}…) and {REPRO_TRACE_CACHE_REQUIRE} forbids "
            f"regenerating them")
    run = produce()
    STATS.add("generated")
    compiled = None
    if directory is not None:
        _, compiled = store_run(directory, key, run)
    return run, compiled


def clear(directory: Union[str, Path, None] = None) -> int:
    """Delete every cache entry; returns how many were removed."""
    directory = cache_dir(directory)
    if directory is None or not directory.exists():
        return 0
    removed = 0
    for path in directory.glob("*.npz"):
        path.unlink(missing_ok=True)
        removed += 1
    return removed
