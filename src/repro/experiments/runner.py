"""Run workloads, cache their traces, and replay them on platforms.

This module is the capture-once/replay-many hub of the experiment
pipeline:

* functional runs are memoised in-process (``_RUN_CACHE``) *and*
  persisted through the content-addressed
  :mod:`~repro.experiments.trace_cache`, so a warmed cache directory
  lets a whole benchmark session replay without executing a collector;
* a run's traces hold their events as columns (read from the entry
  on a hit, sealed as each collection ends on a capture), and
  :func:`replay_platform` replays them through
  :class:`~repro.platform.fast_replay.FastTraceReplayer` — a sweep
  never builds per-event objects;
* :func:`replay_grid` fans the platform x workload grid out over a
  fork pool made per call (:func:`_fan_out`, the one place worker
  processes are created) with a deterministic merge of the results
  and of the metrics and spans each worker recorded.  A sweep that is
  killed re-runs warm: its captures and stage-1 products are already
  in the caches, so the re-run only replays.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import time
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.config import SystemConfig, default_config, settings
from repro.errors import ConfigError, OutOfMemoryError
from repro.experiments import trace_cache
from repro.obs import provenance
from repro.obs.adapters import timing_metrics
from repro.obs.metrics import global_metrics
from repro.obs.tracer import get_tracer
from repro.platform import build_platform, native
from repro.platform.fast_replay import FastTraceReplayer
from repro.platform.timing import GCTimingResult
from repro.workloads import get_workload, run_workload
from repro.workloads.mutator import WorkloadRun

_RUN_CACHE: Dict[Tuple[str, int], WorkloadRun] = {}
_REPLAY_CACHE: Dict[tuple, GCTimingResult] = {}


def default_heap_bytes(name: str) -> int:
    """The registered workload's default heap size.

    For the Table 3 applications this is the paper heap scaled by
    1/256; synthetic workloads (like ``concurrent-mark``) declare
    their own sizes, which ``scaled_heap_bytes`` knows nothing about.
    """
    return get_workload(name).default_heap_bytes


def workload_config(name: str,
                    heap_bytes: Optional[int] = None) -> SystemConfig:
    """The Table 2 system configuration sized for ``name``'s heap."""
    resolved = heap_bytes or default_heap_bytes(name)
    return default_config().with_heap_bytes(resolved)


def collect_run(name: str,
                heap_bytes: Optional[int] = None) -> WorkloadRun:
    """Run (or fetch the cached run of) a workload.

    The functional execution is deterministic, so traces are safely
    memoised per (workload, heap size) — in this process and, when
    ``REPRO_TRACE_CACHE`` names a directory, on disk through the
    content-addressed trace cache.
    """
    resolved = heap_bytes or default_heap_bytes(name)
    key = (name, resolved)
    if key not in _RUN_CACHE:
        config = workload_config(name, resolved)
        started = time.perf_counter()
        generated = False

        def produce() -> WorkloadRun:
            nonlocal generated
            generated = True
            return run_workload(name, heap_bytes=resolved)

        with get_tracer().span("collect-run", cat="runner",
                               workload=name):
            run = trace_cache.fetch_run(name, config, produce)
        provenance.record_run(
            workload=name, heap_bytes=resolved,
            config_hash=trace_cache.run_cache_key(name, config),
            cache="generated" if generated else "hit",
            host_seconds=time.perf_counter() - started)
        _RUN_CACHE[key] = run
    return _RUN_CACHE[key]


def clear_cache() -> None:
    _RUN_CACHE.clear()
    _REPLAY_CACHE.clear()


def gc_traces(name: str, heap_bytes: Optional[int]) -> list:
    """The run's GC traces; a heap so large that the workload never
    collects leaves nothing to replay, which is a ``ConfigError``."""
    traces = collect_run(name, heap_bytes).traces
    if not traces:
        resolved = heap_bytes or default_heap_bytes(name)
        raise ConfigError(
            f"{name} ran no collection in a {resolved / 2**20:g} MiB "
            "heap, so there is no GC to replay; use a smaller heap")
    return traces


def replay_platform(platform_name: str, name: str,
                    heap_bytes: Optional[int] = None,
                    config: Optional[SystemConfig] = None,
                    threads: Optional[int] = None) -> GCTimingResult:
    """Replay a workload's full GC history on one platform.

    Results are memoised on ``(platform, workload, config, threads)`` —
    everything the result depends on (``SystemConfig`` is a frozen,
    hashable dataclass, so any field changed is a new key).  The traces'
    columns replay through the platform's kernel, so a process whose
    run memo was primed (from the trace cache, or inherited across the
    pool's fork) replays without capturing.
    """
    resolved_config = config or workload_config(name, heap_bytes)
    key = (platform_name, name, resolved_config, threads)
    if key not in _REPLAY_CACHE:
        traces = gc_traces(name, heap_bytes)
        platform = build_platform(platform_name, resolved_config)
        replayer = FastTraceReplayer(platform, threads=threads)
        with get_tracer().span("replay", cat="runner", workload=name,
                               platform=platform_name):
            result = replayer.replay_all(traces)
        timing_metrics(global_metrics(), result, workload=name)
        _REPLAY_CACHE[key] = result
    return _REPLAY_CACHE[key]


# -- grid fan-out ----------------------------------------------------------

def _memo_key(job: tuple) -> tuple:
    """The _REPLAY_CACHE key a job resolves to."""
    platform_name, name, heap_bytes, threads = job
    return (platform_name, name, workload_config(name, heap_bytes),
            threads)


def _replay_cell(job: tuple) -> GCTimingResult:
    """Replay one grid cell.  ``replay_platform`` is looked up when the
    cell runs, so a rebound module attribute is what every cell calls."""
    platform_name, name, heap_bytes, threads = job
    return replay_platform(platform_name, name, heap_bytes=heap_bytes,
                           threads=threads)


def _drain_telemetry() -> tuple:
    """Take this worker's metric rows and spans.  As the pool
    initializer it drops the fork's copies of the parent's."""
    return (global_metrics().drain(),
            get_tracer().drain(host_tid=os.getpid()))


def _run_task(function: Callable, item) -> tuple:
    return function(item), _drain_telemetry()


def _fan_out(function: Callable, items: Sequence,
             processes: int) -> list:
    """``[function(item) for item in items]``, on worker processes.

    The only code that creates worker processes: a fork-context pool
    made for this call, one item per task (grid cells are coarse and
    uneven, and contiguous chunks can serialize the most expensive
    ones onto one worker), reaped before returning.  It runs serially
    in this process when ``processes <= 1``, for a single item, or
    where ``fork`` does not exist.

    Each task returns the metric rows and spans its worker recorded,
    merged here in item order, so telemetry reads as if the items had
    run in this process.

    An exception raised in a worker reaches the caller.  A worker that
    *dies* breaks the pool instead: the ``fanout.fallbacks`` counter
    counts it and the results received so far — a prefix of the list —
    are returned, so the caller finishes the missing items itself.  A
    dead worker's unsent telemetry is lost, so nothing is counted
    twice.
    """
    if processes <= 1 or len(items) <= 1 or not _fork_available():
        return [function(item) for item in items]
    # Build or fetch the compiled stage-2 loop here, once, so every
    # worker inherits the loaded library; a missing compiler is left
    # for the workers' replay kernels to report.
    with contextlib.suppress(ConfigError):
        native.library()
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    results: list = []
    context = multiprocessing.get_context("fork")
    try:
        with ProcessPoolExecutor(min(processes, len(items)),
                                 mp_context=context,
                                 initializer=_drain_telemetry) as pool:
            for result, (rows, events) in pool.map(
                    functools.partial(_run_task, function), items):
                global_metrics().merge(rows)
                get_tracer().merge(events)
                results.append(result)
    except BrokenProcessPool:
        global_metrics().add("fanout.fallbacks", description=(
            "pools broken by a dead worker; the parent finished the "
            "rest"))
    return results


def replay_grid(platform_names: Iterable[str],
                workload_names: Iterable[str],
                heap_bytes: Optional[int] = None,
                threads: Optional[int] = None,
                processes: Optional[int] = None
                ) -> Dict[Tuple[str, str], GCTimingResult]:
    """Replay every platform x workload pair; returns the result grid.

    ``processes`` > 1 fans the pairs out over a fork pool made for
    this call (default from ``REPRO_JOBS``; see :func:`_fan_out`).
    Workload runs are captured in the parent first, so
    workers inherit the traces instead of regenerating them; results
    merge back in job order, so the outcome — including the parent's
    replay memo — is identical to a serial sweep regardless of worker
    scheduling.  Cells a dead worker left unfinished are replayed in
    the parent.  A workload that ran no collection is a ``ConfigError``
    before any cell replays.
    """
    platform_names = list(platform_names)
    workload_names = list(workload_names)
    if processes is None:
        processes = settings().jobs
    jobs = [(platform, name, heap_bytes, threads)
            for name in workload_names for platform in platform_names]
    for name in workload_names:
        gc_traces(name, heap_bytes)
    pending = [job for job in jobs if _memo_key(job) not in _REPLAY_CACHE]
    for job, result in zip(pending,
                           _fan_out(_replay_cell, pending, processes)):
        _REPLAY_CACHE[_memo_key(job)] = result
    grid: Dict[Tuple[str, str], GCTimingResult] = {}
    for job in jobs:
        result = _REPLAY_CACHE.get(_memo_key(job))
        if result is None:  # a dead worker's cell: finish it here
            result = _replay_cell(job)
        grid[job[:2]] = result
    return grid


def _fork_available() -> bool:
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


def find_min_heap(name: str, granularity_fraction: float = 0.125,
                  lower_fraction: float = 0.25) -> int:
    """Smallest heap (to a granularity) at which the workload survives.

    The Fig. 2 methodology: shrink the heap until the run dies with an
    out-of-memory error, then report the smallest surviving size.
    Searches between ``lower_fraction`` and 1.0 of the Table 3 heap by
    bisection at ``granularity_fraction`` steps.
    """
    default_bytes = default_heap_bytes(name)
    granularity = max(1 << 20, int(default_bytes * granularity_fraction))

    def survives(heap_bytes: int) -> bool:
        try:
            collect_run(name, heap_bytes=heap_bytes)
            return True
        except OutOfMemoryError:
            return False

    low = int(default_bytes * lower_fraction) // granularity
    high = default_bytes // granularity
    if not survives(high * granularity):
        raise OutOfMemoryError(
            f"{name} does not survive its Table 3 heap; "
            "workload parameters are inconsistent")
    while low < high:
        mid = (low + high) // 2
        if survives(mid * granularity):
            high = mid
        else:
            low = mid + 1
    return high * granularity
