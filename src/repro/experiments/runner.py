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
  and of the metrics, spans and provenance records each worker
  recorded.  With a trace-cache directory and at least as many
  workloads to replay as processes, each workload is one task that
  captures (or reads) its run and replays its cells in one worker;
  otherwise the runs are captured in the parent first and each cell
  is one task.  A sweep that is killed re-runs warm: its captures are
  already in the trace cache, so the re-run only replays.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import time
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.config import SystemConfig, default_config, settings
from repro.errors import ConfigError, OutOfMemoryError
from repro.experiments import store, trace_cache
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


def _replay_cells(task: Tuple[tuple, ...]) -> List[GCTimingResult]:
    """Replay a task's cells: the per-cell schedule's task function
    (one cell per task).  ``replay_platform`` is looked up when a cell
    runs, so a rebound module attribute is what every cell calls."""
    return [replay_platform(platform_name, name, heap_bytes=heap_bytes,
                            threads=threads)
            for platform_name, name, heap_bytes, threads in task]


def _replay_workload(task: Tuple[tuple, ...]) -> List[GCTimingResult]:
    """Collect one workload's run (capture and store it, or take a
    trace-cache hit), then replay its cells: the per-workload
    schedule's task function.  A run the process did not hold before
    is dropped afterwards, which bounds a worker's resident set."""
    _, name, heap_bytes, _ = task[0]
    key = (name, heap_bytes or default_heap_bytes(name))
    held = key in _RUN_CACHE
    try:
        gc_traces(name, heap_bytes)
        return _replay_cells(task)
    finally:
        if not held:
            _RUN_CACHE.pop(key, None)


def _stored_bytes(directory: Path, task: Tuple[tuple, ...]) -> float:
    """A per-workload task's cost: the size of its trace-cache entry,
    or infinity when there is none yet (it captures first)."""
    _, name, heap_bytes, _ = task[0]
    key = trace_cache.run_cache_key(name, workload_config(name, heap_bytes))
    try:
        return store.TRACES.path(directory, key).stat().st_size
    except OSError:
        return float("inf")


def _drain_telemetry() -> tuple:
    """Take this worker's metric rows, spans and provenance records.
    As the pool initializer it drops the fork's copies of the
    parent's."""
    return (global_metrics().drain(),
            get_tracer().drain(host_tid=os.getpid()),
            provenance.drain_runs())


def _run_task(function: Callable, item) -> tuple:
    return function(item), _drain_telemetry()


def _fan_out(function: Callable, items: Sequence, processes: int,
             cost: Optional[Callable] = None) -> list:
    """``[function(item) for item in items]``, on worker processes.

    The only code that creates worker processes: a fork-context pool
    made for this call, one item per task (grid tasks are coarse and
    uneven, and contiguous chunks can serialize the most expensive
    ones onto one worker), reaped before returning.  Items start in
    descending ``cost(item)`` when ``cost`` is given (equal costs in
    list order), else in list order.  It runs serially in this
    process when ``processes <= 1``, for a single item, or where
    ``fork`` does not exist.

    Each task returns the metric rows, spans and provenance records
    its worker recorded, merged here in item order, whatever order the
    items ran in, so telemetry reads as if the items had run in this
    process.

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

    order = range(len(items))
    if cost is not None:
        order = sorted(order, key=lambda index: -cost(items[index]))
    task = functools.partial(_run_task, function)
    results: list = []
    context = multiprocessing.get_context("fork")
    try:
        with ProcessPoolExecutor(min(processes, len(items)),
                                 mp_context=context,
                                 initializer=_drain_telemetry) as pool:
            futures = {index: pool.submit(task, items[index])
                       for index in order}
            try:
                for index in range(len(items)):
                    result, (rows, events, runs) = futures[index].result()
                    global_metrics().merge(rows)
                    get_tracer().merge(events)
                    provenance.merge_runs(runs)
                    results.append(result)
            finally:
                for future in futures.values():
                    future.cancel()
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
    this call (default from ``REPRO_JOBS``; see :func:`_fan_out`), on
    one of two schedules:

    * **per workload**, when a trace-cache directory is configured and
      at least ``processes`` workloads have cells to replay: one task
      per workload collects its run in a worker (capture and store, or
      a trace-cache hit) and replays that workload's cells there, so
      capture runs in parallel and each trace's stage-1 products are
      computed by one process.  Tasks start largest trace-cache entry
      first; workloads still to capture start first, in grid order.
      The worker drops the run afterwards, and no run travels back:
      the parent's run memo stays as it was.
    * **per cell**, otherwise: the runs of the workloads with cells
      to replay are captured in the parent first, so workers inherit
      the traces instead of regenerating them, and each cell is one
      task.  Without a cache
      this is the only schedule that leaves the parent's run memo warm
      for later replays; for a single workload it is the only one that
      keeps the cells parallel.

    Results merge back in job order, so the outcome — including the
    parent's replay memo and its telemetry — is identical to a serial
    sweep regardless of worker scheduling.  Tasks a dead worker left
    unfinished run in the parent through the same task function.  A
    workload that ran no collection is a ``ConfigError`` before any of
    its cells replays (before any cell at all on the per-cell
    schedule).
    """
    platform_names = list(platform_names)
    workload_names = list(workload_names)
    if processes is None:
        processes = settings().jobs
    jobs = [(platform, name, heap_bytes, threads)
            for name in workload_names for platform in platform_names]
    by_workload: Dict[str, list] = {}
    for job in jobs:
        if _memo_key(job) not in _REPLAY_CACHE:
            by_workload.setdefault(job[1], []).append(job)
    directory = store.resolve()
    cost = None
    if directory is not None and 1 < processes <= len(by_workload) \
            and _fork_available():
        function = _replay_workload
        tasks = [tuple(cells) for cells in by_workload.values()]
        cost = functools.partial(_stored_bytes, directory)
    else:
        for name in by_workload:
            gc_traces(name, heap_bytes)
        function = _replay_cells
        tasks = [(job,) for cells in by_workload.values() for job in cells]
    results = _fan_out(function, tasks, processes, cost)
    # A dead worker's tasks: finish them here.
    results += [function(task) for task in tasks[len(results):]]
    for task, cells in zip(tasks, results):
        for job, result in zip(task, cells):
            _REPLAY_CACHE[_memo_key(job)] = result
    return {job[:2]: _REPLAY_CACHE[_memo_key(job)] for job in jobs}


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
