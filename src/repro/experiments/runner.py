"""Run workloads, cache their traces, and replay them on platforms.

This module is the capture-once/replay-many hub of the experiment
pipeline:

* functional runs are memoised in-process (``_RUN_CACHE``) *and*
  persisted through the content-addressed
  :mod:`~repro.experiments.trace_cache`, so a warmed cache directory
  lets a whole benchmark session replay without executing a collector;
* a run's columnar traces (``run.compiled``: read from the entry on
  a hit, compiled once after a capture) are its one in-memory form,
  and :func:`replay_platform` replays them through
  :class:`~repro.platform.fast_replay.FastTraceReplayer` — a sweep
  never decompiles them to per-event objects;
* :func:`replay_grid` fans the platform x workload grid out over a
  fork pool made per call (:func:`_fan_out`, the one place worker
  processes are created) with a deterministic merge.  With a shard
  journal configured (``REPRO_SHARD_JOURNAL`` or ``journal=``), the
  grid decomposes into durable per-cell shards: workers *steal*
  pending shards through :mod:`~repro.experiments.shard_journal` claim
  files, every finished cell persists immediately, and an interrupted
  sweep resumes from the completed shards with a byte-identical merge.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import time
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from repro.config import (SystemConfig, default_config,
                          default_replay_jobs)
from repro.errors import ConfigError, OutOfMemoryError
from repro.experiments import progress, shard_journal, trace_cache
from repro.gcalgo.columnar import CompiledTrace
from repro.heap.heap import JavaHeap
from repro.obs import provenance
from repro.obs.adapters import timing_metrics
from repro.obs.eventlog import get_eventlog
from repro.obs.metrics import global_metrics
from repro.obs.tracer import get_tracer
from repro.platform import build_platform, native
from repro.platform.fast_replay import FastTraceReplayer
from repro.platform.timing import GCTimingResult
from repro.workloads import get_workload, run_workload
from repro.workloads.base import workload_klasses
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


def compiled_run_traces(name: str,
                        heap_bytes: Optional[int] = None
                        ) -> List[CompiledTrace]:
    """A workload run's traces in columnar form (compiled once)."""
    return collect_run(name, heap_bytes).compiled


def clear_cache() -> None:
    _RUN_CACHE.clear()
    _REPLAY_CACHE.clear()


def layout_heap(name: str,
                heap_bytes: Optional[int] = None) -> JavaHeap:
    """A heap with the same address layout the cached run used.

    Platforms only need the layout/metadata addresses, which depend
    solely on the heap configuration.
    """
    config = workload_config(name, heap_bytes)
    return JavaHeap(config.heap, klasses=workload_klasses())


def _replay_key(platform_name: str, name: str, config: SystemConfig,
                threads: Optional[int]) -> tuple:
    """Memo key: the parameters that affect replay timing."""
    charon = config.charon
    return (platform_name, name, config.heap.heap_bytes,
            threads, config.gc_threads, charon.distributed,
            charon.copy_search_units, charon.bitmap_count_units,
            charon.scan_push_units, charon.bitmap_cache_enabled,
            charon.scan_push_local, config.hmc.topology,
            config.costs.charon_dispatch_overhead_s)


def replay_platform(platform_name: str, name: str,
                    heap_bytes: Optional[int] = None,
                    config: Optional[SystemConfig] = None,
                    threads: Optional[int] = None) -> GCTimingResult:
    """Replay a workload's full GC history on one platform.

    Results are memoised on the parameters that affect timing (platform,
    heap, thread count, Charon organisation/unit counts).  The compiled
    columnar traces replay through the platform's kernel, so a process
    whose run memo was primed (from the trace cache, or inherited across
    the pool's fork) replays without capturing or decompiling.
    """
    resolved_config = config or workload_config(name, heap_bytes)
    key = _replay_key(platform_name, name, resolved_config, threads)
    if key not in _REPLAY_CACHE:
        heap = JavaHeap(resolved_config.heap,
                        klasses=workload_klasses())
        platform = build_platform(platform_name, resolved_config, heap)
        replayer = FastTraceReplayer(platform, threads=threads)
        traces = compiled_run_traces(name, heap_bytes)
        with get_tracer().span("replay", cat="runner", workload=name,
                               platform=platform_name):
            result = replayer.replay_all(traces)
        timing_metrics(global_metrics(), result, workload=name)
        _REPLAY_CACHE[key] = result
    return _REPLAY_CACHE[key]


# -- grid fan-out ----------------------------------------------------------

def _grid_worker(job: tuple) -> GCTimingResult:
    platform_name, name, heap_bytes, threads = job
    return replay_platform(platform_name, name, heap_bytes=heap_bytes,
                           threads=threads)


def _memo_key(job: tuple) -> tuple:
    """The _REPLAY_CACHE key a job resolves to."""
    platform_name, name, heap_bytes, threads = job
    return _replay_key(platform_name, name,
                       workload_config(name, heap_bytes), threads)


def _journal_worker(payload: tuple) -> None:
    """One pool worker's work-stealing pass over the pending shards."""
    directory, items = payload
    shard_journal.sweep_shards(Path(directory), dict(items),
                               _grid_worker)


def _fan_out(function: Callable, items: Sequence,
             processes: int) -> list:
    """``[function(item) for item in items]``, on worker processes.

    The only code that creates worker processes: a fork-context pool
    made for this call, one item per task (grid cells are coarse and
    uneven, and contiguous chunks can serialize the most expensive
    ones onto one worker), reaped before returning.  It runs serially
    in this process when ``processes <= 1``, for a single item, or
    where ``fork`` does not exist.

    An exception raised in a worker reaches the caller.  A worker that
    *dies* breaks the pool instead: one ``fallback`` event is emitted
    and the results received so far — a prefix of the list — are
    returned, so the caller finishes the missing items itself.
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
                                 mp_context=context) as pool:
            for result in pool.map(function, items):
                results.append(result)
    except BrokenProcessPool:
        eventlog = get_eventlog()
        if eventlog.enabled:
            eventlog.emit("fallback", to="serial",
                          done=len(results), items=len(items))
    return results


def replay_grid(platform_names: Iterable[str],
                workload_names: Iterable[str],
                heap_bytes: Optional[int] = None,
                threads: Optional[int] = None,
                processes: Optional[int] = None,
                journal: Union[str, Path, None] = None
                ) -> Dict[Tuple[str, str], GCTimingResult]:
    """Replay every platform x workload pair; returns the result grid.

    ``processes`` > 1 fans the pairs out over a fork pool made for
    this call (default from ``REPRO_JOBS``; see :func:`_fan_out`).
    Workload runs are captured and compiled in the parent first, so
    workers inherit the traces instead of regenerating them; results
    merge back in job order, so the outcome — including the parent's
    replay memo — is identical to a serial sweep regardless of worker
    scheduling.  Cells a dead worker left unfinished are replayed in
    the parent.

    With a journal directory (``journal=`` or ``REPRO_SHARD_JOURNAL``)
    the sweep becomes durable and work-stealing: each cell is a shard
    keyed on its replay parameters, completed shards persist the moment
    they finish and are *not* re-executed on a resumed sweep (they load
    back through :func:`~repro.experiments.shard_journal.load_shard`,
    counted as ``hits``), and pool workers claim pending shards
    first-come-first-served instead of a static partition.  The merged
    grid is byte-identical whether the sweep ran once or resumed.
    """
    platform_names = list(platform_names)
    workload_names = list(workload_names)
    if processes is None:
        processes = default_replay_jobs()
    jobs = [(platform, name, heap_bytes, threads)
            for name in workload_names for platform in platform_names]
    for name in workload_names:
        compiled_run_traces(name, heap_bytes)
    journal_path = shard_journal.journal_dir(journal)
    if journal_path is not None:
        _sweep_journaled(journal_path, jobs, processes)
    else:
        pending = [job for job in jobs
                   if _memo_key(job) not in _REPLAY_CACHE]
        results = _fan_out(_grid_worker, pending, processes)
        for job, result in zip(pending, results):
            _REPLAY_CACHE[_memo_key(job)] = result
    # Journal/memo hits return straight from the replay memo — the old
    # per-cell replay_platform rebuild re-derived every memo key (and
    # config) even when nothing was left to replay.
    grid: Dict[Tuple[str, str], GCTimingResult] = {}
    for job in jobs:
        platform, name, job_heap, job_threads = job
        result = _REPLAY_CACHE.get(_memo_key(job))
        if result is None:  # a dead worker's cell: finish it here
            result = replay_platform(platform, name,
                                     heap_bytes=job_heap,
                                     threads=job_threads)
        grid[(platform, name)] = result
    return grid


def _sweep_journaled(directory: Path, jobs: List[tuple],
                     processes: int) -> None:
    """Run the grid as durable shards, resuming completed ones.

    Fills ``_REPLAY_CACHE`` for every job.  Shards already in the
    journal load without executing a replay; the rest are swept with
    work-stealing claims by up to ``processes`` stealers (through
    :func:`_fan_out`), then by a final pass in the parent, which is
    the backstop should a worker die mid-shard: the dead workers'
    claims are cleared first, so their cells still run and persist.

    The parent also announces the grid to the progress monitor
    (``sweep.json`` + ``progress.json`` beside the journal, and the
    live ``/progress`` endpoint when one is serving): every shard's
    state is thereafter derivable from the journal itself, so watchers
    see completion reach 100% exactly when the last shard persists —
    memo-served cells are backfilled into the journal so they count as
    done rather than lingering as phantom pendings.
    """
    shard_journal.reset_claims(directory)
    pending: Dict[str, tuple] = {}
    manifest: Dict[str, dict] = {}
    for job in jobs:
        platform_name, name, heap_bytes, threads = job
        memo_key = _memo_key(job)
        key = shard_journal.shard_key(memo_key)
        manifest[key] = {
            "platform": platform_name,
            "workload": name,
            "heap_bytes": heap_bytes,
            "threads": threads,
            "events": sum(len(trace) for trace
                          in compiled_run_traces(name, heap_bytes)),
        }
        if memo_key in _REPLAY_CACHE:
            if not shard_journal.has_shard(directory, key):
                shard_journal.store_shard(directory, key,
                                          _REPLAY_CACHE[memo_key])
            continue
        cached = shard_journal.load_shard(directory, key)
        if cached is not None:
            shard_journal.STATS.add("hits")
            _REPLAY_CACHE[memo_key] = cached
        else:
            pending[key] = job
    progress.write_sweep_manifest(directory, manifest)
    progress.attach_live(directory)
    progress.refresh_progress(directory)
    stealers = min(processes, len(pending))
    payload = (str(directory), tuple(pending.items()))
    if len(_fan_out(_journal_worker, [payload] * stealers,
                    processes)) < stealers:
        shard_journal.reset_claims(directory)  # the dead workers' claims
    # The backstop: cells no stealer journaled (a dead worker's, a failed
    # write) that this process's memo does not already hold.
    shard_journal.sweep_shards(
        directory, {key: job for key, job in pending.items()
                    if _memo_key(job) not in _REPLAY_CACHE},
        _grid_worker)
    for key, job in pending.items():
        result = shard_journal.load_shard(directory, key)
        if result is not None:
            _REPLAY_CACHE[_memo_key(job)] = result
    progress.refresh_progress(directory)


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
