"""Telemetry survives the worker pool: a pooled sweep reports what a
serial one does.

``replay_grid`` with ``processes=2`` runs its cells in forked workers,
which hand their metric rows and spans back with each result; the
parent merges them in job order.  So the parent's registry and tracer
after a pooled sweep must match a serial sweep's — rows keyed by
(metric, labels), the store tallies, the simulated-clock spans and the
host-span names.  Host-time rows (``replay.kernel_seconds`` and
``replay.kernel_events_per_sec``) differ run to run and are left out.

On the per-cell schedule (one workload) two counters count work that
genuinely differs with scheduling, so they are bounded instead of
compared: each worker computes the trace-pure stage-1 products on its
own copy of a shared trace, so a product two workers need is computed
once per worker (``stage1_cache.misses``), and a lookup that would
have hit the serial sweep's memo misses (``stage1_cache.hits``).
Their sum, the lookups, is the same.  On the per-workload schedule
each trace lives in one worker, so every row is compared.

A fallback — a store write that failed, so the caller went uncached —
is counted where it happens, so the fallbacks of a worker that
captured a run and could not store it reach the parent the same way.
"""

import errno
import json
import os

import pytest

from repro.experiments import stage1_cache, store, trace_cache
from repro.experiments.runner import (_fork_available, clear_cache,
                                      replay_grid)
from repro.obs.metrics import global_metrics, reset_global_metrics
from repro.obs.tracer import get_tracer

# The autouse fixture gives every test a fresh tmp trace cache.
from tests.test_replay_grid import (PLATFORMS, WORKLOAD,  # noqa: F401
                                    isolated_caches)

HOST_TIME_ROWS = ("replay.kernel_seconds", "replay.kernel_events_per_sec")
SCHEDULED = ("stage1_cache.hits", "stage1_cache.misses")
#: The Chrome-trace pids of the simulated and host clock domains.
SIM_PID, HOST_PID = 0, 1


@pytest.fixture
def tracing():
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.enable()
    yield tracer
    tracer.clear()
    tracer.enabled = was_enabled
    reset_global_metrics()


def telemetry(tracer, processes, workloads=(WORKLOAD,)):
    """One sweep from cold memos, a reset registry and an empty tracer
    (the disk caches stay warm); returns what the parent then holds."""
    clear_cache()
    reset_global_metrics()
    tracer.clear()
    replay_grid(PLATFORMS, workloads, processes=processes)
    tallies = {"trace_cache": trace_cache.STATS.snapshot(),
               "stage1_cache": stage1_cache.STATS.snapshot()}
    rows = {(row["metric"], tuple(sorted(row["labels"].items()))):
            row["value"] for row in global_metrics().samples()
            if row["metric"] not in HOST_TIME_ROWS}
    events = [event for event in tracer.chrome_events()
              if event["ph"] != "M"]
    sim = [json.dumps(event, sort_keys=True) for event in events
           if event["pid"] == SIM_PID]
    host = sorted(event["name"] for event in events
                  if event["pid"] == HOST_PID)
    return rows, tallies, sim, host


def test_pooled_telemetry_equals_serial(tracing):
    if not _fork_available():
        pytest.skip("no fork start method on this platform")
    replay_grid(PLATFORMS, [WORKLOAD], processes=1)  # warm the caches

    serial_rows, serial_tallies, serial_sim, serial_host = \
        telemetry(tracing, 1)
    rows, tallies, sim, host = telemetry(tracing, 2)

    walls = [key for key in serial_rows
             if key[0] == "replay.wall_seconds"]
    assert len(walls) == len(PLATFORMS)
    assert serial_sim and "replay" in serial_host

    scheduled = {key for key in serial_rows.keys() | rows.keys()
                 if key[0] in SCHEDULED}
    # The same rows with the same values, in the same order.
    assert [(key, value) for key, value in rows.items()
            if key not in scheduled] \
        == [(key, value) for key, value in serial_rows.items()
            if key not in scheduled]
    assert host == serial_host
    assert sim == serial_sim  # merged in job order

    assert tallies["trace_cache"] == serial_tallies["trace_cache"]
    pooled, serial = tallies["stage1_cache"], serial_tallies["stage1_cache"]
    # Every worker lookup reached the parent, none twice.
    assert sum(pooled.values()) == sum(serial.values())
    assert 0 < serial["misses"] <= pooled["misses"] \
        <= 2 * serial["misses"]


def test_per_workload_pool_telemetry_equals_serial(tracing):
    """Two workloads on two processes take the per-workload schedule:
    each worker replays one workload's cells, so every trace is
    planned in one process and nothing is exempt — the stage-1 memo
    tallies and the Charon plan outcomes equal the serial sweep's
    too."""
    if not _fork_available():
        pytest.skip("no fork start method on this platform")
    workloads = ("spark-km", "graphchi-als")
    replay_grid(PLATFORMS, workloads, processes=1)  # warm the caches

    serial = telemetry(tracing, 1, workloads)
    pooled = telemetry(tracing, 2, workloads)

    rows, tallies, sim, host = pooled
    assert len([key for key in rows
                if key[0] == "replay.wall_seconds"]) == 6
    assert any(key[0] == "replay.charon_plans" for key in rows)
    assert rows == serial[0]
    assert tallies == serial[1]
    assert tallies["stage1_cache"]["hits"] > 0
    assert sim == serial[2]  # merged in job order
    assert host == serial[3]


def test_pooled_store_fallbacks_reach_the_parent(monkeypatch):
    """On the per-workload schedule the workers capture; workers whose
    trace writes hit ENOSPC count the fallbacks in their own
    registries, and the parent, which captures nothing itself, ends up
    holding every one of them, as many as a serial sweep counts."""
    if not _fork_available():
        pytest.skip("no fork start method on this platform")
    workloads = ("spark-km", "graphchi-als")
    real_replace = os.replace

    def full_disk(source, target):
        if str(target).endswith(store.TRACES.suffix):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC),
                          str(target))
        return real_replace(source, target)

    monkeypatch.setattr(os, "replace", full_disk)  # forked workers too

    def trace_counters(processes):
        clear_cache()
        reset_global_metrics()
        replay_grid(PLATFORMS, workloads, processes=processes)
        counters = {row["metric"]: row["value"]
                    for row in global_metrics().samples()
                    if not row["labels"]}
        return {field: counters.get(f"trace_cache.{field}", 0)
                for field in ("generated", "stores", "fallbacks")}

    try:
        with pytest.warns(UserWarning, match="No space left"):
            serial = trace_counters(1)
        pooled = trace_counters(2)
    finally:
        reset_global_metrics()
    # Nothing was stored, so the pooled sweep captured every run again.
    assert pooled == serial == {"generated": len(workloads), "stores": 0,
                                "fallbacks": len(workloads)}
