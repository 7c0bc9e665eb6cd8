"""Tests for the warm sweep engine.

The persistent stage-1 product cache must be invisible in the results
— a warm sweep returns field-identical grids to a cold serial sweep —
while being loudly visible in the tallies (hits, misses, stores) that
``bench_sweep`` and ``repro stats`` report.  The crash test pins the
failure contract of the fork-pool fan-out: a raising cell surfaces its
error to the caller (never a hang, never a silently dropped cell).
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.config import TRACE_CACHE_ENV, TRACE_CACHE_REQUIRE_ENV
from repro.experiments import runner, stage1_cache, store
from repro.experiments.runner import clear_cache, replay_grid

WORKLOAD = "graphchi-als"  # fastest real workload
PLATFORMS = ("cpu-ddr4", "ideal", "charon")


@pytest.fixture(autouse=True)
def warm_sweep_isolation(tmp_path, monkeypatch):
    """A throwaway disk cache and fresh memos and tallies."""
    monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "cache"))
    monkeypatch.delenv(TRACE_CACHE_REQUIRE_ENV, raising=False)
    clear_cache()
    stage1_cache.STATS.reset()
    yield
    clear_cache()
    stage1_cache.STATS.reset()


def grids_equal(a, b):
    assert list(a) == list(b)
    for key, result in a.items():
        assert b[key] == result  # dataclass field-by-field equality


class TestStage1Cache:
    def test_store_load_round_trip(self, tmp_path):
        arrays = (np.arange(5, dtype=np.int64),
                  np.ones((2, 3)) * 0.25)
        key = "ab" * 32
        stage1_cache.save(tmp_path, key, arrays)
        loaded = stage1_cache.load(tmp_path, key)
        assert len(loaded) == len(arrays)
        for original, back in zip(arrays, loaded):
            np.testing.assert_array_equal(back, original)
            assert back.dtype == original.dtype

    def test_cold_then_warm_sweep_is_bit_exact(self):
        cold = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        stats = stage1_cache.STATS.snapshot()
        assert stats["misses"] > 0
        assert stats["stores"] == stats["misses"]
        assert stats["hits"] == 0
        clear_cache()
        stage1_cache.STATS.reset()
        warm = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        stats = stage1_cache.STATS.snapshot()
        assert stats["hits"] > 0
        assert stats["misses"] == 0  # the 100%-hit-rate contract
        grids_equal(cold, warm)

    def test_unset_directory_degrades_to_recompute(self, monkeypatch):
        monkeypatch.delenv(TRACE_CACHE_ENV)
        grid = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        assert len(grid) == len(PLATFORMS)
        assert stage1_cache.STATS.snapshot() == {
            "hits": 0, "misses": 0, "stale": 0, "stores": 0}

    def test_require_serves_warm_and_rejects_cold(self, monkeypatch):
        replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        stage1_cache.STATS.reset()
        monkeypatch.setenv(TRACE_CACHE_REQUIRE_ENV, "1")
        replay_grid(PLATFORMS, [WORKLOAD], processes=1)  # all hits: ok
        assert stage1_cache.STATS.snapshot()["misses"] == 0
        clear_cache()
        # Clearing the stage-1 namespace keeps the traces: the next
        # miss is a stage-1 product's.
        assert store.STAGE1.clear(os.environ[TRACE_CACHE_ENV]) > 0
        assert store.TRACES.entries(os.environ[TRACE_CACHE_ENV])
        with pytest.raises(store.CacheMiss, match="stage1-cache"):
            replay_grid(PLATFORMS, [WORKLOAD], processes=1)

    def test_stale_entry_is_discarded_and_regenerated(self):
        reference = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        entries = sorted(
            Path(os.environ[TRACE_CACHE_ENV]).glob("*.stage1.npz"))
        assert entries
        entries[0].write_bytes(b"not an npz archive")
        clear_cache()
        stage1_cache.STATS.reset()
        with pytest.warns(UserWarning, match="stale stage1-cache"):
            regenerated = replay_grid(PLATFORMS, [WORKLOAD],
                                      processes=1)
        grids_equal(reference, regenerated)
        stats = stage1_cache.STATS.snapshot()
        assert stats["stale"] == 1
        assert stats["stores"] == 1  # only the corrupted entry rebuilt


class TestColumnsAreTheRun:
    """A trace-cache hit holds columns only: a warm sweep never builds
    per-event objects, and ``run.traces`` builds them once, on demand."""

    def test_warm_sweep_never_decompiles(self, monkeypatch):
        from repro.experiments import figures, trace_cache
        from repro.gcalgo.columnar import CompiledTrace
        from repro.platform.replay import TraceReplayer

        names = ["spark-km", "graphchi-als"]
        for name in names:
            runner.collect_run(name)  # fills the trace cache
        clear_cache()
        trace_cache.STATS.reset()

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm sweep decompiled a trace or "
                                 "replayed it event by event")

        monkeypatch.setattr(CompiledTrace, "to_trace", forbidden)
        monkeypatch.setattr(TraceReplayer, "replay", forbidden)
        grid = replay_grid(figures.FIG12_PLATFORMS, names, processes=1)
        assert len(grid) == len(figures.FIG12_PLATFORMS) * len(names)
        assert figures.figure4(["spark-km"])
        assert trace_cache.STATS["hits"] == len(names)
        assert trace_cache.STATS["generated"] == 0

    def test_hit_materialises_traces_once_on_demand(self, monkeypatch):
        from repro.gcalgo.columnar import CompiledTrace
        from repro.gcalgo.trace_io import trace_to_dict

        captured = runner.collect_run(WORKLOAD)
        clear_cache()
        decode = CompiledTrace.to_trace
        decoded = []

        def counting(trace):
            decoded.append(trace)
            return decode(trace)

        monkeypatch.setattr(CompiledTrace, "to_trace", counting)
        run = runner.collect_run(WORKLOAD)
        assert run is not captured
        assert run.gc_count == len(captured.traces)
        assert (run.minor_count, run.major_count) \
            == (captured.minor_count, captured.major_count)
        assert decoded == []
        traces = run.traces
        assert decoded == run.compiled
        assert run.traces is traces
        assert len(decoded) == run.gc_count
        eager = [trace_to_dict(decode(trace)) for trace in run.compiled]
        assert [trace_to_dict(trace) for trace in traces] == eager
        assert eager == [trace_to_dict(t) for t in captured.traces]


class TestSerialFallback:
    def test_fork_less_platform_runs_serially(self, monkeypatch):
        """Without ``fork`` the fan-out runs every cell in this
        process and returns the serial grid."""
        serial = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        monkeypatch.setattr(runner, "_fork_available", lambda: False)
        original = runner.replay_platform
        pids = []

        def spy(*args, **kwargs):
            pids.append(os.getpid())
            return original(*args, **kwargs)

        monkeypatch.setattr(runner, "replay_platform", spy)
        unforked = replay_grid(PLATFORMS, [WORKLOAD], processes=2)
        grids_equal(serial, unforked)
        assert pids == [os.getpid()] * len(PLATFORMS)


class TestWorkerCrash:
    def test_classic_pool_propagates_worker_error(self, monkeypatch):
        if not runner._fork_available():
            pytest.skip("no fork start method on this platform")
        runner.collect_run(WORKLOAD)
        runner.compiled_run_traces(WORKLOAD)

        def boom(*args, **kwargs):
            raise RuntimeError("injected cell failure")

        monkeypatch.setattr(runner, "replay_platform", boom)
        with pytest.raises(RuntimeError, match="injected cell failure"):
            replay_grid(PLATFORMS, [WORKLOAD], processes=2)


class TestMemoServedRebuild:
    def test_memo_hits_skip_replay_platform(self, monkeypatch):
        """The rebuild fix: a fully memo-served grid must not call
        replay_platform per cell — it returns straight from the
        replay memo."""
        first = replay_grid(PLATFORMS, [WORKLOAD], processes=1)

        def boom(*args, **kwargs):
            raise AssertionError(
                "replay_platform called for a memo-served cell")

        monkeypatch.setattr(runner, "replay_platform", boom)
        second = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        for key, result in first.items():
            assert second[key] is result


class TestEventLog:
    def test_warm_sweep_emits_typed_records(self, tmp_path):
        from repro.obs import eventlog
        log = eventlog.get_eventlog()
        log.open(tmp_path / "events.jsonl")
        try:
            replay_grid(PLATFORMS, [WORKLOAD], processes=1)
            clear_cache()
            replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        finally:
            log.close()
        records = eventlog.read_events(tmp_path / "events.jsonl")
        stage1 = [record for record in records
                  if record.get("namespace") == "stage1_cache"]
        assert {"cache_miss", "cache_hit"} <= {
            record["event"] for record in stage1}
        for record in stage1:
            assert "kernel" in record and "key" in record
