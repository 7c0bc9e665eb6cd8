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

from repro.config import (STAGE1_CACHE_ENV, STAGE1_CACHE_REQUIRE_ENV,
                          TRACE_CACHE_ENV)
from repro.experiments import runner, stage1_cache
from repro.experiments.runner import clear_cache, replay_grid

WORKLOAD = "graphchi-als"  # fastest real workload
PLATFORMS = ("cpu-ddr4", "ideal", "charon")


@pytest.fixture(autouse=True)
def warm_sweep_isolation(tmp_path, monkeypatch):
    """Throwaway disk caches and fresh memos and tallies."""
    monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "trace-cache"))
    monkeypatch.setenv(STAGE1_CACHE_ENV, str(tmp_path / "stage1"))
    monkeypatch.delenv(STAGE1_CACHE_REQUIRE_ENV, raising=False)
    clear_cache()
    stage1_cache.reset_stats()
    yield
    clear_cache()
    stage1_cache.reset_stats()


def grids_equal(a, b):
    assert list(a) == list(b)
    for key, result in a.items():
        assert b[key] == result  # dataclass field-by-field equality


class TestStage1Cache:
    def test_store_load_round_trip(self, tmp_path):
        arrays = (np.arange(5, dtype=np.int64),
                  np.ones((2, 3)) * 0.25)
        key = "ab" * 32
        stage1_cache.store(tmp_path, key, arrays)
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
        stage1_cache.reset_stats()
        warm = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        stats = stage1_cache.STATS.snapshot()
        assert stats["hits"] > 0
        assert stats["misses"] == 0  # the 100%-hit-rate contract
        grids_equal(cold, warm)

    def test_unset_directory_degrades_to_recompute(self, monkeypatch):
        monkeypatch.delenv(STAGE1_CACHE_ENV)
        grid = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        assert len(grid) == len(PLATFORMS)
        assert stage1_cache.STATS.snapshot() == {
            "hits": 0, "misses": 0, "stale": 0, "stores": 0}

    def test_require_serves_warm_and_rejects_cold(self, monkeypatch):
        replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        stage1_cache.reset_stats()
        monkeypatch.setenv(STAGE1_CACHE_REQUIRE_ENV, "1")
        replay_grid(PLATFORMS, [WORKLOAD], processes=1)  # all hits: ok
        assert stage1_cache.STATS.snapshot()["misses"] == 0
        clear_cache()
        assert stage1_cache.clear() > 0
        with pytest.raises(stage1_cache.Stage1CacheMiss):
            replay_grid(PLATFORMS, [WORKLOAD], processes=1)

    def test_stale_entry_is_discarded_and_regenerated(self):
        reference = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        entries = sorted(
            Path(os.environ[STAGE1_CACHE_ENV]).glob("*.stage1.npz"))
        assert entries
        entries[0].write_bytes(b"not an npz archive")
        clear_cache()
        stage1_cache.reset_stats()
        with pytest.warns(UserWarning, match="stale stage1-cache"):
            regenerated = replay_grid(PLATFORMS, [WORKLOAD],
                                      processes=1)
        grids_equal(reference, regenerated)
        stats = stage1_cache.STATS.snapshot()
        assert stats["stale"] == 1
        assert stats["stores"] == 1  # only the corrupted entry rebuilt


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
        kinds = {record["event"] for record in records}
        assert {"stage1_miss", "stage1_hit"} <= kinds
        for record in records:
            if record["event"].startswith("stage1_"):
                assert "kernel" in record and "key" in record
