"""Tests for the warm sweep engine.

The persistent stage-1 product cache must be invisible in the results
— a warm sweep, serial or pooled, returns field-identical grids to a
cold serial sweep — while being loudly visible in the tallies (hits,
misses, stores) that ``repro stats`` and the benchmark ledger report.
A warm sweep's speed is the ledger's business; here its gate is that it
captures nothing and misses no stage-1 product.  The crash test pins the
failure contract of the fork-pool fan-out: a raising cell surfaces its
error to the caller (never a hang, never a silently dropped cell).
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.config import TRACE_CACHE_ENV
from repro.experiments import runner, stage1_cache, store, trace_cache
from repro.experiments.runner import clear_cache, replay_grid

WORKLOAD = "graphchi-als"  # fastest real workload
PLATFORMS = ("cpu-ddr4", "ideal", "charon")


@pytest.fixture(autouse=True)
def warm_sweep_isolation(tmp_path, monkeypatch):
    """A throwaway disk cache and fresh memos and tallies."""
    monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "cache"))
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

    @pytest.mark.parametrize("processes", [1, 2])
    def test_cold_then_warm_sweep_is_bit_exact(self, processes):
        """A warm sweep, serial or on the fork pool, captures nothing,
        misses no stage-1 product and returns the cold serial grid bit
        for bit."""
        cold = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        stats = stage1_cache.STATS.snapshot()
        assert stats["misses"] > 0
        assert stats["stores"] == stats["misses"]
        assert stats["hits"] == 0
        clear_cache()
        stage1_cache.STATS.reset()
        trace_cache.STATS.reset()
        warm = replay_grid(PLATFORMS, [WORKLOAD], processes=processes)
        stats = stage1_cache.STATS.snapshot()
        assert stats["hits"] > 0
        assert stats["misses"] == 0  # the 100%-hit-rate contract
        assert trace_cache.STATS["generated"] == 0
        assert trace_cache.STATS["misses"] == 0
        grids_equal(cold, warm)

    def test_unset_directory_degrades_to_recompute(self, monkeypatch):
        monkeypatch.delenv(TRACE_CACHE_ENV)
        grid = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        assert len(grid) == len(PLATFORMS)
        assert stage1_cache.STATS.snapshot() == {
            "hits": 0, "misses": 0, "stale": 0, "stores": 0,
            "fallbacks": 0}

    def test_warm_grid_misses_nothing_cleared_stage1_recomputes(self):
        """The tallies are the warm-sweep gate: a warm grid misses
        neither cache, and a cleared stage-1 namespace only costs
        recompute (misses) for a bit-identical grid."""
        cold = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        stage1_cache.STATS.reset()
        trace_cache.STATS.reset()
        warm = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        assert trace_cache.STATS["misses"] == 0
        assert stage1_cache.STATS["misses"] == 0
        grids_equal(cold, warm)
        clear_cache()
        # Clearing the stage-1 namespace keeps the traces: the misses
        # are stage-1 products'.
        assert store.STAGE1.clear(os.environ[TRACE_CACHE_ENV]) > 0
        assert store.TRACES.entries(os.environ[TRACE_CACHE_ENV])
        trace_cache.STATS.reset()
        recomputed = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        assert stage1_cache.STATS["misses"] > 0
        assert trace_cache.STATS["misses"] == 0
        grids_equal(cold, recomputed)

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


def forbid_event_objects(monkeypatch):
    """Make building per-event objects, or replaying event by event,
    fail the test."""
    from repro.gcalgo.trace import GCTrace
    from repro.platform.replay import TraceReplayer

    def forbidden(*args, **kwargs):
        raise AssertionError("a sweep built per-event trace objects or "
                             "replayed a trace event by event")

    monkeypatch.setattr(GCTrace, "iter_events", forbidden)
    monkeypatch.setattr(TraceReplayer, "replay", forbidden)


class TestColumnsAreTheRun:
    """A run holds columns only: a sweep, cold or warm, never builds
    per-event objects, and a trace-cache hit holds the entry's
    columns."""

    def test_warm_sweep_never_decompiles(self, monkeypatch):
        from repro.experiments import figures

        names = ["spark-km", "graphchi-als"]
        for name in names:
            runner.collect_run(name)  # fills the trace cache
        clear_cache()
        trace_cache.STATS.reset()
        forbid_event_objects(monkeypatch)
        grid = replay_grid(figures.FIG12_PLATFORMS, names, processes=1)
        assert len(grid) == len(figures.FIG12_PLATFORMS) * len(names)
        assert figures.figure4(["spark-km"])
        assert trace_cache.STATS["hits"] == len(names)
        assert trace_cache.STATS["generated"] == 0

    def test_cold_sweep_never_builds_event_objects(self, monkeypatch):
        from repro.experiments import figures

        trace_cache.STATS.reset()
        forbid_event_objects(monkeypatch)
        grid = replay_grid(figures.FIG12_PLATFORMS, [WORKLOAD],
                           processes=1)
        assert len(grid) == len(figures.FIG12_PLATFORMS)
        assert trace_cache.STATS["generated"] == 1

    def test_captured_run_holds_no_event_objects(self):
        import gc

        from repro.gcalgo.trace import TraceEvent

        trace_cache.STATS.reset()
        run = runner.collect_run("spark-bs")
        assert trace_cache.STATS["generated"] == 1
        assert all(trace._rows is None for trace in run.traces)
        gc.collect()
        assert not any(isinstance(thing, TraceEvent)
                       for thing in gc.get_objects())

    def test_hit_holds_the_entry_columns(self):
        from tests.conftest import trace_contents

        captured = runner.collect_run(WORKLOAD)
        clear_cache()
        run = runner.collect_run(WORKLOAD)
        assert run is not captured
        assert run.gc_count == len(captured.traces)
        assert (run.minor_count, run.major_count) \
            == (captured.minor_count, captured.major_count)
        assert run.traces is run.traces
        assert all(trace._rows is None for trace in run.traces)
        assert trace_contents(run.traces) \
            == trace_contents(captured.traces)


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


class TestStoreTallies:
    def test_cold_then_warm_sweep_counts_misses_then_hits(self):
        """The stage-1 tallies tell a cold sweep from a warm one: the
        cold sweep misses and stores every product, the warm repeat
        hits each one, and no write fell back."""
        replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        cold = stage1_cache.STATS.snapshot()
        assert cold["misses"] > 0
        assert cold["stores"] == cold["misses"]
        clear_cache()
        replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        warm = stage1_cache.STATS.snapshot()
        assert warm["misses"] == cold["misses"]
        assert warm["hits"] - cold["hits"] == cold["misses"]
        assert warm["fallbacks"] == 0
