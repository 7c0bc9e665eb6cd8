"""Tests for the warm sweep engine.

A warm sweep reads its traces from the trace cache and recomputes the
stage-1 products from them; it must return field-identical grids to a
cold serial sweep, serial or pooled, and the stage-1 memo tallies
(hits, misses) that ``repro stats`` and the benchmark ledger report
must show each product computed once per trace in each process.  A warm
sweep's speed is the ledger's business; here its gate is that it
captures nothing and stores no stage-1 product.  The crash test pins the
failure contract of the fork-pool fan-out: a raising cell surfaces its
error to the caller (never a hang, never a silently dropped cell).
"""

import os
from pathlib import Path

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
    @pytest.mark.parametrize("processes", [1, 2])
    def test_cold_then_warm_sweep_is_bit_exact(self, processes):
        """A warm sweep, serial or on the fork pool, captures nothing,
        recomputes the stage-1 products from the traces it reads and
        returns the cold serial grid bit for bit; the cache directory
        holds trace entries and the library, and no stage-1 file."""
        directory = Path(os.environ[TRACE_CACHE_ENV])
        cold = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        computed = stage1_cache.STATS["misses"]
        assert computed > 0
        clear_cache()
        stage1_cache.STATS.reset()
        trace_cache.STATS.reset()
        warm = replay_grid(PLATFORMS, [WORKLOAD], processes=processes)
        assert trace_cache.STATS["generated"] == 0
        assert trace_cache.STATS["misses"] == 0
        # Once per trace in a serial process; on the per-cell pool
        # once per worker that replays the trace.
        assert computed <= stage1_cache.STATS["misses"] \
            <= processes * computed
        grids_equal(cold, warm)
        assert sorted(directory.iterdir()) == sorted(
            store.TRACES.entries(directory)
            + store.NATIVE.entries(directory))
        assert not list(directory.glob("*.stage1.npz"))

    def test_per_workload_pool_computes_each_product_once(
            self, tmp_path, monkeypatch):
        """Two workloads on two processes take the per-workload
        schedule: the cold pooled sweep captures in the workers and
        computes each stage-1 product once, as the serial sweep does;
        the warm pooled repeat captures nothing, computes each product
        once again and returns the cold serial grid bit for bit."""
        if not runner._fork_available():
            pytest.skip("no fork start method on this platform")
        workloads = ["spark-km", "graphchi-als"]
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "serial"))
        cold = replay_grid(PLATFORMS, workloads, processes=1)
        serial = stage1_cache.STATS["misses"]
        assert serial > 0

        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "pooled"))
        clear_cache()
        stage1_cache.STATS.reset()
        trace_cache.STATS.reset()
        pooled = replay_grid(PLATFORMS, workloads, processes=2)
        assert stage1_cache.STATS["misses"] == serial
        assert trace_cache.STATS["generated"] == len(workloads)
        assert len(store.TRACES.entries(tmp_path / "pooled")) \
            == len(workloads)
        grids_equal(cold, pooled)

        clear_cache()
        stage1_cache.STATS.reset()
        trace_cache.STATS.reset()
        warm = replay_grid(PLATFORMS, workloads, processes=2)
        assert trace_cache.STATS["generated"] == 0
        assert trace_cache.STATS["misses"] == 0
        assert stage1_cache.STATS["misses"] == serial
        grids_equal(cold, warm)

    def test_unset_directory_degrades_to_recompute(self, monkeypatch):
        """Without a cache directory the stage-1 products are computed
        exactly as with one: the same memo tallies, the same grid."""
        with_directory = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        counted = stage1_cache.STATS.snapshot()
        monkeypatch.delenv(TRACE_CACHE_ENV)
        clear_cache()
        stage1_cache.STATS.reset()
        grid = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        assert stage1_cache.STATS.snapshot() == counted
        grids_equal(with_directory, grid)

    def test_fetch_computes_once_and_freezes(self):
        """A product is computed on its first fetch and handed out, the
        same read-only arrays, to every later fetch of its key; another
        key, or another copy of the trace, is a product of its own."""
        import numpy as np

        from tests.conftest import make_mixed_run

        calls = []

        def produce():
            calls.append(1)
            return np.arange(5, dtype=np.int64), np.full(3, 0.25)

        compiled, copy = make_mixed_run().traces[0], \
            make_mixed_run().traces[0]
        first = stage1_cache.fetch(compiled, ("probe", 1), produce)
        assert stage1_cache.fetch(compiled, ("probe", 1), produce) \
            is first
        assert len(calls) == 1
        for array, fresh in zip(first, produce()):
            np.testing.assert_array_equal(array, fresh)
            assert array.dtype == fresh.dtype
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0][0] = 1
        calls.clear()
        stage1_cache.fetch(compiled, ("probe", 2), produce)
        stage1_cache.fetch(copy, ("probe", 1), produce)
        assert len(calls) == 2
        assert stage1_cache.STATS.snapshot() == {"hits": 1, "misses": 3}

    def test_leftover_stage1_file_is_ignored(self):
        """A ``.stage1.npz`` file an earlier version stored in the cache
        directory is read by nothing: a sweep beside it warns of
        nothing, leaves it as it was and returns the grid it returns
        without it."""
        import warnings

        directory = Path(os.environ[TRACE_CACHE_ENV])
        reference = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        leftover = directory / ("a" * 64 + ".stage1.npz")
        leftover.write_bytes(b"not an npz archive")
        clear_cache()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        grids_equal(reference, grid)
        assert leftover.read_bytes() == b"not an npz archive"


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
        """The stage-1 tallies count the memo: a sweep misses each
        product once per trace and hits it for every later platform,
        and a warm repeat, on fresh copies of the traces read from the
        trace cache, counts exactly the same."""
        replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        cold = stage1_cache.STATS.snapshot()
        assert cold["misses"] > 0
        assert cold["hits"] > 0
        clear_cache()
        replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        warm = stage1_cache.STATS.snapshot()
        assert warm == {field: 2 * count
                        for field, count in cold.items()}
