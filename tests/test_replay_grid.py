"""Tests for the multiprocessing grid fan-out in the experiment runner.

The fork-based fan-out must be an implementation detail: the result
grid — keys, ordering, and every timing field — must be identical to a
serial sweep, and the parent's replay memo must end up warm either way.
The same contract holds across process death: a sweep killed
mid-flight re-runs warm off the caches, capturing nothing, to the same
grid.
"""

import dataclasses
import multiprocessing
import os
import signal

import pytest

from repro.config import REPLAY_JOBS_ENV, TRACE_CACHE_ENV
from repro.errors import ConfigError
from repro.experiments import runner, store, trace_cache
from repro.experiments.runner import (_fork_available, clear_cache,
                                      replay_grid, replay_platform)
from repro.obs.metrics import global_metrics, reset_global_metrics
from repro.platform.factory import PLATFORM_NAMES
from repro.workloads.registry import TABLE3_WORKLOADS

from tests.conftest import cli_error

WORKLOAD = "graphchi-als"  # fastest real workload
PLATFORMS = ("cpu-ddr4", "ideal", "charon")


@pytest.fixture(autouse=True)
def isolated_caches(tmp_path, monkeypatch):
    """Fresh in-process memos; captures persist in a throwaway disk
    cache so the second sweep replays without re-running collectors."""
    monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "trace-cache"))
    clear_cache()
    yield
    clear_cache()


def grids_equal(a, b):
    assert list(a) == list(b)  # same cells, same deterministic order
    for key, result in a.items():
        assert b[key] == result  # dataclass field-by-field equality


class TestDeterministicMerge:
    def test_forked_grid_matches_serial(self):
        serial = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        forked = replay_grid(PLATFORMS, [WORKLOAD], processes=2)
        grids_equal(serial, forked)

    def test_jobs_env_variable_is_honored(self, monkeypatch):
        serial = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        monkeypatch.setenv(REPLAY_JOBS_ENV, "2")
        from_env = replay_grid(PLATFORMS, [WORKLOAD])
        grids_equal(serial, from_env)
        for bad in ("0", "-3", "two"):
            monkeypatch.setenv(REPLAY_JOBS_ENV, bad)
            with pytest.raises(ConfigError, match=REPLAY_JOBS_ENV):
                replay_grid(PLATFORMS, [WORKLOAD])

    def test_forked_results_warm_the_memo(self):
        if not _fork_available():
            pytest.skip("no fork start method on this platform")
        grid = replay_grid(PLATFORMS, [WORKLOAD], processes=2)
        for platform in PLATFORMS:
            # replay_platform must now serve the merged result without
            # replaying again (identity, not just equality).
            assert replay_platform(platform, WORKLOAD) \
                is grid[(platform, WORKLOAD)]

    def test_warm_grid_is_stable(self):
        first = replay_grid(PLATFORMS, [WORKLOAD], processes=2)
        second = replay_grid(PLATFORMS, [WORKLOAD], processes=2)
        for key, result in first.items():
            assert second[key] is result


class TestReplayMemo:
    def test_any_config_field_is_a_new_key(self):
        """The memo keys on the whole ``SystemConfig``: a replay with a
        field the old hand-picked key left out (DDR4 channels and
        bandwidth) must not be served the default config's result."""
        config = runner.workload_config("spark-km")
        narrow = dataclasses.replace(config, ddr4=dataclasses.replace(
            config.ddr4, channels=1, bandwidth_per_channel=4e9))
        default = replay_platform("cpu-ddr4", "spark-km")
        memoised = replay_platform("cpu-ddr4", "spark-km", config=narrow)
        clear_cache()
        fresh = replay_platform("cpu-ddr4", "spark-km", config=narrow)
        assert memoised == fresh
        assert memoised.wall_seconds > default.wall_seconds
        assert replay_platform("cpu-ddr4", "spark-km",
                               config=narrow) is fresh


class TestKilledSweep:
    def test_killed_sweep_reruns_warm(self, tmp_path, monkeypatch):
        """Kill the sweep after its first cell (``os._exit`` — no
        cleanup), then re-run it: the trace cache already holds the
        capture, so the re-run captures nothing, and its grid is
        bit-identical to an uninterrupted sweep's."""
        if not _fork_available():
            pytest.skip("no fork start method on this platform")

        def crash_after_first_cell():
            original = runner.replay_platform

            def replay_and_die(*args, **kwargs):
                original(*args, **kwargs)
                os._exit(9)

            runner.replay_platform = replay_and_die
            replay_grid(PLATFORMS, [WORKLOAD], processes=1)

        context = multiprocessing.get_context("fork")
        sweep = context.Process(target=crash_after_first_cell)
        sweep.start()
        sweep.join()
        assert sweep.exitcode == 9

        clear_cache()
        trace_cache.STATS.reset()
        rerun = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        assert trace_cache.STATS["generated"] == 0
        assert trace_cache.STATS["misses"] == 0
        assert trace_cache.STATS["hits"] == 1

        clear_cache()
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "fresh"))
        grids_equal(replay_grid(PLATFORMS, [WORKLOAD], processes=1),
                    rerun)


@pytest.fixture(scope="class")
def killed_default_sweep(tmp_path_factory):
    """The default ``repro sweep`` grid (every platform x every Table-3
    workload), killed after its first cell and re-run off the cache it
    left, beside the same grid run uninterrupted from an empty cache."""
    if not _fork_available():
        pytest.skip("no fork start method on this platform")
    platforms, workloads = list(PLATFORM_NAMES), list(TABLE3_WORKLOADS)

    def crash_after_first_cell():
        original = runner.replay_platform

        def replay_and_die(*args, **kwargs):
            original(*args, **kwargs)
            os._exit(9)

        runner.replay_platform = replay_and_die
        replay_grid(platforms, workloads, processes=1)

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(TRACE_CACHE_ENV,
                     str(tmp_path_factory.mktemp("killed-cache")))
        clear_cache()
        sweep = multiprocessing.get_context("fork").Process(
            target=crash_after_first_cell)
        sweep.start()
        sweep.join()
        trace_cache.STATS.reset()
        rerun = replay_grid(platforms, workloads, processes=1)
        rerun_stats = trace_cache.STATS.snapshot()
        clear_cache()
        patch.setenv(TRACE_CACHE_ENV,
                     str(tmp_path_factory.mktemp("uninterrupted-cache")))
        uninterrupted = replay_grid(platforms, workloads, processes=2)
        clear_cache()
    return sweep.exitcode, rerun_stats, rerun, uninterrupted


class TestKilledDefaultSweep:
    """The guarantee that stands in for a resume journal, over the whole
    default grid: every capture lands in the trace cache before the
    first cell replays, so a sweep killed at any cell re-runs warm."""

    def test_rerun_captures_nothing(self, killed_default_sweep):
        exitcode, stats, rerun, _ = killed_default_sweep
        assert exitcode == 9
        assert stats["generated"] == stats["misses"] == 0
        assert stats["hits"] == len(TABLE3_WORKLOADS)
        assert list(rerun) == [(platform, workload)
                               for workload in TABLE3_WORKLOADS
                               for platform in PLATFORM_NAMES]

    @pytest.mark.parametrize("workload", TABLE3_WORKLOADS)
    @pytest.mark.parametrize("platform", PLATFORM_NAMES)
    def test_rerun_cell_matches_uninterrupted(self, killed_default_sweep,
                                              platform, workload):
        _, _, rerun, uninterrupted = killed_default_sweep
        assert rerun[(platform, workload)] \
            == uninterrupted[(platform, workload)]


class TestKilledMidWrite:
    def test_sweep_killed_mid_write_recaptures(self, tmp_path,
                                               monkeypatch):
        """Kill the sweep while it writes its capture: the temp file is
        on disk but never renamed into place.  The re-run trusts
        nothing half-written — it misses, captures once, stores the
        entry — and returns the uninterrupted grid."""
        if not _fork_available():
            pytest.skip("no fork start method on this platform")
        uninterrupted = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        cache = tmp_path / "killed-cache"
        monkeypatch.setenv(TRACE_CACHE_ENV, str(cache))

        entry = store.TRACES.path(cache, trace_cache.run_cache_key(
            WORKLOAD, runner.workload_config(WORKLOAD)))

        def crash_before_rename():
            real_replace = os.replace

            def die_on_trace_entry(source, target, *args, **kwargs):
                if os.fspath(target) == os.fspath(entry):
                    os._exit(9)
                return real_replace(source, target, *args, **kwargs)

            os.replace = die_on_trace_entry
            replay_grid(PLATFORMS, [WORKLOAD], processes=1)

        sweep = multiprocessing.get_context("fork").Process(
            target=crash_before_rename)
        sweep.start()
        sweep.join()
        assert sweep.exitcode == 9
        assert store.TRACES.entries(cache) == []
        assert [path for path in cache.iterdir()
                if ".tmp" in path.name]  # the torn write is on disk

        trace_cache.STATS.reset()
        grids_equal(uninterrupted,
                    replay_grid(PLATFORMS, [WORKLOAD], processes=1))
        assert trace_cache.STATS["misses"] == 1
        assert trace_cache.STATS["generated"] == 1
        assert trace_cache.STATS["stores"] == 1
        assert len(store.TRACES.entries(cache)) == 1


class TestNoCollection:
    """A heap so large that the workload never collects leaves no GC
    to replay: one ``ConfigError`` naming the workload and the heap,
    raised in the parent before any replay or fan-out."""

    HEAP_MB = 160  # 10x graphchi-cc's default heap

    def test_replay_platform_names_workload_and_heap(self):
        with pytest.raises(ConfigError,
                           match="graphchi-cc ran no collection in a "
                                 "160 MiB heap"):
            replay_platform("charon", "graphchi-cc",
                            heap_bytes=self.HEAP_MB << 20)

    @pytest.mark.parametrize("processes", [1, 2])
    def test_grid_fails_before_fan_out(self, processes, monkeypatch):
        def no_fan_out(*args, **kwargs):
            raise AssertionError("fanned out a grid with no collection")

        monkeypatch.setattr(runner, "_fan_out", no_fan_out)
        with pytest.raises(ConfigError,
                           match="graphchi-cc ran no collection"):
            # spark-km still collects at this heap; graphchi-cc does not.
            replay_grid(PLATFORMS, ["spark-km", "graphchi-cc"],
                        heap_bytes=self.HEAP_MB << 20,
                        processes=processes)

    @pytest.mark.parametrize("workload", TABLE3_WORKLOADS)
    def test_no_table3_workload_collects_at_ten_times_its_heap(
            self, workload):
        heap_bytes = 10 * runner.default_heap_bytes(workload)
        with pytest.raises(ConfigError,
                           match=f"{workload} ran no collection in a "
                                 f"{heap_bytes >> 20} MiB heap"):
            replay_platform("cpu-ddr4", workload, heap_bytes=heap_bytes)

    @pytest.mark.parametrize("workload", TABLE3_WORKLOADS)
    def test_grid_at_ten_times_the_heap_replays_no_cell(
            self, workload, monkeypatch):
        def no_replay(*args, **kwargs):
            raise AssertionError("replayed a cell with no collection")

        monkeypatch.setattr(runner, "replay_platform", no_replay)
        with pytest.raises(ConfigError,
                           match=f"{workload} ran no collection"):
            replay_grid(PLATFORMS, [workload],
                        heap_bytes=10 * runner.default_heap_bytes(
                            workload),
                        processes=2)

    @pytest.mark.parametrize("command", [
        ["run", "graphchi-cc"], ["compare", "graphchi-cc"],
        ["stats", "graphchi-cc"], ["timeline", "graphchi-cc"],
        ["sweep", "--workloads", "graphchi-cc"]],
        ids=["run", "compare", "stats", "timeline", "sweep"])
    def test_every_replaying_command_reports_it(self, command, tmp_path,
                                                capsys):
        message = cli_error(capsys, command + ["--heap-mb",
                                               str(self.HEAP_MB)])
        assert message.startswith("graphchi-cc ran no collection in a "
                                  "160 MiB heap")


class TestKilledWorker:
    """A pool worker SIGKILLed mid-cell must not hang the sweep: the
    pool breaks, ``fanout.fallbacks`` counts it once, and the parent
    finishes the missing cells, returning the serial grid.  The dead
    worker's telemetry is lost, never counted twice: a sweep records
    every cell's ``replay.wall_seconds`` exactly once, with the serial
    value."""

    def test_killed_worker_falls_back_to_serial(self):
        if not _fork_available():
            pytest.skip("no fork start method on this platform")
        reference = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()

        def sweep_with_a_dying_worker():
            os.setpgid(0, 0)  # lets the test reap a hung pool too
            reset_global_metrics()  # the reference sweep's rows
            sweep_pid = os.getpid()
            original = runner.replay_platform

            def fragile(platform_name, *args, **kwargs):
                # Die having replayed the cell but before handing it
                # back: its result and telemetry are lost together.
                result = original(platform_name, *args, **kwargs)
                if platform_name == "charon" \
                        and os.getpid() != sweep_pid:
                    os.kill(os.getpid(), signal.SIGKILL)
                return result

            runner.replay_platform = fragile
            try:
                grid = replay_grid(PLATFORMS, [WORKLOAD], processes=2)
                same = (list(grid) == list(reference)
                        and all(grid[key] == result
                                for key, result in reference.items()))
                if not same:
                    os._exit(1)
                if global_metrics().counter("fanout.fallbacks").value != 1:
                    os._exit(4)
                os._exit(0 if counted_once() else 3)
            except BaseException:
                os._exit(2)

        def counted_once():
            walls = {row["labels"]["platform"]: row["value"]
                     for row in global_metrics().samples()
                     if row["metric"] == "replay.wall_seconds"}
            return walls == {
                platform: reference[(platform, WORKLOAD)].wall_seconds
                for platform in PLATFORMS}

        context = multiprocessing.get_context("fork")
        sweep = context.Process(target=sweep_with_a_dying_worker)
        sweep.start()
        sweep.join(60)
        if sweep.is_alive():
            os.killpg(sweep.pid, signal.SIGKILL)
            sweep.join()
            pytest.fail("the sweep hung after its worker was killed")
        assert sweep.exitcode != 1  # returned the serial grid
        assert sweep.exitcode != 3  # a cell's telemetry lost or doubled
        assert sweep.exitcode != 4  # the broken pool not counted once
        assert sweep.exitcode == 0


class TestGridShape:
    def test_grid_covers_every_cell(self):
        grid = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        assert set(grid) == {(platform, WORKLOAD)
                             for platform in PLATFORMS}
        for result in grid.values():
            assert result.wall_seconds > 0.0

    def test_single_cell_grid_stays_serial(self):
        """One pending job must not pay for a worker pool."""
        grid = replay_grid(("ideal",), [WORKLOAD], processes=4)
        assert set(grid) == {("ideal", WORKLOAD)}
