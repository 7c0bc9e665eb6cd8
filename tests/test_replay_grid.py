"""Tests for the multiprocessing grid fan-out in the experiment runner.

The fork-based fan-out must be an implementation detail: the result
grid — keys, ordering, and every timing field — must be identical to a
serial sweep, and the parent's replay memo must end up warm either way.
The shard-journal tests extend the same contract across process death:
a sweep killed mid-flight resumes byte-identically, re-executing only
the shards that never finished.
"""

import errno
import multiprocessing
import os
import signal

import pytest

from repro.config import REPLAY_JOBS_ENV, TRACE_CACHE_ENV
from repro.errors import ConfigError
from repro.experiments import runner, shard_journal
from repro.experiments.runner import (_fork_available, clear_cache,
                                      replay_grid, replay_platform)
from repro.obs import eventlog

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


class TestShardJournal:
    @pytest.fixture(autouse=True)
    def fresh_stats(self):
        shard_journal.STATS.reset()
        yield
        shard_journal.STATS.reset()

    def test_journaled_sweep_matches_plain(self, tmp_path):
        reference = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        journaled = replay_grid(PLATFORMS, [WORKLOAD],
                                journal=tmp_path / "journal")
        grids_equal(reference, journaled)
        stats = shard_journal.STATS.snapshot()
        assert stats["runs"] == len(PLATFORMS)
        assert stats["stores"] == len(PLATFORMS)
        assert stats["hits"] == 0

    def test_completed_sweep_resumes_without_executing(self, tmp_path):
        journal = tmp_path / "journal"
        first = replay_grid(PLATFORMS, [WORKLOAD], journal=journal)
        clear_cache()
        shard_journal.STATS.reset()
        second = replay_grid(PLATFORMS, [WORKLOAD], journal=journal)
        grids_equal(first, second)
        stats = shard_journal.STATS.snapshot()
        assert stats["hits"] == len(PLATFORMS)
        assert stats["runs"] == 0  # the no-rework witness

    def test_killed_sweep_resumes_byte_identical(self, tmp_path):
        """Kill the sweep after its first shard lands (``os._exit`` —
        no cleanup, the claim file stays orphaned), then resume: only
        the unfinished shards execute and the merged grid is identical
        to an uninterrupted serial sweep."""
        if not _fork_available():
            pytest.skip("no fork start method on this platform")
        reference = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        journal = tmp_path / "journal"

        def crash_after_first_shard():
            original = shard_journal.store_shard

            def store_and_die(directory, key, result, **kwargs):
                original(directory, key, result, **kwargs)
                os._exit(9)

            shard_journal.store_shard = store_and_die
            replay_grid(PLATFORMS, [WORKLOAD], journal=journal)

        context = multiprocessing.get_context("fork")
        sweep = context.Process(target=crash_after_first_shard)
        sweep.start()
        sweep.join()
        assert sweep.exitcode == 9
        assert len(list(journal.glob("*.shard.json"))) == 1
        # the kill skipped the claim release; resume must shrug it off
        assert len(list(journal.glob("*.claim"))) == 1

        clear_cache()
        shard_journal.STATS.reset()
        resumed = replay_grid(PLATFORMS, [WORKLOAD], journal=journal)
        grids_equal(reference, resumed)
        stats = shard_journal.STATS.snapshot()
        assert stats["hits"] == 1  # the pre-crash shard, not re-run
        assert stats["runs"] == len(PLATFORMS) - 1

    def test_torn_entry_is_discarded_and_rerun(self, tmp_path):
        journal = tmp_path / "journal"
        reference = replay_grid(PLATFORMS, [WORKLOAD], journal=journal)
        torn = sorted(journal.glob("*.shard.json"))[0]
        torn.write_text("{ torn mid-write")
        clear_cache()
        shard_journal.STATS.reset()
        with pytest.warns(UserWarning, match="stale shard"):
            resumed = replay_grid(PLATFORMS, [WORKLOAD],
                                  journal=journal)
        grids_equal(reference, resumed)
        stats = shard_journal.STATS.snapshot()
        assert stats["stale"] == 1
        assert stats["runs"] == 1
        assert stats["hits"] == len(PLATFORMS) - 1

    def test_forked_workers_steal_shards(self, tmp_path):
        if not _fork_available():
            pytest.skip("no fork start method on this platform")
        reference = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        shard_journal.STATS.reset()
        stolen = replay_grid(PLATFORMS, [WORKLOAD], processes=2,
                             journal=tmp_path / "journal")
        grids_equal(reference, stolen)
        stats = shard_journal.STATS.snapshot()
        # claims made the workers disjoint: every shard ran exactly
        # once across the pool (the tally is fork-shared)
        assert stats["runs"] == len(PLATFORMS)
        assert stats["stores"] == len(PLATFORMS)

    def test_full_journal_claims_compute_unclaimed(self, tmp_path,
                                                   monkeypatch):
        """ENOSPC creating claim files costs the work-stealing
        arbitration, not the sweep: the grid equals the unfaulted one,
        every shard still runs and persists, and each failed claim
        emits a ``fallback`` event naming the journal."""
        platforms, workloads = ["ideal", "charon"], ["spark-km"]
        expected = replay_grid(platforms, workloads, processes=1)
        clear_cache()
        real_open = os.open

        def full_disk_open(path, flags, *args, **kwargs):
            if str(path).endswith(".claim"):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC),
                              str(path))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", full_disk_open)
        journal = tmp_path / "journal"
        log = eventlog.get_eventlog()
        log.open(tmp_path / "events.jsonl")
        try:
            with pytest.warns(UserWarning, match="No space left"):
                grid = replay_grid(platforms, workloads, processes=1,
                                   journal=journal)
        finally:
            log.close()
        grids_equal(expected, grid)
        assert shard_journal.STATS["runs"] == len(platforms)
        assert len(list(journal.glob("*.shard.json"))) == len(platforms)
        fallbacks = [record for record
                     in eventlog.read_events(tmp_path / "events.jsonl")
                     if record["event"] == "fallback"]
        assert fallbacks
        assert {record["journal"] for record in fallbacks} \
            == {str(journal)}

    def test_journal_env_variable_is_honored(self, tmp_path,
                                             monkeypatch):
        journal = tmp_path / "journal"
        monkeypatch.setenv(shard_journal.REPRO_SHARD_JOURNAL,
                           str(journal))
        replay_grid(PLATFORMS, [WORKLOAD])
        assert len(list(journal.glob("*.shard.json"))) \
            == len(PLATFORMS)


class TestKilledWorker:
    """A pool worker SIGKILLed mid-cell must not hang the sweep: the
    pool breaks, one ``fallback`` event is logged, and the parent
    finishes the missing cells, returning the serial grid."""

    @pytest.mark.parametrize("journaled", [False, True],
                             ids=["plain", "journaled"])
    def test_killed_worker_falls_back_to_serial(self, tmp_path,
                                                journaled):
        if not _fork_available():
            pytest.skip("no fork start method on this platform")
        reference = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        journal = tmp_path / "journal" if journaled else None
        events = tmp_path / "events.jsonl"

        def sweep_with_a_dying_worker():
            os.setpgid(0, 0)  # lets the test reap a hung pool too
            sweep_pid = os.getpid()
            original = runner.replay_platform

            def fragile(platform_name, *args, **kwargs):
                if platform_name == "charon" \
                        and os.getpid() != sweep_pid:
                    os.kill(os.getpid(), signal.SIGKILL)
                return original(platform_name, *args, **kwargs)

            runner.replay_platform = fragile
            eventlog.get_eventlog().open(events)
            try:
                grid = replay_grid(PLATFORMS, [WORKLOAD], processes=2,
                                   journal=journal)
                same = (list(grid) == list(reference)
                        and all(grid[key] == result
                                for key, result in reference.items()))
                os._exit(0 if same else 1)
            except BaseException:
                os._exit(2)

        context = multiprocessing.get_context("fork")
        sweep = context.Process(target=sweep_with_a_dying_worker)
        sweep.start()
        sweep.join(60)
        if sweep.is_alive():
            os.killpg(sweep.pid, signal.SIGKILL)
            sweep.join()
            pytest.fail("the sweep hung after its worker was killed")
        assert sweep.exitcode == 0  # returned the serial grid
        fallbacks = [record for record in eventlog.read_events(events)
                     if record["event"] == "fallback"]
        assert len(fallbacks) == 1
        assert fallbacks[0]["to"] == "serial"
        if journaled:
            assert len(list(journal.glob("*.shard.json"))) \
                == len(PLATFORMS)
            assert not list(journal.glob("*.claim"))


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
