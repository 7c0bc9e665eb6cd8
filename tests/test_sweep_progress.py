"""The sweep progress monitor: manifest, snapshots, ETA, CLI views."""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.config import SHARD_JOURNAL_ENV, TRACE_CACHE_ENV
from repro.experiments import progress, shard_journal
from repro.experiments.progress import (FILES, SWEEP_MANIFEST,
                                        format_status, format_top,
                                        load_sweep_manifest,
                                        progress_snapshot,
                                        write_sweep_manifest)
from repro.experiments.runner import clear_cache, replay_grid

WORKLOAD = "graphchi-als"
PLATFORMS = ("cpu-ddr4", "ideal", "charon")


@pytest.fixture(autouse=True)
def isolated_caches(tmp_path, monkeypatch):
    monkeypatch.delenv(shard_journal.REPRO_SHARD_JOURNAL,
                       raising=False)
    monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "trace-cache"))
    clear_cache()
    shard_journal.STATS.reset()
    yield
    clear_cache()
    shard_journal.STATS.reset()


def _fabricate_journal(tmp_path, started_ago=10.0):
    """A synthetic three-shard journal: one done, one claimed, one
    pending — no simulator involved."""
    journal = tmp_path / "journal"
    journal.mkdir()
    started_at = time.time() - started_ago
    manifest = {
        "schema": progress.PROGRESS_SCHEMA_VERSION,
        "started_at": round(started_at, 6),
        "parent_pid": os.getpid(),
        "shards": {
            "aaa": {"platform": "charon", "workload": WORKLOAD,
                    "heap_bytes": 1 << 20, "threads": 4,
                    "events": 1000},
            "bbb": {"platform": "ideal", "workload": WORKLOAD,
                    "heap_bytes": 1 << 20, "threads": 4,
                    "events": 2000},
            "ccc": {"platform": "cpu-ddr4", "workload": WORKLOAD,
                    "heap_bytes": 1 << 20, "threads": 4,
                    "events": 3000},
        },
    }
    (journal / SWEEP_MANIFEST).write_text(json.dumps(manifest))
    (journal / "aaa.shard.json").write_text(json.dumps({
        "meta": {"pid": 4242, "host_seconds": 0.5,
                 "completed_at": round(started_at + 5.0, 6)},
    }))
    (journal / "bbb.claim").write_text(json.dumps({
        "pid": 4343, "claimed_at": round(started_at + 6.0, 6)}))
    return journal


class TestManifest:
    def test_write_and_load_round_trip(self, tmp_path):
        shards = {"k1": {"platform": "charon", "workload": WORKLOAD,
                         "heap_bytes": 8, "threads": 2, "events": 10}}
        write_sweep_manifest(tmp_path / "journal", shards)
        manifest = load_sweep_manifest(tmp_path / "journal")
        assert manifest["shards"] == shards
        assert manifest["parent_pid"] == os.getpid()
        assert manifest["started_at"] <= time.time()

    def test_load_missing_or_skewed_returns_none(self, tmp_path):
        assert load_sweep_manifest(tmp_path) is None
        (tmp_path / SWEEP_MANIFEST).write_text("{ torn")
        assert load_sweep_manifest(tmp_path) is None
        (tmp_path / SWEEP_MANIFEST).write_text(
            json.dumps({"schema": 999, "shards": {}}))
        assert load_sweep_manifest(tmp_path) is None


class TestSnapshot:
    def test_no_journal_configured(self):
        snapshot = progress_snapshot(None)
        assert snapshot["available"] is False
        assert "no journal" in snapshot["reason"]

    def test_no_manifest_in_journal(self, tmp_path):
        snapshot = progress_snapshot(tmp_path)
        assert snapshot["available"] is False
        assert SWEEP_MANIFEST in snapshot["reason"]

    def test_states_counts_and_percentages(self, tmp_path):
        journal = _fabricate_journal(tmp_path)
        snapshot = progress_snapshot(journal)
        assert snapshot["available"] is True
        assert snapshot["shards_total"] == 3
        assert snapshot["shards_done"] == 1
        assert snapshot["shards_claimed"] == 1
        assert snapshot["shards_pending"] == 1
        assert snapshot["completion_pct"] == pytest.approx(33.33)
        assert snapshot["events_total"] == 6000
        assert snapshot["events_done"] == 1000
        assert snapshot["events_completion_pct"] \
            == pytest.approx(16.67)
        states = {shard["key"]: shard["state"]
                  for shard in snapshot["shards"]}
        assert states == {"aaa": "done", "bbb": "claimed",
                          "ccc": "pending"}

    def test_eta_uses_session_rate(self, tmp_path):
        journal = _fabricate_journal(tmp_path, started_ago=10.0)
        snapshot = progress_snapshot(journal)
        # 1000 session events over ~10s elapsed -> ~100 ev/s; 5000
        # events remain -> ETA ~50s.
        assert snapshot["events_per_sec"] == pytest.approx(100.0,
                                                          rel=0.2)
        assert snapshot["eta_seconds"] == pytest.approx(50.0, rel=0.2)

    def test_pre_session_completions_do_not_feed_eta(self, tmp_path):
        journal = _fabricate_journal(tmp_path)
        # Backdate the done shard to before the session started — a
        # resumed shard was free, so the rate (and ETA) must not count
        # it; with no session completions there is no rate at all.
        done = journal / "aaa.shard.json"
        payload = json.loads(done.read_text())
        payload["meta"]["completed_at"] = time.time() - 100.0
        payload["meta"]["host_seconds"] = 0.0
        done.write_text(json.dumps(payload))
        snapshot = progress_snapshot(journal)
        assert snapshot["events_per_sec"] == 0.0
        assert snapshot["eta_seconds"] is None

    def test_worker_rates(self, tmp_path):
        journal = _fabricate_journal(tmp_path)
        snapshot = progress_snapshot(journal)
        worker = snapshot["workers"]["4242"]
        assert worker["shards"] == 1
        assert worker["events"] == 1000
        assert worker["events_per_sec"] == pytest.approx(2000.0)

    def test_claim_owner_and_running_time(self, tmp_path):
        journal = _fabricate_journal(tmp_path)
        (claimed,) = [shard for shard in
                      progress_snapshot(journal)["shards"]
                      if shard["state"] == "claimed"]
        assert claimed["pid"] == 4343
        assert claimed["running_seconds"] == pytest.approx(4.0,
                                                           abs=1.0)

    def test_bare_pid_claim_is_tolerated(self, tmp_path):
        journal = _fabricate_journal(tmp_path)
        (journal / "bbb.claim").write_text("12345")
        (claimed,) = [shard for shard in
                      progress_snapshot(journal)["shards"]
                      if shard["state"] == "claimed"]
        assert claimed["pid"] == 12345
        assert "running_seconds" not in claimed


class TestRenderers:
    def test_format_status_unavailable(self):
        text = format_status({"available": False, "reason": "nope"})
        assert "no sweep progress available" in text
        assert "nope" in text

    def test_format_status_shows_bar_counts_workers(self, tmp_path):
        snapshot = progress_snapshot(_fabricate_journal(tmp_path))
        text = format_status(snapshot, verbose=True)
        assert "1/3 shards" in text
        assert "(1 running, 1 pending)" in text
        assert "pid 4242" in text
        assert "charon/graphchi-als" in text  # verbose shard list

    def test_format_top_lists_active_and_finished(self, tmp_path):
        snapshot = progress_snapshot(_fabricate_journal(tmp_path))
        text = format_top(snapshot)
        assert "active shards:" in text
        assert "4343" in text
        assert "recently finished:" in text


class TestLiveSweep:
    """Progress derived from a real journaled ``replay_grid``."""

    def test_journaled_sweep_reaches_100_pct(self, tmp_path):
        journal = tmp_path / "journal"
        replay_grid(PLATFORMS, [WORKLOAD], journal=journal)
        persisted = progress_snapshot(journal)
        assert persisted["available"] is True
        assert persisted["shards_total"] == len(PLATFORMS)
        assert persisted["shards_done"] == len(PLATFORMS)
        assert persisted["shards_pending"] == 0
        assert persisted["completion_pct"] == 100.0
        assert persisted["events_completion_pct"] == 100.0
        assert persisted["events_per_sec"] > 0
        assert persisted["workers"]  # execution metadata landed

    def test_memo_hits_backfill_the_journal(self, tmp_path):
        # Warm the memo without a journal, then sweep journaled: the
        # memo-served shards must still land on disk so /progress
        # cannot report phantom pendings.
        replay_grid(PLATFORMS, [WORKLOAD])
        journal = tmp_path / "journal"
        replay_grid(PLATFORMS, [WORKLOAD], journal=journal)
        snapshot = progress_snapshot(journal)
        assert snapshot["shards_done"] == len(PLATFORMS)
        assert snapshot["completion_pct"] == 100.0

    def test_killed_sweep_resumes_without_double_count(self, tmp_path):
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            pytest.skip("no fork start method on this platform")
        journal = tmp_path / "journal"

        def crash_after_first_shard():
            original = shard_journal.store_shard

            def store_and_die(directory, key, result, **kwargs):
                original(directory, key, result, **kwargs)
                os._exit(9)

            shard_journal.store_shard = store_and_die
            replay_grid(PLATFORMS, [WORKLOAD], journal=journal)

        sweep = context.Process(target=crash_after_first_shard)
        sweep.start()
        sweep.join()
        assert sweep.exitcode == 9

        # Mid-crash view: exactly one done, derived purely from disk.
        partial = progress_snapshot(journal)
        assert partial["shards_done"] == 1
        assert partial["shards_total"] == len(PLATFORMS)

        clear_cache()
        replay_grid(PLATFORMS, [WORKLOAD], journal=journal)
        resumed = progress_snapshot(journal)
        assert resumed["shards_total"] == len(PLATFORMS)
        assert resumed["shards_done"] == len(PLATFORMS)  # once each
        assert resumed["shards_pending"] == 0
        assert resumed["completion_pct"] == 100.0

    def test_full_journal_directory_degrades(self, tmp_path, monkeypatch):
        """ENOSPC renaming ``sweep.json`` into place costs the progress
        view, not the sweep: same grid, no temp file left, one count of
        ``sweep_progress.fallbacks``."""
        expected = replay_grid(["ideal"], [WORKLOAD], processes=1)
        clear_cache()
        real_replace = os.replace

        def replace(source, target):
            if Path(target).name == SWEEP_MANIFEST:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC),
                              str(target))
            return real_replace(source, target)

        monkeypatch.setattr(os, "replace", replace)
        journal = tmp_path / "journal"
        monkeypatch.setenv(SHARD_JOURNAL_ENV, str(journal))
        before = FILES.stats["fallbacks"]
        with pytest.warns(UserWarning, match="No space left"):
            grid = replay_grid(["ideal"], [WORKLOAD], processes=1)
        assert grid == expected
        assert not [path.name for path in journal.iterdir()
                    if ".tmp" in path.name]
        assert not (journal / SWEEP_MANIFEST).exists()
        assert FILES.stats["fallbacks"] - before == 1
        assert shard_journal.STATS["fallbacks"] == 0


class TestCli:
    def test_sweep_status_json_shares_the_serializer(self, tmp_path,
                                                     capsys):
        from repro.cli import main

        journal = _fabricate_journal(tmp_path)
        assert main(["sweep", "status", "--journal", str(journal),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        reference = progress_snapshot(journal)
        assert payload["shards_done"] == reference["shards_done"]
        assert payload["schema"] == reference["schema"]
        assert [shard["key"] for shard in payload["shards"]] \
            == [shard["key"] for shard in reference["shards"]]

    def test_sweep_status_table(self, tmp_path, capsys):
        from repro.cli import main

        journal = _fabricate_journal(tmp_path)
        assert main(["sweep", "status",
                     "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "1/3 shards" in out

    def test_sweep_status_without_journal_exits_2(self, capsys):
        from repro.cli import main

        assert main(["sweep", "status"]) == 2
        assert "no journal" in capsys.readouterr().err

    def test_sweep_status_empty_journal_exits_1(self, tmp_path,
                                                capsys):
        from repro.cli import main

        assert main(["sweep", "status",
                     "--journal", str(tmp_path)]) == 1
        assert "no sweep progress" in capsys.readouterr().out

    def test_top_once(self, tmp_path, capsys):
        from repro.cli import main

        journal = _fabricate_journal(tmp_path)
        assert main(["top", "--journal", str(journal),
                     "--once"]) == 0
        out = capsys.readouterr().out
        assert "active shards:" in out

    def test_stats_format_json_is_the_export_document(self, capsys):
        from repro.cli import main
        from repro.obs.export import METRICS_SCHEMA_VERSION

        assert main(["stats", WORKLOAD, "--platform", "ideal",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == METRICS_SCHEMA_VERSION
        rows = {row["metric"]: row for row in payload["metrics"]}
        assert any(name.startswith("replay.") for name in rows)
        for row in rows.values():
            assert {"metric", "kind", "labels"} <= set(row)
