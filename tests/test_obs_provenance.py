"""Provenance manifests: session runs, round-trips, cache-key match."""

from __future__ import annotations

import pytest

from repro.experiments import store, trace_cache
from repro.experiments.runner import workload_config
from repro.gcalgo.columnar import TRACE_SCHEMA_VERSION
from repro.obs import provenance


@pytest.fixture(autouse=True)
def fresh_session():
    provenance.reset_session()
    yield
    provenance.reset_session()


def _record(cache="generated"):
    config = workload_config("graphchi-als")
    key = trace_cache.run_cache_key("graphchi-als", config)
    return provenance.record_run(
        workload="graphchi-als",
        heap_bytes=config.heap.heap_bytes,
        config_hash=key, cache=cache, host_seconds=0.125), key


def test_record_run_validates_cache_kind():
    with pytest.raises(ValueError):
        provenance.record_run("w", 1, "hash", cache="maybe",
                              host_seconds=0.0)


def test_session_runs_are_copies():
    _record()
    runs = provenance.session_runs()
    runs[0]["workload"] = "tampered"
    assert provenance.session_runs()[0]["workload"] == "graphchi-als"


def test_build_manifest_contents():
    record, key = _record(cache="hit")
    manifest = provenance.build_manifest(command="test", outputs=["x"])
    assert manifest["schema"] == provenance.MANIFEST_SCHEMA_VERSION
    assert manifest["trace_schema_version"] == TRACE_SCHEMA_VERSION
    assert manifest["generator_version"] == \
        trace_cache.GENERATOR_VERSION
    assert manifest["command"] == "test"
    assert manifest["outputs"] == ["x"]
    assert manifest["runs"] == [record]
    assert set(manifest["trace_cache"]) == set(
        trace_cache.STATS.snapshot())
    assert manifest["host_wall_seconds"] >= 0.0
    assert "python" in manifest and "platform" in manifest


def test_manifest_config_hash_is_the_trace_cache_key():
    """The acceptance bar: an output's manifest cross-references the
    cache entry the same run would be stored under, byte for byte."""
    record, key = _record()
    assert record["config_hash"] == key
    # The key is what store_run would name the .npz entry.
    assert key == trace_cache.run_cache_key(
        "graphchi-als", workload_config("graphchi-als"))


def test_write_load_round_trip(tmp_path):
    _record()
    path = provenance.write_manifest(tmp_path / "out", command="cmd",
                                     outputs=["table.txt"])
    assert path == provenance.manifest_path(tmp_path / "out")
    loaded = provenance.load_manifest(path)
    assert loaded["command"] == "cmd"
    assert loaded["runs"][0]["cache"] == "generated"
    assert provenance.round_trips(path)


def test_named_manifest(tmp_path):
    path = provenance.write_manifest(tmp_path,
                                     name="fig12.manifest.json")
    assert path.name == "fig12.manifest.json"
    assert provenance.round_trips(path)


def test_runner_records_provenance_with_matching_hash():
    """collect_run reports every capture with the exact cache key."""
    from repro.experiments.runner import collect_run

    heap_bytes = 16 * (1 << 20) + (1 << 16)  # unique -> not memoised
    collect_run("graphchi-als", heap_bytes=heap_bytes)
    run = provenance.session_runs()[-1]
    assert run["workload"] == "graphchi-als"
    assert run["cache"] in ("hit", "generated")
    assert run["host_seconds"] > 0.0
    assert run["config_hash"] == trace_cache.run_cache_key(
        "graphchi-als", workload_config("graphchi-als", heap_bytes))


class TestJournaledSweepProvenance:
    """Provenance under durable sweeps: one entry per capture, the
    hash naming a real cache entry — across kills and resumes."""

    WORKLOAD = "graphchi-als"
    PLATFORMS = ("cpu-ddr4", "ideal", "charon")

    @pytest.fixture(autouse=True)
    def isolated_sweep(self, tmp_path, monkeypatch):
        from repro.config import TRACE_CACHE_ENV
        from repro.experiments import shard_journal
        from repro.experiments.runner import clear_cache

        monkeypatch.delenv(shard_journal.REPRO_SHARD_JOURNAL,
                           raising=False)
        self.cache_dir = tmp_path / "trace-cache"
        monkeypatch.setenv(TRACE_CACHE_ENV, str(self.cache_dir))
        clear_cache()
        shard_journal.STATS.reset()
        yield
        clear_cache()
        shard_journal.STATS.reset()

    def _assert_one_run_with_disk_entry(self):
        runs = provenance.session_runs()
        captures = [run for run in runs
                    if run["workload"] == self.WORKLOAD]
        assert len(captures) == 1  # one capture, however many shards
        (capture,) = captures
        key = trace_cache.run_cache_key(
            self.WORKLOAD, workload_config(self.WORKLOAD))
        assert capture["config_hash"] == key
        # The hash is not an orphan: it names the cache entry the
        # sweep's shards replayed from.
        assert (self.cache_dir / f"{key}.npz").exists()
        return capture

    def test_journaled_sweep_records_one_run_per_workload(
            self, tmp_path):
        from repro.experiments.runner import replay_grid

        replay_grid(self.PLATFORMS, [self.WORKLOAD],
                    journal=tmp_path / "journal")
        capture = self._assert_one_run_with_disk_entry()
        assert capture["cache"] in ("hit", "generated")
        manifest = provenance.build_manifest(command="sweep")
        assert manifest["runs"] == provenance.session_runs()

    def test_forked_sweep_workers_share_the_config_hash(
            self, tmp_path):
        from repro.experiments.runner import (_fork_available,
                                              replay_grid)

        if not _fork_available():
            pytest.skip("no fork start method on this platform")
        replay_grid(self.PLATFORMS, [self.WORKLOAD], processes=2,
                    journal=tmp_path / "journal")
        # Workers record provenance in their own processes; the parent
        # session must still hold exactly one capture entry whose hash
        # names the single cache entry every worker replayed from.
        self._assert_one_run_with_disk_entry()
        assert len(store.TRACES.entries(self.cache_dir)) == 1

    def test_resume_after_kill_does_not_duplicate_entries(
            self, tmp_path):
        import multiprocessing
        import os as os_mod

        from repro.experiments import shard_journal
        from repro.experiments.runner import clear_cache, replay_grid

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            pytest.skip("no fork start method on this platform")
        journal = tmp_path / "journal"

        def crash_after_first_shard():
            original = shard_journal.store_shard

            def store_and_die(directory, key, result, **kwargs):
                original(directory, key, result, **kwargs)
                os_mod._exit(9)

            shard_journal.store_shard = store_and_die
            replay_grid(self.PLATFORMS, [self.WORKLOAD],
                        journal=journal)

        sweep = context.Process(target=crash_after_first_shard)
        sweep.start()
        sweep.join()
        assert sweep.exitcode == 9

        clear_cache()
        provenance.reset_session()
        replay_grid(self.PLATFORMS, [self.WORKLOAD], journal=journal)
        capture = self._assert_one_run_with_disk_entry()
        # The capture survived the kill, so the resume replays it from
        # the cache rather than re-generating it.
        assert capture["cache"] == "hit"
        path = provenance.write_manifest(tmp_path / "out",
                                         command="resumed sweep")
        assert provenance.round_trips(path)
        assert len(provenance.load_manifest(path)["runs"]) \
            == len(provenance.session_runs())
