"""Provenance manifests: session runs, round-trips, cache-key match."""

from __future__ import annotations

import pytest

from repro.config import REPLAY_JOBS_ENV, TRACE_CACHE_ENV, settings
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
    assert manifest["capture_digest"] == trace_cache.capture_digest()
    assert manifest["command"] == "test"
    assert manifest["outputs"] == ["x"]
    assert manifest["runs"] == [record]
    assert set(manifest["trace_cache"]) == set(
        trace_cache.STATS.snapshot())
    assert manifest["host_wall_seconds"] >= 0.0
    assert "python" in manifest and "platform" in manifest
    assert manifest["settings"] == settings().to_dict()


def test_manifest_records_the_knobs(tmp_path, monkeypatch):
    """Every manifest names the knobs in force, and that record
    survives the file round trip."""
    monkeypatch.setenv(REPLAY_JOBS_ENV, "2")
    monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "cache"))
    path = provenance.write_manifest(tmp_path / "out", command="cmd")
    recorded = provenance.load_manifest(path)["settings"]
    assert recorded == settings().to_dict()
    assert recorded["jobs"] == 2
    assert recorded["trace_cache"] == str(tmp_path / "cache")
    assert provenance.round_trips(path)


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


class TestSweepProvenance:
    """Provenance under sweeps: one entry per capture, the hash naming
    a real cache entry — pooled, and across a kill and re-run."""

    WORKLOAD = "graphchi-als"
    PLATFORMS = ("cpu-ddr4", "ideal", "charon")

    @pytest.fixture(autouse=True)
    def isolated_sweep(self, tmp_path, monkeypatch):
        from repro.experiments.runner import clear_cache

        self.cache_dir = tmp_path / "trace-cache"
        monkeypatch.setenv(TRACE_CACHE_ENV, str(self.cache_dir))
        clear_cache()
        yield
        clear_cache()

    def _assert_one_run_with_disk_entry(self):
        runs = provenance.session_runs()
        captures = [run for run in runs
                    if run["workload"] == self.WORKLOAD]
        assert len(captures) == 1  # one capture, however many cells
        (capture,) = captures
        key = trace_cache.run_cache_key(
            self.WORKLOAD, workload_config(self.WORKLOAD))
        assert capture["config_hash"] == key
        # The hash is not an orphan: it names the cache entry the
        # sweep's cells replayed from.
        assert (self.cache_dir / f"{key}.npz").exists()
        return capture

    def test_sweep_records_one_run_per_workload(self):
        from repro.experiments.runner import replay_grid

        replay_grid(self.PLATFORMS, [self.WORKLOAD])
        capture = self._assert_one_run_with_disk_entry()
        assert capture["cache"] in ("hit", "generated")
        manifest = provenance.build_manifest(command="sweep")
        assert manifest["runs"] == provenance.session_runs()

    def test_forked_sweep_workers_share_the_config_hash(self):
        from repro.experiments.runner import (_fork_available,
                                              replay_grid)

        if not _fork_available():
            pytest.skip("no fork start method on this platform")
        replay_grid(self.PLATFORMS, [self.WORKLOAD], processes=2)
        # Workers record provenance in their own processes; the parent
        # session must still hold exactly one capture entry whose hash
        # names the single cache entry every worker replayed from.
        self._assert_one_run_with_disk_entry()
        assert len(store.TRACES.entries(self.cache_dir)) == 1

    def test_per_workload_pool_records_each_run_once(self, tmp_path,
                                                     monkeypatch):
        """Workers that capture or hit the cache hand their records to
        the parent: a pooled sweep's session lists each workload's run
        once, in grid order, with the serial sweep's ``cache`` values,
        cold and warm."""
        from repro.experiments.runner import (_fork_available,
                                              clear_cache, replay_grid)

        if not _fork_available():
            pytest.skip("no fork start method on this platform")
        workloads = ["spark-km", self.WORKLOAD]

        def cold_then_warm(processes):
            provenance.reset_session()
            for _ in range(2):
                clear_cache()
                replay_grid(self.PLATFORMS, workloads,
                            processes=processes)
            return [(run["workload"], run["cache"], run["config_hash"])
                    for run in provenance.session_runs()]

        serial = cold_then_warm(1)
        assert [cache for _, cache, _ in serial] \
            == ["generated"] * 2 + ["hit"] * 2
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "pooled"))
        assert cold_then_warm(2) == serial

    def test_rerun_after_kill_does_not_duplicate_entries(
            self, tmp_path):
        import multiprocessing
        import os as os_mod

        from repro.experiments import runner
        from repro.experiments.runner import clear_cache, replay_grid

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            pytest.skip("no fork start method on this platform")

        def crash_after_first_cell():
            original = runner.replay_platform

            def replay_and_die(*args, **kwargs):
                original(*args, **kwargs)
                os_mod._exit(9)

            runner.replay_platform = replay_and_die
            replay_grid(self.PLATFORMS, [self.WORKLOAD], processes=1)

        sweep = context.Process(target=crash_after_first_cell)
        sweep.start()
        sweep.join()
        assert sweep.exitcode == 9

        clear_cache()
        provenance.reset_session()
        replay_grid(self.PLATFORMS, [self.WORKLOAD])
        capture = self._assert_one_run_with_disk_entry()
        # The capture survived the kill, so the re-run replays it from
        # the cache rather than re-generating it.
        assert capture["cache"] == "hit"
        path = provenance.write_manifest(tmp_path / "out",
                                         command="re-run sweep")
        assert provenance.round_trips(path)
        assert len(provenance.load_manifest(path)["runs"]) \
            == len(provenance.session_runs())
