"""The structured JSONL run-event log: records, rotation, arming."""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.config import EVENTLOG_ENV
from repro.obs import eventlog as eventlog_mod
from repro.obs.eventlog import (EventLog, get_eventlog,
                                install_env_eventlog, read_events)


@pytest.fixture(autouse=True)
def fresh_global_log():
    eventlog_mod.reset_installed_for_tests()
    yield
    eventlog_mod.reset_installed_for_tests()


class TestEventLog:
    def test_disabled_by_default_and_emit_is_a_noop(self, tmp_path):
        log = EventLog()
        assert not log.enabled
        log.emit("gc_pause", kind="minor")  # must not raise or write
        assert list(tmp_path.iterdir()) == []

    def test_records_carry_event_ts_pid_and_fields(self, tmp_path):
        log = EventLog()
        log.open(tmp_path / "events.jsonl")
        log.emit("gc_pause", collector="MinorGC", kind="minor",
                 sim_ns=1200, host_ns=90)
        log.close()
        (record,) = read_events(tmp_path / "events.jsonl")
        assert record["event"] == "gc_pause"
        assert record["pid"] == os.getpid()
        assert record["ts"] > 0
        assert record["collector"] == "MinorGC"
        assert record["sim_ns"] == 1200

    def test_one_json_object_per_line(self, tmp_path):
        log = EventLog()
        log.open(tmp_path / "events.jsonl")
        for index in range(5):
            log.emit("cache_hit", key=f"k{index}")
        log.close()
        lines = (tmp_path / "events.jsonl").read_text().splitlines()
        assert len(lines) == 5
        for line in lines:
            json.loads(line)  # every line parses standalone

    def test_size_based_rotation_keeps_two_files(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog()
        log.open(path, max_bytes=512)
        for index in range(200):
            log.emit("gc_pause", seq=index)
        log.close()
        rotated = tmp_path / "events.jsonl.1"
        assert rotated.exists()
        assert path.stat().st_size <= 512
        assert rotated.stat().st_size <= 512
        # only the two files exist, however many rotations happened
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["events.jsonl", "events.jsonl.1"]

    def test_read_events_merges_rotated_oldest_first(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog()
        log.open(path, max_bytes=400)
        for index in range(50):
            log.emit("gc_pause", seq=index)
        log.close()
        merged = read_events(path)
        sequences = [record["seq"] for record in merged]
        assert sequences == sorted(sequences)  # rotated file leads
        assert len(read_events(path, include_rotated=False)) \
            < len(merged)

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog()
        log.open(path)
        log.emit("run_start")
        log.close()
        with open(path, "a") as handle:
            handle.write('{"event": "gc_pause", "trunc')
        records = read_events(path)
        assert [record["event"] for record in records] == ["run_start"]

    def test_forked_writer_reopens_and_interleaves(self, tmp_path):
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            pytest.skip("no fork start method on this platform")
        path = tmp_path / "events.jsonl"
        log = EventLog()
        log.open(path)
        log.emit("run_start")

        def child_emit():
            log.emit("gc_pause", side="child")

        process = context.Process(target=child_emit)
        process.start()
        process.join()
        assert process.exitcode == 0
        log.emit("run_end")
        log.close()
        records = read_events(path)
        assert {record["event"] for record in records} \
            == {"run_start", "gc_pause", "run_end"}
        pids = {record["pid"] for record in records}
        assert len(pids) == 2  # parent and child both stamped


class TestEnvInstall:
    def test_unset_env_installs_nothing(self):
        assert install_env_eventlog(environ={}) is None
        assert not get_eventlog().enabled

    def test_env_arms_log_and_emits_run_start(self, tmp_path):
        path = tmp_path / "events.jsonl"
        installed = install_env_eventlog(
            environ={EVENTLOG_ENV: str(path)})
        assert installed == str(path)
        records = read_events(path)
        assert records[0]["event"] == "run_start"
        assert records[0]["argv"]
        assert records[0]["schema"] \
            == eventlog_mod.EVENTLOG_SCHEMA_VERSION

    def test_installs_once_per_process(self, tmp_path):
        env = {EVENTLOG_ENV: str(tmp_path / "events.jsonl")}
        assert install_env_eventlog(environ=env) is not None
        assert install_env_eventlog(environ=env) is None

    def test_rotation_size_is_not_an_env_knob(self, tmp_path,
                                              monkeypatch):
        # The rotation size is DEFAULT_EVENTLOG_MAX_BYTES (16 MiB) unless
        # open() is given max_bytes; the environment does not move it.
        monkeypatch.setenv("REPRO_EVENTLOG_MAX_BYTES", "1024")
        path = tmp_path / "events.jsonl"
        install_env_eventlog(environ={EVENTLOG_ENV: str(path)})
        for index in range(100):
            get_eventlog().emit("gc_pause", seq=index)
        get_eventlog().close()
        assert path.stat().st_size > 1024
        assert not (tmp_path / "events.jsonl.1").exists()


class TestPipelineEmissions:
    def test_replayer_emits_gc_pause_records(self, tmp_path):
        from tests.conftest import make_mixed_run, platform_for

        log = get_eventlog()
        log.open(tmp_path / "events.jsonl")
        from repro.platform.fast_replay import make_replayer
        platform, _, _ = platform_for("charon")
        traces = make_mixed_run().traces
        make_replayer(platform).replay_all(traces)
        log.close()
        pauses = [record for record
                  in read_events(tmp_path / "events.jsonl")
                  if record["event"] == "gc_pause"]
        assert len(pauses) == len(traces)
        for pause in pauses:
            assert pause["collector"] \
                == eventlog_mod.COLLECTOR_FOR_KIND[pause["kind"]]
            assert pause["sim_ns"] > 0
            assert pause["host_ns"] > 0
            assert pause["platform"] == "charon"

    def test_trace_cache_emits_hit_and_miss(self, tmp_path):
        from repro.experiments import trace_cache
        from repro.experiments.runner import workload_config
        from repro.workloads import run_workload

        log = get_eventlog()
        log.open(tmp_path / "events.jsonl")
        config = workload_config("graphchi-als")
        produce = lambda: run_workload("graphchi-als")  # noqa: E731
        trace_cache.fetch_run("graphchi-als", config, produce,
                              directory=tmp_path / "cache")
        trace_cache.fetch_run("graphchi-als", config, produce,
                              directory=tmp_path / "cache")
        log.close()
        events = [record["event"] for record
                  in read_events(tmp_path / "events.jsonl")
                  if record["event"].startswith("cache_")]
        assert events == ["cache_miss", "cache_hit"]
