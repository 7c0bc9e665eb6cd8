"""Tests for trace serialization and the device report."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.report import (device_summary, full_report,
                               traffic_summary, unit_rows)
from repro.errors import ConfigError
from repro.gcalgo.mark_compact import MajorGC
from repro.gcalgo.parallel_scavenge import MinorGC
from repro.gcalgo.trace import GCTrace, Primitive
from repro.gcalgo.trace_io import load_compiled, save_traces_npz
from repro.platform import TraceReplayer

from tests.conftest import (cli_error, make_heap, platform_for,
                            trace_contents)


def real_traces():
    heap = make_heap()
    prev = 0
    for _ in range(800):
        view = heap.new_object("Record")
        heap.set_field(view, 0, prev)
        prev = view.addr
    heap.roots.append(prev)
    traces = [MinorGC(heap).collect() for _ in range(5)]
    traces.append(MajorGC(heap).collect())
    return traces


def same_events(a, b):
    return (a.phase_names == b.phase_names
            and np.array_equal(a.events, b.events))


def round_trip(traces, path):
    save_traces_npz(traces, path)
    return load_compiled(path)[0]


class TestTraceRoundtrip:
    def test_file_roundtrip_preserves_everything(self, tmp_path):
        trace = GCTrace("major", heap_bytes=123)
        trace.copy("compact", 0x100, 0x80, 64)
        trace.search("card-search", 0x200, 128, True)
        trace.scan_push("mark", 0x300, 5, 2)
        trace.bitmap_count("adjust", 0x400, 77, bits_cached=9)
        trace.residual("setup", 1000.0, 4096)
        trace.objects_copied = 1
        trace.bytes_copied = 64

        (restored,) = round_trip([trace], tmp_path / "one.gctrace.npz")
        assert restored.kind == "major"
        assert restored.heap_bytes == 123
        assert len(restored.events) == 4
        assert same_events(restored, trace)
        assert restored.residuals["setup"].instructions == 1000.0
        assert restored.objects_copied == 1

    def test_file_roundtrip(self, tmp_path):
        traces = real_traces()
        path = tmp_path / "run.gctrace.npz"
        events = save_traces_npz(traces, path)
        assert events == sum(len(t.events) for t in traces)
        restored, _ = load_compiled(path)
        assert len(restored) == len(traces)
        for original, back in zip(traces, restored):
            assert same_events(back, original)
            assert back.summary() == original.summary()

    def test_replay_of_loaded_traces_identical(self, tmp_path):
        traces = real_traces()
        restored = round_trip(traces, tmp_path / "run.gctrace.npz")
        original_result = TraceReplayer(
            platform_for("charon")[0]).replay_all(traces)
        restored_result = TraceReplayer(
            platform_for("charon")[0]).replay_all(restored)
        assert restored_result.wall_seconds == pytest.approx(
            original_result.wall_seconds)
        assert restored_result.dram_bytes == original_result.dram_bytes

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.gctrace.npz"
        np.savez(path, manifest=np.asarray(
            json.dumps({"format": "something-else"})))
        with pytest.raises(ConfigError, match="not a binary gctrace"):
            load_compiled(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "old.gctrace.npz"
        np.savez(path, manifest=np.asarray(json.dumps(
            {"format": "repro-gctrace-npz", "version": 999,
             "traces": []})))
        with pytest.raises(ConfigError, match="schema version 999"):
            load_compiled(path)

    @given(st.lists(
        st.tuples(st.sampled_from(list(Primitive)),
                  st.integers(min_value=0, max_value=2**40),
                  st.integers(min_value=0, max_value=2**20),
                  st.integers(min_value=0, max_value=500)),
        max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_events_roundtrip(self, rows):
        trace = GCTrace("minor")
        for primitive, src, size, refs in rows:
            phase = f"p{refs % 3}"
            if primitive is Primitive.COPY:
                trace.copy(phase, src, src + size, size)
            elif primitive is Primitive.SEARCH:
                trace.search(phase, src, size, found=refs % 2 == 0)
            elif primitive is Primitive.SCAN_PUSH:
                trace.scan_push(phase, src, refs, min(refs, 3))
            else:
                trace.bitmap_count(phase, src, size % 513,
                                   bits_cached=None if refs % 2
                                   else refs % 7)
        with tempfile.TemporaryDirectory() as directory:
            restored = round_trip([trace],
                                  Path(directory) / "t.gctrace.npz")
        assert trace_contents(restored) == trace_contents([trace])


def one_phase_trace():
    trace = GCTrace("minor", heap_bytes=16 << 20)
    trace.copy("evacuate", 0x1000, 0x2000, 64)
    trace.copy("evacuate", 0x1040, 0x2040, 64)
    return trace


def npz_with_events(path, edit):
    save_traces_npz([one_phase_trace()], path)
    with np.load(path) as archive:
        members = {key: archive[key] for key in archive.files}
    members["events_00000"] = edit(members["events_00000"])
    np.savez(path, **members)


def phase_id_5(events):
    events["phase"][1] = 5
    return events


def three_fields(events):
    return events[list(events.dtype.names[:3])].copy()


@pytest.mark.parametrize("edit,mode,message", [
    (phase_id_5, "fast", "trace 0 has phase id 5 but 1 phase names"),
    (phase_id_5, "event", "trace 0 has phase id 5 but 1 phase names"),
    (three_fields, "fast", "trace 0 event layout does not match"),
    (three_fields, "event", "trace 0 event layout does not match"),
], ids=["npz-phase-id-fast", "npz-phase-id-event", "npz-short-row-fast",
        "npz-short-row-event"])
def test_malformed_trace_file_is_a_config_error(tmp_path, capsys, edit,
                                                mode, message):
    """``repro replay`` reports a malformed trace file as a
    ConfigError, never a traceback from deep inside a replayer."""
    path = tmp_path / "bad.gctrace.npz"
    npz_with_events(path, edit)
    with pytest.raises(ConfigError, match=message):
        load_compiled(path)
    assert message in cli_error(capsys, ["replay", str(path), "--platform",
                                         "charon", "--mode", mode])


class TestDeviceReport:
    def make_used_device(self):
        platform, heap, _ = platform_for("charon")
        traces = real_traces()
        TraceReplayer(platform).replay_all(traces)
        return platform.device

    def test_unit_rows_cover_all_units(self):
        device = self.make_used_device()
        rows = unit_rows(device)
        assert len(rows) == len(device.all_units())
        assert any(row["commands"] > 0 for row in rows)

    def test_device_summary_consistent(self):
        device = self.make_used_device()
        summary = device_summary(device)
        assert summary["offloads"] > 0
        assert summary["request_bytes"] == 48 * summary["offloads"]
        assert 0.0 <= summary["tlb_remote_fraction"] <= 1.0

    def test_traffic_summary(self):
        device = self.make_used_device()
        traffic = traffic_summary(device.hmc)
        assert traffic["tsv_bytes"] > 0
        assert traffic["unit_local_bytes"] \
            + traffic["unit_remote_bytes"] > 0
        assert 0.0 <= traffic["local_fraction"] <= 1.0

    def test_full_report_renders(self):
        device = self.make_used_device()
        text = full_report(device)
        assert "device" in text
        assert "units" in text
        assert "copy_search#0" in text
