"""Property tests for the trace codecs (JSON and binary columnar).

Hypothesis generates arbitrary traces — any primitive mix, phase
interleaving, residuals, stats counters — and both codecs must
round-trip them field-for-field.  Version or format tampering must be
rejected loudly with :class:`ConfigError`, never half-read.
"""

import json
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.gcalgo import trace_io
from repro.gcalgo.columnar import STAT_FIELDS, compile_trace
from repro.gcalgo.trace import (GCTrace, Primitive, ResidualWork,
                                TraceEvent)
from repro.gcalgo.trace_io import (load_compiled, load_manifest,
                                   load_summaries, load_traces,
                                   save_traces, save_traces_npz,
                                   stream_compiled, trace_to_dict)

PHASES = ("setup", "root", "mark", "evacuate", "drain", "sweep",
          "summary")

events = st.builds(
    TraceEvent,
    primitive=st.sampled_from(list(Primitive)),
    phase=st.sampled_from(PHASES),
    src=st.integers(0, 2**40),
    dst=st.integers(0, 2**40),
    size_bytes=st.integers(0, 2**32),
    refs=st.integers(0, 10_000),
    pushes=st.integers(0, 10_000),
    bits=st.integers(0, 1_000_000),
    bits_cached=st.one_of(st.none(), st.integers(0, 1_000_000)),
    found=st.booleans(),
)


@st.composite
def traces(draw):
    trace = GCTrace(draw(st.sampled_from(["minor", "major", "sweep",
                                          "g1"])),
                    heap_bytes=draw(st.integers(0, 2**40)))
    trace.events = draw(st.lists(events, max_size=30))
    for phase in draw(st.lists(st.sampled_from(PHASES), unique=True,
                               max_size=4)):
        trace.residuals[phase] = ResidualWork(
            instructions=float(draw(st.integers(0, 2**32))),
            bytes_accessed=draw(st.integers(0, 2**40)))
    for name in STAT_FIELDS:
        setattr(trace, name, draw(st.integers(0, 2**40)))
    return trace


trace_lists = st.lists(traces(), max_size=3)


class TestRoundTripProperties:
    @given(trace=traces())
    def test_compile_round_trip(self, trace):
        assert trace_to_dict(compile_trace(trace).to_trace()) \
            == trace_to_dict(trace)

    @settings(max_examples=25, deadline=None)
    @given(batch=trace_lists)
    def test_json_file_round_trip(self, batch):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "run.gctrace.json"
            save_traces(batch, path)
            loaded = load_traces(path)
        assert [trace_to_dict(t) for t in loaded] \
            == [trace_to_dict(t) for t in batch]

    @settings(max_examples=25, deadline=None)
    @given(batch=trace_lists)
    def test_npz_file_round_trip(self, batch):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "run.gctrace.npz"
            save_traces(batch, path)
            loaded = load_traces(path)
        assert [trace_to_dict(t) for t in loaded] \
            == [trace_to_dict(t) for t in batch]

    @settings(max_examples=25, deadline=None)
    @given(batch=trace_lists)
    def test_formats_agree(self, batch):
        """Saving through either codec loads back the same traces, and
        residual insertion order survives both."""
        with tempfile.TemporaryDirectory() as directory:
            json_path = Path(directory) / "a.gctrace.json"
            npz_path = Path(directory) / "a.gctrace.npz"
            save_traces(batch, json_path)
            save_traces(batch, npz_path)
            from_json = load_traces(json_path)
            from_npz = load_traces(npz_path)
        assert [trace_to_dict(t) for t in from_json] \
            == [trace_to_dict(t) for t in from_npz]
        for original, loaded in zip(batch, from_npz):
            assert list(loaded.residuals) == list(original.residuals)


class TestChunkedLayout:
    @settings(max_examples=25, deadline=None)
    @given(batch=trace_lists, chunk_events=st.integers(1, 64))
    def test_any_chunk_boundary_matches_monolithic(self, batch,
                                                   chunk_events):
        """Chunk size is a storage detail: every boundary — including
        1-event chunks and a single chunk holding everything — loads
        back identical to the monolithic layout, eagerly or streamed."""
        with tempfile.TemporaryDirectory() as directory:
            mono = Path(directory) / "mono.gctrace.npz"
            chunked = Path(directory) / "chunked.gctrace.npz"
            save_traces_npz(batch, mono, chunk_events=10**9)
            save_traces_npz(batch, chunked, chunk_events=chunk_events)
            eager, _ = load_compiled(chunked)
            reference, _ = load_compiled(mono)
            streamed = list(stream_compiled(chunked))
            summaries = load_summaries(chunked)
        assert [trace_to_dict(t.to_trace()) for t in eager] \
            == [trace_to_dict(t.to_trace()) for t in reference]
        for left, right in zip(eager, reference):
            assert np.array_equal(left.events, right.events)
        assert [trace_to_dict(t.to_trace()) for t in streamed] \
            == [trace_to_dict(t.to_trace()) for t in eager]
        assert summaries == [t.summary() for t in reference]

    def test_single_chunk_keeps_monolithic_member_name(self, tmp_path,
                                                       mixed_run):
        """A trace that fits one chunk stays byte-layout-compatible
        with pre-chunking readers: same member names as before."""
        path = tmp_path / "run.gctrace.npz"
        save_traces_npz(mixed_run.traces, path)
        with zipfile.ZipFile(path) as archive:
            names = archive.namelist()
        assert "events_00000.npy" in names
        assert not any(name.count("_") > 1 for name in names
                       if name.startswith("events_"))

    def test_chunked_members_are_indexed_per_trace(self, tmp_path,
                                                   mixed_run):
        path = tmp_path / "run.gctrace.npz"
        save_traces_npz(mixed_run.traces, path, chunk_events=1)
        with zipfile.ZipFile(path) as archive:
            names = set(archive.namelist())
        assert "events_00000_00000.npy" in names
        assert "events_00000.npy" not in names
        manifest = load_manifest(path)
        for entry in manifest["traces"]:
            assert entry["chunks"] == max(1, entry["events"])

    def test_streaming_feed_replays_identically(self, tmp_path,
                                                mixed_run):
        """The generator feed drives the fast replayer to the same
        result as the fully materialized list."""
        from repro.platform.fast_replay import make_replayer
        from tests.conftest import platform_for
        path = tmp_path / "run.gctrace.npz"
        save_traces_npz(mixed_run.traces, path, chunk_events=3)
        eager = make_replayer(platform_for("charon")[0],
                              threads=4).replay_all(load_compiled(path)[0])
        streamed = make_replayer(platform_for("charon")[0],
                                 threads=4).replay_all(stream_compiled(path))
        assert eager == streamed


def saved_npz(tmp_path, mixed_run):
    path = tmp_path / "run.gctrace.npz"
    save_traces(mixed_run.traces, path)
    return path


class TestTampering:
    def test_npz_version_mismatch_rejected(self, tmp_path, mixed_run,
                                           monkeypatch):
        path = saved_npz(tmp_path, mixed_run)
        monkeypatch.setattr(trace_io, "TRACE_SCHEMA_VERSION",
                            trace_io.TRACE_SCHEMA_VERSION + 1)
        with pytest.raises(ConfigError, match="schema version"):
            load_compiled(path)

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, data=np.arange(4))
        with pytest.raises(ConfigError, match="not a binary gctrace"):
            load_compiled(path)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(ConfigError, match="not a readable"):
            load_compiled(path)

    def test_missing_event_array_rejected(self, tmp_path, mixed_run):
        path = saved_npz(tmp_path, mixed_run)
        with np.load(path) as archive:
            manifest = json.loads(str(archive["manifest"]))
            kept = {key: archive[key] for key in archive.files
                    if key not in ("manifest", "events_00001")}
        np.savez(path, manifest=np.asarray(json.dumps(manifest)), **kept)
        with pytest.raises(ConfigError):
            load_compiled(path)

    @pytest.mark.parametrize("mode", ["fast", "event"])
    @pytest.mark.parametrize("platform", ["ideal", "cpu-ddr4", "charon"])
    def test_unknown_primitive_code_rejected(self, tmp_path, mixed_run,
                                             platform, mode):
        """A ``prim`` byte that names no primitive is rejected once, at
        decode, whichever replayer would have consumed it."""
        from repro.cli import main

        path = saved_npz(tmp_path, mixed_run)
        with np.load(path) as archive:
            members = {key: archive[key] for key in archive.files}
        members[trace_io._event_key(1)]["prim"][0] = 9
        np.savez(path, **members)
        with pytest.raises(ConfigError,
                           match="trace 1 has unknown primitive code 9"):
            main(["replay", str(path), "--platform", platform,
                  "--mode", mode])

    def test_json_version_mismatch_rejected(self, tmp_path, mixed_run):
        path = tmp_path / "run.gctrace.json"
        save_traces(mixed_run.traces, path)
        document = json.loads(path.read_text())
        document["version"] = 999
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigError, match="version"):
            load_traces(path)

    def test_json_foreign_format_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ConfigError, match="not a gctrace"):
            load_traces(path)


def corrupt_event_members(path):
    """Rewrite the archive with every trace-0 event member replaced by
    junk bytes, keeping the zip and the manifest readable."""
    with zipfile.ZipFile(path) as archive:
        members = [(name, archive.read(name))
                   for name in archive.namelist()]
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members:
            archive.writestr(name, b"junk bytes"
                             if name.startswith("events_00000") else data)


class TestLazyMemberAccess:
    """Metadata queries must not decompress event members.

    Pins the fix for the eager-``np.load`` regression: asking for the
    manifest or the summaries used to materialize every event array.
    Corrupting the event members while keeping the manifest intact
    makes any hidden event read blow up loudly.
    """

    def test_summary_queries_skip_event_members(self, tmp_path,
                                                mixed_run):
        path = saved_npz(tmp_path, mixed_run)
        expected = load_summaries(path)
        corrupt_event_members(path)
        manifest = load_manifest(path)
        assert [entry["kind"] for entry in manifest["traces"]] \
            == [trace.kind for trace in mixed_run.traces]
        assert load_summaries(path) == expected

    def test_eager_load_still_validates_event_members(self, tmp_path,
                                                      mixed_run):
        path = saved_npz(tmp_path, mixed_run)
        corrupt_event_members(path)
        with pytest.raises(ConfigError):
            load_compiled(path)

    def test_streaming_still_validates_event_members(self, tmp_path,
                                                     mixed_run):
        path = saved_npz(tmp_path, mixed_run)
        corrupt_event_members(path)
        with pytest.raises(ConfigError):
            list(stream_compiled(path))


class TestAtomicWrite:
    def test_no_temp_file_left_behind(self, tmp_path, mixed_run):
        path = tmp_path / "run.gctrace.npz"
        save_traces(mixed_run.traces, path)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_npz_is_a_plain_zip(self, tmp_path, mixed_run):
        """The artifact stays inspectable with stock tooling."""
        path = saved_npz(tmp_path, mixed_run)
        assert zipfile.is_zipfile(path)
