"""Property tests for the trace file codec.

Hypothesis records arbitrary traces through the recording methods —
any primitive mix, phase interleaving, residuals, stats counters — and
sealing and the codec must round-trip them field-for-field.  Version,
format or manifest tampering must be rejected loudly with
:class:`ConfigError`, never half-read.
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
from repro.gcalgo.trace_io import load_compiled, save_traces_npz

from tests.conftest import (SMALL_HEAP_BYTES, cli_error, make_mixed_run,
                            platform_for, trace_contents)

PHASES = ("setup", "root", "mark", "evacuate", "drain", "sweep",
          "summary")

phases = st.sampled_from(PHASES)
addresses = st.integers(0, 2**40)

#: One recording-method call: ``(method, phase, *arguments)``.
recordings = st.one_of(
    st.tuples(st.just("copy"), phases, addresses, addresses,
              st.integers(0, 2**32)),
    st.tuples(st.just("search"), phases, addresses,
              st.integers(0, 2**32), st.booleans()),
    st.tuples(st.just("scan_push"), phases, addresses,
              st.integers(0, 10_000), st.integers(0, 10_000)),
    st.tuples(st.just("bitmap_count"), phases, addresses,
              st.integers(0, 1_000_000),
              st.one_of(st.none(), st.integers(0, 1_000_000))),
)


def recorded_event(method, phase, src, first, second):
    """The event one recording call stands for."""
    if method == "copy":
        return TraceEvent(Primitive.COPY, phase, src=src, dst=first,
                          size_bytes=second)
    if method == "search":
        return TraceEvent(Primitive.SEARCH, phase, src=src,
                          size_bytes=first, found=second)
    if method == "scan_push":
        return TraceEvent(Primitive.SCAN_PUSH, phase, src=src,
                          refs=first, pushes=second)
    return TraceEvent(Primitive.BITMAP_COUNT, phase, src=src, bits=first,
                      bits_cached=second)


def record(trace, calls):
    for method, *arguments in calls:
        getattr(trace, method)(*arguments)


@st.composite
def traces(draw):
    trace = GCTrace(draw(st.sampled_from(["minor", "major", "sweep",
                                          "g1"])),
                    heap_bytes=draw(st.integers(0, 2**40)))
    record(trace, draw(st.lists(recordings, max_size=30)))
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
    @given(calls=st.lists(recordings, max_size=30))
    def test_compile_round_trip(self, calls):
        trace = GCTrace("major")
        record(trace, calls)
        assert list(compile_trace(trace).iter_events()) \
            == [recorded_event(*call) for call in calls]

    @settings(max_examples=25, deadline=None)
    @given(batch=trace_lists)
    def test_npz_file_round_trip(self, batch):
        """Residual insertion order survives too."""
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "run.gctrace.npz"
            assert save_traces_npz(batch, path) \
                == sum(len(t.events) for t in batch)
            loaded, extra = load_compiled(path)
        assert trace_contents(loaded) == trace_contents(batch)
        assert extra == {}

    def test_one_member_per_trace(self, tmp_path, mixed_run):
        path = tmp_path / "run.gctrace.npz"
        save_traces_npz(mixed_run.traces, path)
        with zipfile.ZipFile(path) as archive:
            names = sorted(archive.namelist())
        assert names == [f"events_{index:05d}.npy" for index
                         in range(len(mixed_run.traces))] \
            + ["manifest.npy"]

    def test_loaded_traces_replay_identically(self, tmp_path,
                                              mixed_run):
        """The fast replayer gives the same result for the loaded
        traces as for the captured ones."""
        from repro.platform.fast_replay import make_replayer
        path = tmp_path / "run.gctrace.npz"
        save_traces_npz(mixed_run.traces, path)
        captured = make_replayer(platform_for("charon")[0],
                                 threads=4).replay_all(mixed_run.traces)
        loaded = make_replayer(platform_for("charon")[0],
                               threads=4).replay_all(load_compiled(path)[0])
        assert loaded == captured


def saved_npz(tmp_path, mixed_run):
    path = tmp_path / "run.gctrace.npz"
    save_traces_npz(mixed_run.traces, path)
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
    def test_unknown_primitive_code_rejected(self, tmp_path, capsys,
                                             mixed_run, platform, mode):
        """A ``prim`` byte that names no primitive is rejected once, at
        decode, whichever replayer would have consumed it."""
        path = saved_npz(tmp_path, mixed_run)
        with np.load(path) as archive:
            members = {key: archive[key] for key in archive.files}
        members["events_00001"]["prim"][0] = 9
        np.savez(path, **members)
        message = "trace 1 has unknown primitive code 9"
        with pytest.raises(ConfigError, match=message):
            load_compiled(path)
        assert message in cli_error(capsys, [
            "replay", str(path), "--platform", platform, "--mode", mode])

    def test_declared_event_count_must_match(self, tmp_path, mixed_run):
        path = saved_npz(tmp_path, mixed_run)
        rewrite_manifest(path, with_entry("events", 10**6))
        with pytest.raises(ConfigError, match="trace 0 declares"):
            load_compiled(path)


def rewrite_manifest(path, edit):
    """Rewrite the archive's manifest as ``edit`` returns it, keeping
    every event member."""
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name)
                   for name in archive.namelist()}
    with np.load(path) as archive:
        manifest = edit(json.loads(str(archive["manifest"])))
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members.items():
            if name != "manifest.npy":
                archive.writestr(name, data)
        with archive.open("manifest.npy", "w") as member:
            np.lib.format.write_array(
                member, np.asarray(json.dumps(manifest)))


def with_entry(field, value):
    """A manifest edit setting trace 0's ``field`` to ``value``."""
    def edit(manifest):
        manifest["traces"][0][field] = value
        return manifest
    return edit


#: Manifests of the wrong shape: each once escaped the reader as an
#: AttributeError or a TypeError.
MALFORMED_MANIFESTS = {
    "manifest-list": lambda manifest: [1],
    "traces-int": lambda manifest: {**manifest, "traces": 5},
    "residuals-list": with_entry("residuals", [1]),
    "stats-list": with_entry("stats", [1]),
}


@pytest.mark.parametrize("edit", MALFORMED_MANIFESTS.values(),
                         ids=MALFORMED_MANIFESTS.keys())
def test_malformed_manifest_is_stale(tmp_path, capsys, mixed_run, edit):
    """A manifest of the wrong shape is a ConfigError from the reader
    and from ``repro replay``; as a trace-cache entry it is counted
    stale, deleted and recaptured."""
    from repro.config import default_config
    from repro.experiments import trace_cache

    path = saved_npz(tmp_path, mixed_run)
    rewrite_manifest(path, edit)
    with pytest.raises(ConfigError):
        load_compiled(path)
    cli_error(capsys, ["replay", str(path), "--platform", "charon"])

    directory = tmp_path / "cache"
    config = default_config().with_heap_bytes(SMALL_HEAP_BYTES)
    trace_cache.fetch_run("mixed", config, make_mixed_run,
                          directory=directory)
    (entry,) = directory.glob("*.npz")
    rewrite_manifest(entry, edit)
    before = trace_cache.STATS.snapshot()
    with pytest.warns(UserWarning, match="stale trace-cache entry"):
        run = trace_cache.fetch_run("mixed", config, make_mixed_run,
                                    directory=directory)
    after = trace_cache.STATS.snapshot()
    assert after["stale"] - before["stale"] == 1
    assert after["generated"] - before["generated"] == 1
    assert trace_contents(run.traces) == trace_contents(mixed_run.traces)
    assert trace_contents(load_compiled(entry)[0]) \
        == trace_contents(mixed_run.traces)


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
    """A readable manifest does not vouch for the event members: the
    reader decodes and checks every one of them."""

    def test_eager_load_still_validates_event_members(self, tmp_path,
                                                      mixed_run):
        path = saved_npz(tmp_path, mixed_run)
        corrupt_event_members(path)
        with pytest.raises(ConfigError):
            load_compiled(path)


class TestAtomicWrite:
    def test_no_temp_file_left_behind(self, tmp_path, mixed_run):
        path = tmp_path / "run.gctrace.npz"
        save_traces_npz(mixed_run.traces, path)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_npz_is_a_plain_zip(self, tmp_path, mixed_run):
        """The artifact stays inspectable with stock tooling."""
        path = saved_npz(tmp_path, mixed_run)
        assert zipfile.is_zipfile(path)
