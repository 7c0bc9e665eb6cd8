"""Tests for a trace's column form: recording, sealing, reading back."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.gcalgo import columnar
from repro.gcalgo.columnar import compile_trace, trace_from_columns
from repro.gcalgo.trace import (EVENT_DTYPE, NO_BITS_CACHED, STAT_FIELDS,
                                GCTrace, Primitive, ResidualWork,
                                TraceEvent)
from repro.gcalgo.trace_io import load_compiled, save_traces_npz
from repro.platform.replay import TraceReplayer
from repro.workloads.mutator import WorkloadRun


def all_traces(mixed_run, tiny_spark_run):
    return mixed_run.traces + tiny_spark_run.traces


def npz_round_trip(traces, tmp_path):
    path = tmp_path / "traces.gctrace.npz"
    save_traces_npz(traces, path)
    return load_compiled(path)[0]


def segments(events):
    """Maximal same-phase runs of an event list, as (phase, count)."""
    runs = []
    for event in events:
        if runs and runs[-1][0] == event.phase:
            runs[-1][1] += 1
        else:
            runs.append([event.phase, 1])
    return [tuple(run) for run in runs]


class TestRoundTrip:
    def test_compile_is_lossless(self):
        trace = GCTrace("major")
        trace.copy("compact", 0x100, 0x80, 64)
        trace.search("card-search", 0x200, 128, True)
        trace.search("card-search", 0x300, 256, False)
        trace.scan_push("mark", 0x400, 5, 2)
        trace.bitmap_count("adjust", 0x500, 77, bits_cached=9)
        trace.copy("compact", 1 << 45, (1 << 45) + 64, 1 << 33)
        assert list(compile_trace(trace).iter_events()) == [
            TraceEvent(Primitive.COPY, "compact", src=0x100, dst=0x80,
                       size_bytes=64),
            TraceEvent(Primitive.SEARCH, "card-search", src=0x200,
                       size_bytes=128, found=True),
            TraceEvent(Primitive.SEARCH, "card-search", src=0x300,
                       size_bytes=256),
            TraceEvent(Primitive.SCAN_PUSH, "mark", src=0x400, refs=5,
                       pushes=2),
            TraceEvent(Primitive.BITMAP_COUNT, "adjust", src=0x500,
                       bits=77, bits_cached=9),
            TraceEvent(Primitive.COPY, "compact", src=1 << 45,
                       dst=(1 << 45) + 64, size_bytes=1 << 33),
        ]
        assert trace.phase_names == ("compact", "card-search", "mark",
                                     "adjust")

    def test_stats_counters_carried(self, mixed_run, tmp_path):
        loaded = npz_round_trip(mixed_run.traces, tmp_path)
        for trace, back in zip(mixed_run.traces, loaded):
            for name in STAT_FIELDS:
                assert getattr(back, name) == getattr(trace, name)

    def test_bits_cached_none_encoding(self):
        trace = GCTrace("major")
        trace.bitmap_count("compact", 0x1000, bits=64)
        trace.bitmap_count("compact", 0x2000, bits=64, bits_cached=0)
        trace.bitmap_count("compact", 0x3000, bits=64, bits_cached=17)
        column = trace.events["bits_cached"].tolist()
        assert column == [NO_BITS_CACHED, 0, 17]
        assert [e.bits_cached for e in trace.iter_events()] \
            == [None, 0, 17]

    def test_seal_is_idempotent(self):
        trace = GCTrace("minor")
        trace.copy("evacuate", 0x100, 0x200, 64)
        events = compile_trace(trace).events
        assert compile_trace(trace) is trace
        assert trace.events is events
        with pytest.raises(AttributeError):
            trace.copy("evacuate", 0x140, 0x240, 64)  # sealed

    def test_reading_the_columns_seals_through_compile_trace(
            self, monkeypatch):
        calls = []
        seal = columnar.compile_trace

        def counting(trace):
            calls.append(trace)
            return seal(trace)

        monkeypatch.setattr(columnar, "compile_trace", counting)
        trace = GCTrace("minor")
        trace.scan_push("evacuate", 0x100, 3, 1)
        assert trace.phase_names == ("evacuate",)
        assert len(trace.events) == 1
        assert calls == [trace]

    def test_residual_only_phases_are_not_interned(self):
        trace = GCTrace("major")
        trace.residual("setup", 10.0)
        trace.scan_push("mark", 0x100, 1, 0)
        trace.residual("summary", 5.0)
        assert trace.phase_names == ("mark",)
        assert list(trace.residuals) == ["setup", "summary"]


class TestPhaseStructure:
    def test_phase_runs_match_event_replayer_segmentation(
            self, mixed_run, tiny_spark_run):
        for trace in all_traces(mixed_run, tiny_spark_run):
            expected = segments(trace.iter_events())
            assert [(phase, len(events)) for phase, events
                    in TraceReplayer._phases(trace)] == expected
            assert [(name, hi - lo)
                    for name, lo, hi in trace.phase_runs()] == expected

    def test_phase_runs_cover_all_events(self, mixed_run):
        for trace in mixed_run.traces:
            runs = trace.phase_runs()
            assert runs[0][1] == 0
            assert runs[-1][2] == len(trace.events)
            for (_, _, stop), (_, start, _) in zip(runs, runs[1:]):
                assert stop == start

    def test_empty_trace_has_no_runs(self):
        trace = GCTrace("minor")
        assert trace.phase_runs() == []
        assert len(trace.events) == 0


class TestSummary:
    def test_summary_matches_object_form(self, mixed_run, tiny_spark_run):
        for trace in all_traces(mixed_run, tiny_spark_run):
            events = list(trace.iter_events())

            def of(primitive):
                return [e for e in events if e.primitive is primitive]

            summary = trace.summary()
            assert summary["events"] == len(events)
            assert summary["copy_bytes"] == sum(
                e.size_bytes for e in of(Primitive.COPY))
            assert summary["search_events"] == len(of(Primitive.SEARCH))
            assert summary["scan_refs"] == sum(
                e.refs for e in of(Primitive.SCAN_PUSH))
            assert summary["bitmap_bits"] == sum(
                e.bits for e in of(Primitive.BITMAP_COUNT))
            assert summary["residual_instructions"] == sum(
                work.instructions for work in trace.residuals.values())


class TestValidation:
    def test_unknown_kind_rejected(self):
        events = np.empty(0, dtype=EVENT_DTYPE)
        with pytest.raises(ValueError, match="unknown GC kind"):
            trace_from_columns("epsilon", 0, events, [])

    def test_wrong_dtype_rejected(self):
        events = np.zeros(4, dtype=np.int64)
        with pytest.raises(ConfigError, match="event layout"):
            trace_from_columns("minor", 0, events, [])

    def test_unknown_stats_rejected(self):
        events = np.empty(0, dtype=EVENT_DTYPE)
        with pytest.raises(ConfigError, match="unknown trace stats"):
            trace_from_columns("minor", 0, events, [],
                               objects_teleported=1)

    def test_too_many_phases_rejected(self):
        trace = GCTrace("major")
        for index in range(np.iinfo(np.uint16).max + 2):
            trace.scan_push(f"phase-{index}", obj=index, refs=1, pushes=0)
        with pytest.raises(ConfigError, match="too many distinct phases"):
            compile_trace(trace)


class TestResiduals:
    def test_residual_order_preserved(self, mixed_run, tmp_path):
        loaded = npz_round_trip(mixed_run.traces, tmp_path)
        for trace, back in zip(mixed_run.traces, loaded):
            assert list(back.residuals) == list(trace.residuals)
            for phase, work in trace.residuals.items():
                copy = back.residuals[phase]
                assert copy is not work
                assert copy.instructions == work.instructions
                assert copy.bytes_accessed == work.bytes_accessed

    def test_residuals_not_aliased_through_round_trip(self):
        residuals = {"setup": ResidualWork(100.0, 64)}
        trace = trace_from_columns("minor", 0,
                                   np.empty(0, dtype=EVENT_DTYPE), [],
                                   residuals)
        trace.residual("drain", 1.0)
        assert list(residuals) == ["setup"]
        assert isinstance(trace.residuals["setup"], ResidualWork)


def test_mixed_run_covers_every_primitive(mixed_run):
    """Guard the fixture the golden tests lean on: between them the
    mixed run's minor/major/sweep traces must exercise all four
    offloadable primitives."""
    kinds = [trace.kind for trace in mixed_run.traces]
    assert {"minor", "major", "sweep"} <= set(kinds)
    seen = {event.primitive
            for trace in mixed_run.traces for event in trace.iter_events()}
    assert seen == set(Primitive)


def test_count_matches_object_count(mixed_run):
    for trace in mixed_run.traces:
        events = list(trace.iter_events())
        for primitive in Primitive:
            assert trace.count(primitive) == sum(
                event.primitive is primitive for event in events)


class TestWorkloadRunForms:
    def test_compiled_only_run_counts_without_decompiling(
            self, mixed_run, monkeypatch):
        monkeypatch.setattr(GCTrace, "iter_events", None)
        run = WorkloadRun("mixed", mixed_run.heap_bytes,
                          traces=mixed_run.traces)
        assert run.gc_count == len(mixed_run.traces)
        assert all(a is b for a, b in zip(run.traces, mixed_run.traces))

    def test_captured_run_compiles_once(self, monkeypatch):
        calls = []
        seal = columnar.compile_trace

        def counting(trace):
            calls.append(trace)
            return seal(trace)

        monkeypatch.setattr(columnar, "compile_trace", counting)
        traces = [GCTrace("minor"), GCTrace("major")]
        traces[0].copy("evacuate", 0x100, 0x200, 64)
        run = WorkloadRun("captured", 0, traces=traces)
        assert calls == traces
        assert all(trace._rows is None for trace in run.traces)
        assert len(run.traces[0].events) == 1
        assert calls == traces  # reading sealed columns seals nothing

    def test_assigning_or_recording_traces_seals_them(self):
        run = WorkloadRun("mixed", 0)
        trace = GCTrace("minor")
        trace.copy("evacuate", 0x100, 0x200, 64)
        run.traces = [trace]
        assert trace._rows is None
        recorded = GCTrace("sweep")
        recorded.scan_push("mark", 0x100, 1, 0)
        run.record(recorded)
        assert recorded._rows is None
        assert run.gc_count == 2
