"""Golden-trace and round-trip coverage for concurrent-mark traces.

Mirrors ``test_g1_trace_io.py`` for the SATB collector, plus a pinned
golden file: ``tests/data/concurrent_golden.gctrace.npz`` holds the
trace of one small seeded cycle, committed to the repo.  Regenerating
the same cycle must reproduce the golden file's event stream, summary
and GC-log line exactly — any change to the collector's emitted trace
shape (phase names, event order, residual totals) fails here first and
has to be a conscious re-bless of the golden file.

Re-bless (only for intentional trace-shape changes)::

    PYTHONPATH=src python -c "
    from tests.test_concurrent_trace_io import bless_golden
    bless_golden()"
"""

import zipfile
from pathlib import Path

import pytest

from repro.gcalgo.concurrent_mark import ConcurrentMarkGC
from repro.gcalgo.gclog import format_gc_line, format_gc_log
from repro.gcalgo.trace_io import load_compiled, save_traces_npz
from repro.platform import TraceReplayer

from tests.conftest import make_heap, platform_for, trace_contents

GOLDEN_PATH = Path(__file__).parent / "data" / \
    "concurrent_golden.gctrace.npz"


def make_golden_cycle():
    """One small deterministic concurrent cycle: a record chain with
    mid-cycle mutation (barrier traffic), two bounded mark pauses,
    and a final collect that sweeps a retired chain."""
    heap = make_heap()
    gc = ConcurrentMarkGC(heap, region_bytes=64 * 1024)
    heap.roots.extend([0] * 8)
    previous = 0
    for index in range(300):
        view = gc.allocate("Record")
        heap.set_field(view, 0, previous)
        previous = view.addr
        if index % 40 == 0:
            heap.roots[(index // 40) % 8] = previous
            previous = 0
        if index % 3 == 0:
            gc.allocate("typeArray", 128)
        if index == 100:
            gc.start_cycle()
        if index in (160, 220):
            root = heap.roots[2]
            if root:
                heap.set_field(heap.object_at(root), 0, 0)
            gc.mark_step(budget=16)
    heap.roots[1] = 0
    gc.collect()
    assert len(gc.traces) == 1
    return gc.traces[0]


def bless_golden() -> Path:
    """Regenerate the committed golden file (intentional changes only)."""
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    save_traces_npz([make_golden_cycle()], GOLDEN_PATH)
    return GOLDEN_PATH


@pytest.fixture(scope="module")
def fresh_trace():
    return make_golden_cycle()


@pytest.fixture(scope="module")
def golden_trace():
    assert GOLDEN_PATH.exists(), \
        "golden file missing; run bless_golden() and commit it"
    traces, _ = load_compiled(GOLDEN_PATH)
    assert len(traces) == 1
    return traces[0]


class TestGoldenStability:
    def test_event_stream_matches_golden(self, fresh_trace,
                                         golden_trace):
        assert trace_contents([fresh_trace]) \
            == trace_contents([golden_trace])

    def test_summary_matches_golden(self, fresh_trace, golden_trace):
        assert fresh_trace.summary() == golden_trace.summary()

    def test_gclog_matches_golden(self, fresh_trace, golden_trace):
        assert format_gc_line(fresh_trace) == \
            format_gc_line(golden_trace)
        line = format_gc_line(fresh_trace)
        assert "GC cycle (concurrent mark)" in line
        assert "mark pauses" in line

    def test_event_bytes_match_golden(self, fresh_trace, tmp_path):
        """The event member's bytes pin the column layout: recording
        order, dtype and phase interning.  (Only that member: the
        golden manifest predates the per-trace event count.)"""
        path = tmp_path / "fresh.gctrace.npz"
        save_traces_npz([fresh_trace], path)
        member = "events_00000.npy"
        with zipfile.ZipFile(path) as fresh, \
                zipfile.ZipFile(GOLDEN_PATH) as golden:
            assert fresh.read(member) == golden.read(member)

    def test_generation_is_deterministic(self, fresh_trace):
        assert trace_contents([make_golden_cycle()]) == \
            trace_contents([fresh_trace])


class TestCodecRoundTrips:
    def test_npz_round_trip(self, tmp_path, golden_trace):
        path = tmp_path / "concurrent.gctrace.npz"
        save_traces_npz([golden_trace], path)
        back, _ = load_compiled(path)
        assert trace_contents(back) == trace_contents([golden_trace])


class TestTooling:
    def test_phase_structure(self, golden_trace):
        phases = [name for name, _, _ in golden_trace.phase_runs()]
        # Interleaved pauses precede the final stop-the-world drain.
        assert phases[0].startswith(("barrier-", "concurrent-mark-"))
        assert "final-mark" in phases
        assert "liveness" in phases
        assert phases.index("liveness") > phases.index("final-mark")

    def test_log_formats(self, golden_trace):
        log = format_gc_log([golden_trace])
        assert "concurrent" in log

    def test_replay_and_charon_speedup(self, golden_trace):
        host, _, _ = platform_for("cpu-ddr4")
        charon, _, _ = platform_for("charon")
        host_result = TraceReplayer(host).replay(golden_trace)
        charon_result = TraceReplayer(charon).replay(golden_trace)
        assert host_result.gc_kind == "concurrent"
        # Marking is Scan&Push-dominated — squarely Charon's target.
        assert charon_result.wall_seconds < host_result.wall_seconds
