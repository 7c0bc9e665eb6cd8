"""Round-trip and replay coverage for G1 traces through the tooling.

G1 is the newest collector; this file pins down that the surrounding
tooling — serialization, the GC log, the replayer's phase handling —
treats its traces as first-class citizens.
"""

import numpy as np
import pytest

from repro.gcalgo.g1 import G1Collector
from repro.gcalgo.gclog import format_gc_log
from repro.gcalgo.trace_io import load_compiled, save_traces_npz
from repro.platform import TraceReplayer

from tests.conftest import make_heap, platform_for


@pytest.fixture(scope="module")
def g1_traces():
    heap = make_heap()
    g1 = G1Collector(heap, region_bytes=64 * 1024)
    previous = 0
    for index in range(2500):
        view = g1.allocate("Record")
        heap.set_field(view, 0, previous)
        previous = view.addr
        if index % 300 == 0:
            heap.roots.append(previous)
            previous = 0
        if index % 2 == 0:
            g1.allocate("typeArray", 320)
    g1.collect()
    g1.collect()
    return g1.traces


def test_g1_traces_serialize(tmp_path, g1_traces):
    path = tmp_path / "g1.gctrace.npz"
    save_traces_npz(g1_traces, path)
    restored, _ = load_compiled(path)
    assert [t.kind for t in restored] == ["g1"] * len(g1_traces)
    for original, back in zip(g1_traces, restored):
        assert back.phase_names == original.phase_names
        assert np.array_equal(back.events, original.events)


def test_g1_traces_log(g1_traces):
    log = format_gc_log(g1_traces)
    assert "G1 mixed" in log


def test_g1_phase_order_survives_replay(g1_traces):
    # Phases arrive mark -> liveness -> remset -> evacuate; the
    # replayer must preserve that grouping (barriers between phases).
    phases = [name for name, _, _ in g1_traces[0].phase_runs()]
    assert phases[0] == "mark"
    assert "evacuate" in phases
    platform, _, _ = platform_for("charon")
    result = TraceReplayer(platform).replay(g1_traces[0])
    assert result.gc_kind == "g1"
    assert result.wall_seconds > 0


def test_g1_charon_beats_host(g1_traces):
    host, _, _ = platform_for("cpu-ddr4")
    charon, _, _ = platform_for("charon")
    host_result = TraceReplayer(host).replay_all(g1_traces)
    charon_result = TraceReplayer(charon).replay_all(g1_traces)
    # The primitives the G1 pause spends its time in are the ones
    # Charon accelerates (Table 1's point).
    assert charon_result.wall_seconds < host_result.wall_seconds
