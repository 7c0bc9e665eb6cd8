"""Telemetry through the real pipeline: coverage, overhead, exports.

The acceptance bars of the observability layer:

* with tracing enabled, the ``gc`` spans on the sim clock cover at
  least 95% of the simulated GC time the replay reports (they cover
  100% by construction — every collection emits one span with ``dur``
  equal to its ``wall_seconds``);
* with tracing disabled, the fast-path replayer pays at most 5%
  overhead versus a replay with the instrumentation's tracer lookup
  stubbed out (the disabled path is one ``enabled`` check per trace).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.experiments import stage1_cache, store
from repro.obs.adapters import device_metrics, hmc_metrics, timing_metrics
from repro.obs.export import (METRICS_SCHEMA_VERSION, metrics_csv,
                              metrics_snapshot, write_chrome_trace,
                              write_metrics_json)
from repro.obs.metrics import (MetricsRegistry, global_metrics,
                               reset_global_metrics)
from repro.obs.tracer import Tracer, get_tracer
from repro.platform import fast_replay
from repro.platform.fast_replay import FastTraceReplayer
from repro.platform.replay import TraceReplayer
from tests.conftest import platform_for


@pytest.fixture
def tracing():
    """Enable the global tracer for one test, restoring it after."""
    tracer = get_tracer()
    tracer.clear()
    tracer.enable()
    yield tracer
    tracer.disable()
    tracer.clear()


def _sim_gc_coverage(tracer, result):
    covered = tracer.span_seconds("gc")
    return covered / result.wall_seconds if result.wall_seconds else 1.0


@pytest.mark.parametrize("platform_name", ["cpu-ddr4", "charon"])
def test_event_replay_spans_cover_sim_time(tracing, mixed_run,
                                           platform_name):
    platform, _, _ = platform_for(platform_name)
    result = TraceReplayer(platform).replay_all(mixed_run.traces)
    assert _sim_gc_coverage(tracing, result) >= 0.95
    # Phase spans nest inside the gc spans' envelope.
    assert tracing.span_seconds("phase") <= result.wall_seconds * 1.001


def test_fast_replay_spans_cover_sim_time(tracing, tiny_spark_run):
    platform, _, _ = platform_for("cpu-ddr4")
    replayer = FastTraceReplayer(platform, threads=1)
    result = replayer.replay_all(tiny_spark_run.traces)
    assert _sim_gc_coverage(tracing, result) >= 0.95


def _phase_spans(tracer, replayer, traces):
    """``(name, ts, dur, events)`` of the phase spans one replay of
    ``traces`` records."""
    tracer.clear()
    for trace in traces:
        replayer.replay(trace)
    return [(e["name"], e["ts"], e["dur"], e["args"].get("events"))
            for e in tracer.chrome_events()
            if e.get("cat") == "phase" and e["name"] != "llc-flush"]


@pytest.mark.parametrize("platform_name,threads", [
    ("cpu-ddr4", 1), ("cpu-ddr4", 8), ("cpu-hmc", 8), ("charon", 8),
    ("charon-distributed", 8), ("ideal", 8)])
def test_fast_phase_spans_match_event_spans(tracing, mixed_run,
                                            concurrent_traces_session,
                                            platform_name, threads):
    """The fast path's phase spans — read from the kernel's per-step
    span array — are the event path's: same names in the same order,
    starts and durations within 1e-9 relative, same event counts
    (residual-only phases last their share and count no events)."""
    from tests.test_fast_replay_equivalence import trap_trace

    major = [t for t in mixed_run.traces if t.kind == "major"][0]
    traces = list(mixed_run.traces) + list(concurrent_traces_session) \
        + [trap_trace(major, concurrent_traces_session[1])]
    fast = _phase_spans(tracing, FastTraceReplayer(
        platform_for(platform_name)[0], threads=threads), traces)
    slow = _phase_spans(tracing, TraceReplayer(
        platform_for(platform_name)[0], threads=threads), traces)
    assert [(name, events) for name, _, _, events in fast] == \
        [(name, events) for name, _, _, events in slow]
    assert any(events == 0 for *_, events in slow)
    for (_, ts, dur, _), (_, want_ts, want_dur, _) in zip(fast, slow):
        assert ts == pytest.approx(want_ts, rel=1e-9, abs=1e-12)
        assert dur == pytest.approx(want_dur, rel=1e-9, abs=1e-12)


def test_collectors_emit_host_spans(tracing):
    from tests.conftest import make_mixed_run

    make_mixed_run("obs-span-check")
    events = [e for e in tracing.chrome_events()
              if e.get("cat") == "collector"]
    names = {e["name"] for e in events}
    assert "collect" in names
    # Minor, major and sweep steps all appear.
    assert {"drain", "mark", "sweep", "compact"} <= names
    assert all(e["pid"] == 1 for e in events)  # host clock


def test_replay_chrome_trace_is_loadable(tracing, mixed_run, tmp_path):
    platform, _, _ = platform_for("ideal")
    TraceReplayer(platform).replay_all(mixed_run.traces)
    path = write_chrome_trace(tmp_path / "trace.json", tracing)
    events = json.loads(path.read_text())
    assert isinstance(events, list)
    complete = [e for e in events if e["ph"] == "X"]
    assert complete, "no complete spans recorded"
    assert all("pid" in e and "tid" in e and "ts" in e and "dur" in e
               for e in complete)
    kinds = {e["name"] for e in complete if e["cat"] == "gc"}
    assert any(name.endswith(" gc") for name in kinds)


def test_disabled_tracing_records_nothing(mixed_run):
    tracer = get_tracer()
    tracer.clear()
    assert not tracer.enabled
    platform, _, _ = platform_for("cpu-ddr4")
    TraceReplayer(platform).replay_all(mixed_run.traces)
    assert len(tracer) == 0


def test_disabled_tracing_overhead_under_5_percent(
        tiny_spark_run, monkeypatch):
    """Regression bar: tracing off must stay out of the fast path.

    The baseline stubs the module-level tracer lookup with a
    pre-disabled dummy — the cheapest the instrumented code can
    possibly be — and the real disabled path must stay within 5% of
    it (min-of-N timing, retried to shrug off scheduler noise).
    """
    def measure(repeats=7):
        best = float("inf")
        for _ in range(repeats):
            platform, _, _ = platform_for("cpu-ddr4")
            replayer = FastTraceReplayer(platform, threads=1)
            start = time.perf_counter()
            replayer.replay_all(tiny_spark_run.traces)
            best = min(best, time.perf_counter() - start)
        return best

    stub = Tracer()  # disabled
    for attempt in range(3):
        monkeypatch.setattr(fast_replay, "get_tracer", lambda: stub)
        baseline = measure()
        monkeypatch.undo()
        disabled = measure()
        if disabled <= baseline * 1.05:
            break
    assert disabled <= baseline * 1.05, (
        f"tracing-disabled fast replay {disabled * 1e3:.3f} ms vs "
        f"baseline {baseline * 1e3:.3f} ms "
        f"(+{(disabled / baseline - 1) * 100:.1f}%)")


def test_adapters_fill_one_registry(mixed_run):
    reset_global_metrics()
    platform, _, _ = platform_for("charon")
    result = TraceReplayer(platform).replay_all(mixed_run.traces)
    registry = global_metrics()
    timing_metrics(registry, result, workload="mixed")
    device_metrics(registry, platform.device)
    hmc_metrics(registry, platform.hmc)
    for tally in (store.TRACES.stats, stage1_cache.STATS):
        tally.snapshot()  # the store and memo tallies are rows of it too
    names = {row["metric"] for row in registry.samples()}
    assert "replay.kernel_events" in names
    assert "replay.wall_seconds" in names
    assert "charon.offloads" in names
    assert "charon.unit_commands" in names
    assert "hmc.tsv_bytes" in names
    assert "trace_cache.hits" in names
    assert "stage1_cache.hits" in names
    wall = registry.counter("replay.wall_seconds", platform="charon",
                            workload="mixed")
    assert wall.value == pytest.approx(result.wall_seconds)


def test_metric_exports_round_trip(tmp_path):
    registry = MetricsRegistry()
    registry.counter("a", x="1").add(2)
    registry.histogram("h", [1.0, 2.0]).record(1.5)
    snapshot = metrics_snapshot(registry)
    assert snapshot["schema"] == METRICS_SCHEMA_VERSION
    assert len(snapshot["metrics"]) == 2
    path = write_metrics_json(tmp_path / "m.json", registry)
    assert json.loads(path.read_text()) == json.loads(
        json.dumps(snapshot))
    csv_text = metrics_csv(registry)
    header, *rows = csv_text.strip().splitlines()
    assert header.startswith("metric,kind,labels,value")
    assert any("a,counter,x=1,2" in row for row in rows)
    assert len(rows) == 2


def test_stats_format_json_is_the_export_document(capsys):
    """``repro stats --format json`` prints a metric snapshot in the
    export schema."""
    from repro.cli import main

    assert main(["stats", "graphchi-als", "--platform", "ideal",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == METRICS_SCHEMA_VERSION
    rows = {row["metric"]: row for row in payload["metrics"]}
    assert any(name.startswith("replay.") for name in rows)
    for row in rows.values():
        assert {"metric", "kind", "labels"} <= set(row)
