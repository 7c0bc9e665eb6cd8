"""The span tracer: clock domains, Chrome export, env exporters."""

from __future__ import annotations

import json
import threading

import pytest

from repro.config import OBS_OUT_ENV
from repro.obs.tracer import (CLOCK_HOST, CLOCK_SIM, Tracer, get_tracer,
                              install_env_exporters)


@pytest.fixture
def tracer():
    return Tracer(enabled=True)


def test_disabled_tracer_records_nothing():
    off = Tracer()
    with off.span("work", cat="test"):
        pass
    off.add_span("gc", 0.0, 1.0)
    off.instant("marker")
    assert len(off) == 0
    # The disabled span is a shared no-op object, not a new allocation.
    assert off.span("a") is off.span("b")


def test_sim_spans_carry_explicit_timestamps(tracer):
    tracer.add_span("minor gc", start_s=1.5, dur_s=0.25, cat="gc",
                    args={"platform": "ideal"})
    [event] = [e for e in tracer.chrome_events() if e["ph"] == "X"]
    assert event["ts"] == pytest.approx(1.5e6)
    assert event["dur"] == pytest.approx(0.25e6)
    assert event["pid"] == 0  # the sim-clock "process"
    assert event["args"] == {"platform": "ideal"}


def test_host_spans_measure_wall_time(tracer):
    with tracer.span("step", cat="collector", gc="minor"):
        sum(range(1000))
    [event] = [e for e in tracer.chrome_events() if e["ph"] == "X"]
    assert event["pid"] == 1  # the host-clock "process"
    assert event["dur"] >= 0.0
    assert event["args"] == {"gc": "minor"}


def test_chrome_events_lead_with_process_metadata(tracer):
    tracer.add_span("gc", 0.0, 1.0)
    events = tracer.chrome_events()
    meta = [e for e in events if e["ph"] == "M"]
    names = {e["pid"]: e["args"]["name"] for e in meta}
    assert names == {0: "sim clock", 1: "host clock"}
    assert all("pid" in e and "tid" in e for e in events)


def test_write_chrome_is_a_json_array(tmp_path, tracer):
    tracer.add_span("gc", 0.0, 2.0, cat="gc")
    path = tracer.write_chrome(tmp_path / "deep" / "trace.json")
    events = json.loads(path.read_text())
    assert isinstance(events, list)
    assert {"X", "M"} == {e["ph"] for e in events}


def test_span_seconds_sums_one_category_and_clock(tracer):
    tracer.add_span("a", 0.0, 1.0, cat="gc")
    tracer.add_span("b", 1.0, 0.5, cat="gc")
    tracer.add_span("c", 0.0, 9.0, cat="phase")
    with tracer.span("host-side", cat="gc"):
        pass
    assert tracer.span_seconds("gc", clock=CLOCK_SIM) == \
        pytest.approx(1.5)
    assert tracer.span_seconds("phase", clock=CLOCK_SIM) == \
        pytest.approx(9.0)
    assert tracer.span_seconds("gc", clock=CLOCK_HOST) >= 0.0


def test_clear_and_enable_disable(tracer):
    tracer.add_span("a", 0.0, 1.0)
    tracer.clear()
    assert len(tracer) == 0
    tracer.disable()
    tracer.add_span("b", 0.0, 1.0)
    assert len(tracer) == 0


def test_drain_moves_events_to_another_tracer(tracer):
    tracer.add_span("gc", 0.0, 1.0, tid=3)
    with tracer.span("replay"):
        pass
    events = tracer.drain(host_tid=4242)
    assert len(tracer) == 0
    sim, host = events
    assert (sim["pid"], sim["tid"]) == (0, 3)  # sim lanes kept
    assert (host["pid"], host["tid"]) == (1, 4242)
    parent = Tracer(enabled=True)
    parent.add_span("earlier", 0.0, 1.0)
    parent.merge(events)
    assert [event["name"] for event in parent.chrome_events()
            if event["ph"] == "X"] == ["earlier", "gc", "replay"]


def test_instant_marker(tracer):
    tracer.instant("cache-hit", args={"key": "abc"})
    [event] = [e for e in tracer.chrome_events() if e["ph"] == "i"]
    assert event["name"] == "cache-hit"


def test_install_env_exporters_arms_the_global_tracer(tmp_path):
    tracer = get_tracer()
    was_enabled = tracer.enabled
    try:
        installed = install_env_exporters({OBS_OUT_ENV: str(tmp_path)})
        assert installed == {OBS_OUT_ENV: str(tmp_path)}
        assert tracer.enabled
        # Idempotent: the same directory installs only once.
        assert install_env_exporters({OBS_OUT_ENV: str(tmp_path)}) == {}
        assert install_env_exporters({}) == {}
    finally:
        tracer.enabled = was_enabled


def test_retired_knobs_arm_nothing(tmp_path):
    """Neither the old live-endpoint port nor the old journal directory
    starts a thread or turns the tracer on."""
    tracer = get_tracer()
    was_enabled = tracer.enabled
    threads = threading.active_count()
    try:
        tracer.enabled = False
        assert install_env_exporters({
            "REPRO_METRICS_PORT": "0",
            "REPRO_SHARD_JOURNAL": str(tmp_path / "journal")}) == {}
        assert not tracer.enabled
        assert threading.active_count() == threads
        assert not (tmp_path / "journal").exists()
    finally:
        tracer.enabled = was_enabled


def test_global_tracer_is_a_singleton():
    assert get_tracer() is get_tracer()
