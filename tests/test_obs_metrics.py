"""The unified metrics registry: labels, scopes, percentiles."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, strategies as st

from repro.obs.metrics import (Histogram, MetricsRegistry,
                               global_metrics, reset_global_metrics)


def test_counter_gauge_basics():
    registry = MetricsRegistry()
    counter = registry.counter("events", "how many")
    counter.add()
    counter.add(4)
    assert counter.value == 5
    gauge = registry.gauge("depth")
    gauge.set(7)
    gauge.set(3)
    assert gauge.value == 3.0
    assert registry.counter("events") is counter
    assert registry.gauge("depth") is gauge


def test_labels_create_child_metrics():
    registry = MetricsRegistry()
    a = registry.counter("wall", platform="charon", workload="spark-km")
    b = registry.counter("wall", platform="ideal", workload="spark-km")
    assert a is not b
    # Label order does not matter: same set -> same child.
    again = registry.counter("wall", workload="spark-km",
                             platform="charon")
    assert again is a
    a.add(1.5)
    keys = dict(registry.counters())
    assert keys["wall{platform=charon,workload=spark-km}"] == 1.5
    assert a.labels == {"platform": "charon", "workload": "spark-km"}


def test_scope_shares_storage_with_prefix():
    registry = MetricsRegistry()
    scope = registry.scope("charon")
    scope.counter("offloads").add(2)
    assert dict(registry.counters()) == {"charon.offloads": 2.0}
    nested = scope.scope("tlb")
    nested.gauge("lookups").set(9)
    assert dict(registry.gauges()) == {"charon.tlb.lookups": 9.0}


def test_scope_shares_the_registration_lock():
    registry = MetricsRegistry()
    assert registry.scope("gc")._lock is registry._lock


def test_concurrent_registration_and_samples():
    """Registering on one thread while another iterates the samples
    never raises (the lock guards both)."""
    registry = MetricsRegistry()
    stop = threading.Event()
    errors = []

    def register_loop():
        for index in range(5000):
            if stop.is_set():
                break
            registry.counter(f"c{index % 50}", shard=index).add(1)

    def sample_loop():
        try:
            while not stop.is_set():
                registry.samples()
        except Exception as exc:  # pragma: no cover - the failure
            errors.append(exc)

    writer = threading.Thread(target=register_loop, daemon=True)
    reader = threading.Thread(target=sample_loop, daemon=True)
    writer.start()
    reader.start()
    writer.join(30)
    stop.set()
    reader.join(30)
    assert not writer.is_alive() and not reader.is_alive()
    assert not errors


def test_samples_rows():
    registry = MetricsRegistry()
    registry.counter("a", "desc").add(2)
    registry.gauge("b", x="1").set(4)
    hist = registry.histogram("lat", [1.0, 2.0, 4.0])
    hist.record(0.5)
    hist.record(3.0)
    rows = {(row["metric"], row["kind"]): row
            for row in registry.samples()}
    assert rows[("a", "counter")]["value"] == 2.0
    assert rows[("b", "gauge")]["labels"] == {"x": "1"}
    hrow = rows[("lat", "histogram")]
    assert hrow["count"] == 2
    assert hrow["sum"] == pytest.approx(3.5)
    assert hrow["p50"] in (1.0, 2.0, 4.0)


def test_samples_rows_are_detached():
    """A sample row is a copy: editing it, labels included, leaves the
    registry as it was."""
    registry = MetricsRegistry()
    registry.counter("a", shard="1").add(2)
    registry.histogram("lat", [1.0, 2.0], shard="1").record(0.5)
    for row in registry.samples():
        row["labels"]["shard"] = "edited"
        row["metric"] = "edited"
        row["value" if row["kind"] == "counter" else "count"] = -1
    rows = {(row["metric"], row["kind"]): row
            for row in registry.samples()}
    assert rows[("a", "counter")]["labels"] == {"shard": "1"}
    assert rows[("a", "counter")]["value"] == 2.0
    assert rows[("lat", "histogram")]["labels"] == {"shard": "1"}
    assert rows[("lat", "histogram")]["count"] == 1


def test_reset_zeroes_everything():
    registry = MetricsRegistry()
    registry.counter("a").add(3)
    registry.gauge("g").set(2)
    hist = registry.histogram("h", [1.0])
    hist.record(0.5)
    registry.reset()
    assert registry.counter("a").value == 0.0
    assert registry.gauge("g").value == 0.0
    assert hist.total == 0 and hist.sum == 0.0


def test_global_registry_reset():
    global_metrics().counter("tmp").add(1)
    reset_global_metrics()
    assert list(global_metrics().counters()) == []


def test_histogram_bounds_must_be_sorted():
    with pytest.raises(ValueError):
        Histogram("h", [2.0, 1.0])


def test_percentile_validates_and_handles_empty():
    hist = Histogram("h", [1.0, 2.0])
    # No samples -> the documented None sentinel (distinguishable from
    # a genuine 0.0 percentile), at every p including the edges.
    assert hist.percentile(50) is None
    assert hist.percentile(0) is None
    assert hist.percentile(100) is None
    with pytest.raises(ValueError):
        hist.percentile(-1)
    with pytest.raises(ValueError):
        hist.percentile(101)


def test_percentile_single_sample():
    hist = Histogram("h", [1.0, 2.0, 4.0])
    hist.record(1.5)
    # One sample: every percentile answers that sample's bucket bound.
    for p in (0, 1, 50, 99, 100):
        assert hist.percentile(p) == 2.0


def test_empty_histogram_samples_row_carries_none_percentiles():
    registry = MetricsRegistry()
    registry.histogram("empty_h", [1.0, 2.0])
    row = [r for r in registry.samples()
           if r["metric"] == "empty_h"][0]
    assert row["count"] == 0
    assert row["p50"] is None and row["p90"] is None \
        and row["p99"] is None


def test_percentile_conservative_bucket_answer():
    hist = Histogram("h", [1.0, 2.0, 4.0, 8.0])
    for value in (0.5, 0.7, 1.5, 3.0, 3.5, 6.0, 100.0):
        hist.record(value)
    # 7 observations; p50 needs 3.5 -> cumulative hits in the
    # (2, 4] bucket.
    assert hist.percentile(50) == 4.0
    # The overflow observation clamps to the last bound.
    assert hist.percentile(100) == 8.0


_BOUNDS = st.lists(
    st.floats(min_value=0.001, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=8, unique=True).map(sorted)
_VALUES = st.lists(
    st.floats(min_value=0.0, max_value=2e6, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=50)


@given(bounds=_BOUNDS, values=_VALUES,
       p1=st.floats(min_value=0, max_value=100),
       p2=st.floats(min_value=0, max_value=100))
def test_percentile_monotone_in_p(bounds, values, p1, p2):
    hist = Histogram("h", list(bounds))
    for value in values:
        hist.record(value)
    lo, hi = sorted((p1, p2))
    assert hist.percentile(lo) <= hist.percentile(hi)


@given(bounds=_BOUNDS, values=_VALUES,
       p=st.floats(min_value=0, max_value=100))
def test_percentile_answers_a_bucket_bound(bounds, values, p):
    hist = Histogram("h", list(bounds))
    for value in values:
        hist.record(value)
    assert hist.percentile(p) in bounds


def test_drain_hands_rows_to_merge_once():
    """A pool worker's drained rows fold into the parent: counters add,
    gauges take the last merged value, and the worker starts empty."""
    worker = MetricsRegistry()
    worker.counter("replay.wall", "pause", platform="charon").add(2.5)
    worker.gauge("depth").set(7)
    worker.histogram("h", [1.0]).record(0.5)
    delta = worker.drain()
    assert worker.samples() == []
    assert worker.drain() == []
    parent = MetricsRegistry()
    parent.counter("replay.wall", platform="charon").add(1.0)
    parent.gauge("depth").set(3)
    parent.merge(delta)
    parent.merge([("gauge", "depth", "", {}, 9.0)])
    assert parent.counter("replay.wall", platform="charon").value == 3.5
    assert parent.gauge("depth").value == 9.0
    assert {row["metric"] for row in parent.samples()} \
        == {"replay.wall", "depth"}
