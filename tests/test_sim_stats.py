"""Tests for the statistics primitives of :mod:`repro.obs.metrics`
that the simulation components register against."""

import pytest

from repro.obs.metrics import Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_add(self):
        counter = Counter("c")
        counter.add()
        counter.add(2.5)
        assert counter.value == 3.5

    def test_reset(self):
        counter = Counter("c")
        counter.add(5)
        counter.reset()
        assert counter.value == 0.0


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram("h", [10.0, 100.0])
        hist.record(5.0)
        hist.record(50.0)
        hist.record(500.0)
        assert hist.counts == [1, 1, 1]
        assert hist.total == 3

    def test_boundary_goes_low(self):
        hist = Histogram("h", [10.0])
        hist.record(10.0)
        assert hist.counts == [1, 0]

    def test_mean(self):
        hist = Histogram("h", [10.0])
        hist.record(4.0)
        hist.record(8.0)
        assert hist.mean == pytest.approx(6.0)

    def test_mean_empty(self):
        assert Histogram("h", [1.0]).mean == 0.0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", [10.0, 1.0])

    def test_weighted_record(self):
        hist = Histogram("h", [10.0])
        hist.record(5.0, count=3)
        assert hist.total == 3
        assert hist.counts[0] == 3

    def test_reset(self):
        hist = Histogram("h", [10.0])
        hist.record(5.0)
        hist.reset()
        assert hist.total == 0
        assert hist.sum == 0.0


class TestStatsRegistry:
    def test_counter_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_scope_prefixes(self):
        reg = MetricsRegistry()
        child = reg.scope("cube0")
        child.counter("hits").add(3)
        assert reg.as_dict() == {"cube0.hits": 3.0}

    def test_nested_scopes(self):
        reg = MetricsRegistry()
        leaf = reg.scope("a").scope("b")
        leaf.counter("x").add(1)
        assert "a.b.x" in reg.as_dict()

    def test_counters_iteration_ordered(self):
        reg = MetricsRegistry()
        reg.counter("z").add(1)
        reg.counter("a").add(2)
        assert [name for name, _ in reg.counters()] == ["z", "a"]

    def test_histogram_registry(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", [1.0, 2.0])
        hist.record(1.5)
        assert reg.histogram("lat", [1.0, 2.0]).total == 1

    def test_reset_all(self):
        reg = MetricsRegistry()
        reg.counter("a").add(5)
        reg.histogram("h", [1.0]).record(0.5)
        reg.reset()
        assert reg.as_dict()["a"] == 0.0
