"""The unified metrics registry: labeled counters, gauges, histograms.

One registry the whole pipeline records into, once per fact:

* metrics may carry **labels** (``registry.counter("replay_wall",
  platform="charon", workload="spark-bs")``), each label combination
  being its own child metric;
* **gauges** hold last-written values (device and HMC state read at
  the end of a replay);
* **histograms** answer :meth:`Histogram.percentile` queries;
* hierarchical ``scope()`` views keep the zsim-style dotted namespaces
  the simulation components already use;
* :meth:`MetricsRegistry.drain` / :meth:`MetricsRegistry.merge` carry
  a pool worker's rows back into the parent's registry.

Snapshots (:meth:`MetricsRegistry.samples`) feed the JSON/CSV
exporters in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((key, str(value))
                        for key, value in labels.items()))


def _render(name: str, labels: LabelItems) -> str:
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing scalar statistic."""

    kind = "counter"

    def __init__(self, name: str, description: str = "",
                 labels: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.description = description
        self.labels: Dict[str, str] = {
            key: value for key, value in _label_key(labels or {})}
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value:g})"


class Gauge:
    """A last-value-wins scalar."""

    kind = "gauge"

    def __init__(self, name: str, description: str = "",
                 labels: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.description = description
        self.labels: Dict[str, str] = {
            key: value for key, value in _label_key(labels or {})}
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value:g})"


class Histogram:
    """A fixed-bucket histogram for latency/size distributions."""

    kind = "histogram"

    def __init__(self, name: str, bucket_bounds: List[float],
                 description: str = "",
                 labels: Optional[Dict[str, object]] = None) -> None:
        if sorted(bucket_bounds) != list(bucket_bounds):
            raise ValueError("bucket bounds must be sorted ascending")
        self.name = name
        self.description = description
        self.labels: Dict[str, str] = {
            key: value for key, value in _label_key(labels or {})}
        self.bounds = list(bucket_bounds)
        self.counts = [0] * (len(bucket_bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def record(self, value: float, count: int = 1) -> None:
        index = 0
        while index < len(self.bounds) and value > self.bounds[index]:
            index += 1
        self.counts[index] += count
        self.total += count
        self.sum += value * count

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def percentile(self, p: float) -> Optional[float]:
        """Upper bucket bound covering the ``p``-th percentile.

        ``p`` is in ``[0, 100]``.  The answer is conservative: the
        smallest bucket bound below which at least ``p`` percent of the
        recorded values fall.  Values recorded beyond the last bound
        (the overflow bucket) clamp to the last bound — a fixed-bucket
        histogram cannot resolve them further.  An **empty histogram
        answers ``None``** — the sentinel distinguishes "no samples"
        from a genuine 0.0 percentile (every exporter renders it as
        JSON null / an empty CSV cell).  A single-sample histogram
        answers that sample's bucket bound for every ``p``.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.total == 0:
            return None
        need = p / 100.0 * self.total
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= need and cumulative > 0:
                return self.bounds[min(index, len(self.bounds) - 1)]
        return self.bounds[-1]

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0


class MetricsRegistry:
    """A hierarchical, label-aware namespace of metrics.

    Metrics are keyed by full dotted name *and* label set; asking for
    the same (name, labels) pair always returns the same object.
    ``scope(name)`` returns a child view sharing storage but prefixing
    names — the zsim idiom the simulation components use.
    """

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self._counters: "OrderedDict[str, Counter]" = OrderedDict()
        self._gauges: "OrderedDict[str, Gauge]" = OrderedDict()
        self._histograms: "OrderedDict[str, Histogram]" = OrderedDict()
        # Guards registration and sample iteration, so a reader on
        # another thread never sees a registry mid-insert.  Counter.add
        # / Gauge.set on already-registered metrics stay lock-free — a
        # sample is point-in-time consistent per metric — so the
        # simulation hot path pays nothing.
        self._lock = threading.RLock()

    # -- registration ------------------------------------------------------

    def counter(self, name: str, description: str = "",
                **labels: object) -> Counter:
        """Get or create the counter ``name`` (with optional labels)."""
        full = self._full(name)
        key = _render(full, _label_key(labels))
        with self._lock:
            if key not in self._counters:
                self._counters[key] = Counter(full, description, labels)
            return self._counters[key]

    def gauge(self, name: str, description: str = "",
              **labels: object) -> Gauge:
        """Get or create the gauge ``name`` (with optional labels)."""
        full = self._full(name)
        key = _render(full, _label_key(labels))
        with self._lock:
            if key not in self._gauges:
                self._gauges[key] = Gauge(full, description, labels)
            return self._gauges[key]

    def histogram(self, name: str, bounds: List[float],
                  description: str = "",
                  **labels: object) -> Histogram:
        """Get or create the histogram ``name`` (with optional labels)."""
        full = self._full(name)
        key = _render(full, _label_key(labels))
        with self._lock:
            if key not in self._histograms:
                self._histograms[key] = Histogram(full, bounds,
                                                  description, labels)
            return self._histograms[key]

    def add(self, name: str, amount: float = 1.0, description: str = "",
            **labels: object) -> None:
        """Add to the counter ``name`` under the registry lock (for
        tallies bumped from several threads at once)."""
        with self._lock:
            self.counter(name, description, **labels).add(amount)

    def scope(self, name: str) -> "MetricsRegistry":
        """A child view sharing storage but prefixing names with ``name``."""
        child = MetricsRegistry(prefix=self._full(name))
        child._counters = self._counters
        child._gauges = self._gauges
        child._histograms = self._histograms
        child._lock = self._lock
        return child

    def _full(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    # -- introspection -----------------------------------------------------

    def counters(self) -> Iterator[Tuple[str, float]]:
        for key, counter in self._counters.items():
            yield key, counter.value

    def gauges(self) -> Iterator[Tuple[str, float]]:
        for key, gauge in self._gauges.items():
            yield key, gauge.value

    def histograms(self) -> Iterator[Tuple[str, Histogram]]:
        yield from self._histograms.items()

    def as_dict(self) -> Dict[str, float]:
        return {key: counter.value
                for key, counter in self._counters.items()}

    def samples(self) -> List[Dict[str, object]]:
        """Flat sample rows for exporters and reports.

        Counters and gauges yield one row each; histograms yield their
        count/sum/mean plus p50/p90/p99 summaries.
        """
        rows: List[Dict[str, object]] = []
        with self._lock:
            scalars = list(self._counters.values()) \
                + list(self._gauges.values())
            histograms = list(self._histograms.values())
        for metric in scalars:
            rows.append({
                "metric": metric.name,
                "kind": metric.kind,
                "labels": dict(metric.labels),
                "value": metric.value,
            })
        for histogram in histograms:
            rows.append({
                "metric": histogram.name,
                "kind": histogram.kind,
                "labels": dict(histogram.labels),
                "count": histogram.total,
                "sum": histogram.sum,
                "mean": histogram.mean,
                "p50": histogram.percentile(50),
                "p90": histogram.percentile(90),
                "p99": histogram.percentile(99),
            })
        return rows

    def drain(self) -> List[tuple]:
        """Take every counter and gauge row as ``(kind, name,
        description, labels, value)`` and empty the registry (a pool
        worker's delta; no worker records a histogram, so they drop)."""
        with self._lock:
            rows = [(metric.kind, metric.name, metric.description,
                     metric.labels, metric.value)
                    for metric in (*self._counters.values(),
                                   *self._gauges.values())]
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
        return rows

    def merge(self, rows: List[tuple]) -> None:
        """Fold rows from :meth:`drain` into this root registry:
        counters add, gauges take the row's value."""
        for kind, name, description, labels, value in rows:
            if kind == "counter":
                self.add(name, value, description, **labels)
            else:
                self.gauge(name, description, **labels).set(value)

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()
        for gauge in self._gauges.values():
            gauge.reset()
        for histogram in self._histograms.values():
            histogram.reset()


#: The process-wide registry every fact is recorded into.
_METRICS = MetricsRegistry()


def global_metrics() -> MetricsRegistry:
    return _METRICS


def reset_global_metrics() -> None:
    """Drop every metric from the global registry."""
    _METRICS.drain()
