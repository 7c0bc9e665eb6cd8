"""Adapters: record a replay's results into the metrics registry.

Each adapter records one result — a replay's
:class:`~repro.platform.timing.GCTimingResult`, the end state of its
:class:`~repro.core.device.CharonDevice` and its
:class:`~repro.mem.hmc.HMCSystem` traffic — as labeled counters or
gauges of a :class:`~repro.obs.metrics.MetricsRegistry`, so one
snapshot carries everything a run measured.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.device import CharonDevice
    from repro.mem.hmc import HMCSystem
    from repro.platform.timing import GCTimingResult


def device_metrics(registry: MetricsRegistry,
                   device: "CharonDevice") -> None:
    """Record a Charon device's unit/TLB/bitmap-cache counters."""
    from repro.core.report import device_summary, unit_rows

    scope = registry.scope("charon")
    for name, value in device_summary(device).items():
        scope.gauge(name, "aggregate Charon device counter").set(
            float(value))
    for row in unit_rows(device):
        scope.gauge("unit_commands", "per-unit offload commands",
                    unit=row["unit"], cube=row["cube"]).set(
            float(row["commands"]))
        scope.gauge("unit_busy_us", "per-unit busy microseconds",
                    unit=row["unit"], cube=row["cube"]).set(
            float(row["busy_us"]))


def hmc_metrics(registry: MetricsRegistry, hmc: "HMCSystem") -> None:
    """Record HMC traffic/locality counters (Fig. 13's raw inputs)."""
    from repro.core.report import traffic_summary

    scope = registry.scope("hmc")
    for name, value in traffic_summary(hmc).items():
        scope.gauge(name, "HMC traffic counter").set(float(value))


def timing_metrics(registry: MetricsRegistry, result: "GCTimingResult",
                   workload: str) -> None:
    """Record one replay result as labeled ``replay.*`` metrics."""
    scope = registry.scope("replay")
    labels = {"platform": result.platform, "workload": workload}
    scope.counter("wall_seconds", "simulated GC pause seconds",
                  **labels).add(result.wall_seconds)
    scope.counter("residual_seconds", "non-offloadable host work",
                  **labels).add(result.residual_seconds)
    scope.counter("dram_bytes", "bytes moved during GC",
                  **labels).add(result.dram_bytes)
    scope.counter("energy_joules", "package energy of the replay",
                  **labels).add(result.energy.total_j)
    for primitive, seconds in result.primitive_seconds.items():
        scope.counter("primitive_seconds", "per-primitive work time",
                      primitive=primitive.value, **labels).add(seconds)
