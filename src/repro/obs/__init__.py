"""Unified telemetry: spans, metrics, exporters, and provenance.

Every fact a run measures is recorded once, into the process's
:func:`global_metrics` registry (spans into :func:`get_tracer`).  A
``replay_grid`` pool worker hands its rows, spans and provenance
records back with each result, and ``runner._fan_out`` merges them
into the parent's, so a pooled sweep reports what a serial one does.
The package:

* :mod:`repro.obs.tracer` — a span tracer with two clock domains:
  *simulated* seconds (what the replayers compute) and *host* wall
  time (what the functional collectors and the experiment driver
  actually spend);
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of labeled
  counters, gauges and histograms (with percentile queries); the
  store tallies (``trace_cache.hits``, ``stage2_native.builds``, …)
  and the stage-1 memo's (``stage1_cache.misses``) are its counters;
* :mod:`repro.obs.adapters` — records a replay's
  :class:`~repro.platform.timing.GCTimingResult`, its
  :class:`~repro.core.device.CharonDevice` counters and its HMC
  traffic into a registry;
* :mod:`repro.obs.export` — Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``) plus JSON/CSV metric snapshots;
* :mod:`repro.obs.provenance` — per-run manifests (config hash,
  workload, platform, schema/generator versions, cache behaviour, host
  wall time) written next to every runner/figure/benchmark output.

Everything is off by default and adds only a guard check when
disabled; set ``REPRO_OBS_OUT=<dir>`` (or pass ``--trace-out``) to
record and export a timeline.
"""

from repro.obs.metrics import (Counter, Gauge, Histogram,
                               MetricsRegistry, global_metrics)
from repro.obs.tracer import (CLOCK_HOST, CLOCK_SIM, Tracer,
                              get_tracer, install_env_exporters)

__all__ = [
    "CLOCK_HOST",
    "CLOCK_SIM",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "get_tracer",
    "global_metrics",
    "install_env_exporters",
]
