"""Span tracing with simulated and host clock domains.

A *span* is a named interval with a category and optional arguments.
Spans live in one of two clock domains, exported as two separate
Chrome-trace processes so a timeline never mixes them up:

* ``sim`` (pid 0) — simulated seconds, the time axis the replayers
  compute.  The replayers report these spans explicitly via
  :meth:`Tracer.add_span` because simulated time is a number they
  already hold, not something a wall clock could observe.
* ``host`` (pid 1) — real wall time measured with
  :func:`time.perf_counter`, used by the functional collectors and the
  experiment driver through the :meth:`Tracer.span` context manager.

The tracer is **disabled by default** and designed so the disabled
path costs one attribute check: :meth:`span` returns a shared no-op
context manager and the replayers guard their span emission on
:attr:`Tracer.enabled`.  The ``REPRO_TRACE_OUT`` environment variable
enables the global tracer and writes the Chrome trace file at process
exit (see :func:`install_env_exporters`).
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.config import (EVENTLOG_ENV, METRICS_OUT_ENV,
                          METRICS_PORT_ENV, TRACE_OUT_ENV)

CLOCK_SIM = "sim"
CLOCK_HOST = "host"

#: Chrome-trace process ids per clock domain (one "process" per clock
#: so Perfetto draws two clearly labeled tracks).
_CLOCK_PIDS = {CLOCK_SIM: 0, CLOCK_HOST: 1}


class _NullSpan:
    """The disabled-tracer span: a reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _HostSpan:
    """An open host-clock span; closes (and records) on ``__exit__``."""

    __slots__ = ("_tracer", "name", "cat", "tid", "args", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, tid: int,
                 args: Optional[Dict[str, Any]]) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.tid = tid
        self.args = args

    def __enter__(self) -> "_HostSpan":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        tracer._append({
            "name": self.name,
            "cat": self.cat,
            "ph": "X",
            "pid": _CLOCK_PIDS[CLOCK_HOST],
            "tid": self.tid,
            "ts": (self._start - tracer._host_epoch) * 1e6,
            "dur": (end - self._start) * 1e6,
            **({"args": self.args} if self.args else {}),
        })


class Tracer:
    """Collects Chrome trace events from both clock domains."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._host_epoch = time.perf_counter()

    # -- control -----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self._events = []

    def __len__(self) -> int:
        return len(self._events)

    # -- recording ---------------------------------------------------------

    def span(self, name: str, cat: str = "host", tid: int = 0,
             **args: Any):
        """A host-clock span context manager (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _HostSpan(self, name, cat, tid, args or None)

    def add_span(self, name: str, start_s: float, dur_s: float,
                 cat: str = "gc", clock: str = CLOCK_SIM, tid: int = 0,
                 args: Optional[Dict[str, Any]] = None) -> None:
        """Record a complete span with explicit timestamps.

        ``start_s``/``dur_s`` are seconds on the given clock; the
        replayers use this with their simulated timeline.  Callers are
        expected to guard on :attr:`enabled` themselves (the replayers
        do, to keep the disabled fast path to one check)."""
        if not self.enabled:
            return
        self._append({
            "name": name,
            "cat": cat,
            "ph": "X",
            "pid": _CLOCK_PIDS[clock],
            "tid": tid,
            "ts": start_s * 1e6,
            "dur": dur_s * 1e6,
            **({"args": args} if args else {}),
        })

    def instant(self, name: str, cat: str = "marker",
                clock: str = CLOCK_HOST, tid: int = 0,
                args: Optional[Dict[str, Any]] = None) -> None:
        """A zero-duration marker event."""
        if not self.enabled:
            return
        if clock == CLOCK_HOST:
            ts = (time.perf_counter() - self._host_epoch) * 1e6
        else:
            ts = 0.0
        self._append({
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "g",
            "pid": _CLOCK_PIDS[clock],
            "tid": tid,
            "ts": ts,
            **({"args": args} if args else {}),
        })

    def _append(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self._events.append(event)

    # -- export ------------------------------------------------------------

    def chrome_events(self) -> List[Dict[str, Any]]:
        """The recorded events plus process-name metadata, as the
        Chrome trace-event "JSON array" format."""
        meta = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": f"{clock} clock"}}
            for clock, pid in sorted(_CLOCK_PIDS.items(),
                                     key=lambda item: item[1])
        ]
        with self._lock:
            return meta + list(self._events)

    def write_chrome(self, path: Union[str, Path]) -> Path:
        """Write the Chrome trace-event JSON file; returns the path."""
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_events()))
        return path

    def span_seconds(self, cat: str, clock: str = CLOCK_SIM) -> float:
        """Total duration of the recorded spans of one category."""
        pid = _CLOCK_PIDS[clock]
        with self._lock:
            return sum(event.get("dur", 0.0) for event in self._events
                       if event.get("pid") == pid
                       and event.get("cat") == cat) / 1e6


#: The process-wide tracer every instrumented component reports to.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def install_env_exporters(environ=None) -> Dict[str, str]:
    """Arm the opt-in environment knobs; returns what was installed.

    ``REPRO_TRACE_OUT=<path>`` enables the global tracer and writes the
    Chrome trace there at process exit; ``REPRO_METRICS_OUT=<path>``
    writes the global metrics registry's JSON snapshot (with the
    trace-cache tally adapted in) at process exit.  Live observability
    arms here too: ``REPRO_EVENTLOG=<path>`` opens the JSONL run-event
    log and ``REPRO_METRICS_PORT=<port>`` starts the ``/metrics``
    exposition endpoint.  Safe to call more than once — each exporter
    installs a single time per process.
    """
    environ = os.environ if environ is None else environ
    installed: Dict[str, str] = {}
    trace_out = environ.get(TRACE_OUT_ENV)
    if trace_out and trace_out not in _INSTALLED:
        _TRACER.enable()
        atexit.register(_TRACER.write_chrome, trace_out)
        _INSTALLED.add(trace_out)
        installed[TRACE_OUT_ENV] = trace_out
    metrics_out = environ.get(METRICS_OUT_ENV)
    if metrics_out and metrics_out not in _INSTALLED:
        atexit.register(_write_metrics_snapshot, metrics_out)
        _INSTALLED.add(metrics_out)
        installed[METRICS_OUT_ENV] = metrics_out
    # Lazy imports: the live modules cost nothing unless their
    # environment knobs are actually set.
    from repro.obs.eventlog import install_env_eventlog
    eventlog_path = install_env_eventlog(environ)
    if eventlog_path is not None:
        installed[EVENTLOG_ENV] = eventlog_path
    from repro.obs.live import install_env_live_server
    live_port = install_env_live_server(environ)
    if live_port is not None:
        installed[METRICS_PORT_ENV] = str(live_port)
    return installed


_INSTALLED: set = set()


def _write_metrics_snapshot(path: str) -> None:
    from repro.obs.adapters import cache_metrics
    from repro.obs.export import write_metrics_json
    from repro.obs.metrics import global_metrics

    registry = global_metrics()
    cache_metrics(registry)
    write_metrics_json(path, registry)
