"""Live run observability: a Prometheus-text exposition endpoint.

When armed (``REPRO_METRICS_PORT=<port>``, or an explicit
:meth:`LiveServer.start`), a stdlib :class:`http.server` thread serves
three read-only views of the running process:

``/metrics``
    Every :class:`~repro.obs.metrics.MetricsRegistry` counter, gauge
    and histogram in Prometheus text exposition format (version
    0.0.4).  Histograms render full ``_bucket{le=...}`` cumulative
    series plus ``_sum``/``_count`` and conservative
    ``_quantile{quantile=...}`` summary gauges from
    :meth:`~repro.obs.metrics.Histogram.percentile`.

``/progress``
    A JSON document describing sweep progress — whatever provider was
    attached with :meth:`LiveServer.set_progress_provider` (the
    journaled sweep path attaches
    :func:`repro.experiments.progress.progress_snapshot`).  Without a
    provider it answers ``{"available": false}``.

``/healthz``
    ``ok`` — liveness for scrapers and the bench harness.

The endpoint is **off by default** and deliberately boring: a daemon
``ThreadingHTTPServer`` bound to ``127.0.0.1`` (this is an instrument
panel, not a public service), whose handlers only ever read
lock-protected *snapshots* — scraping never blocks the simulation, and
the simulation never blocks a scrape.  Port ``0`` asks the OS for an
ephemeral port (tests); :attr:`LiveServer.port` reports the bound one.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional

from repro.config import settings
from repro.obs.metrics import MetricsRegistry, global_metrics

#: The quantiles /metrics summarises each histogram at.
QUANTILES = (0.5, 0.9, 0.99)

#: Prometheus exposition content type (text format 0.0.4).
EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _prom_name(name: str) -> str:
    """A repro metric name as a legal Prometheus metric name.

    Dotted namespaces become underscores under a ``repro_`` prefix
    (``replay.kernel_fast`` -> ``repro_replay_kernel_fast``); any
    residual illegal character is folded to ``_`` too.
    """
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_"
                   for ch in name.replace(".", "_"))
    if safe and safe[0].isdigit():
        safe = "_" + safe
    return f"repro_{safe}"


def _prom_labels(labels: Dict[str, str], **extra: str) -> str:
    merged = dict(labels)
    merged.update(extra)
    if not merged:
        return ""
    parts = []
    for key, value in sorted(merged.items()):
        escaped = (str(value).replace("\\", r"\\")
                   .replace("\n", r"\n").replace('"', r'\"'))
        parts.append(f'{key}="{escaped}"')
    return "{" + ",".join(parts) + "}"


def _prom_number(value: object) -> str:
    if value is None:
        return "NaN"
    number = float(value)
    if number == float("inf"):
        return "+Inf"
    if number == float("-inf"):
        return "-Inf"
    return repr(number) if number != int(number) else str(int(number))


def render_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """The whole registry as Prometheus text exposition format.

    Works from :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
    rows, so the render itself touches no live metric state.
    """
    registry = global_metrics() if registry is None else registry
    rows = registry.snapshot()
    # Group label variants of one metric under a single TYPE header.
    grouped: "Dict[str, List[dict]]" = {}
    order: List[str] = []
    for row in rows:
        name = _prom_name(row["metric"])
        if name not in grouped:
            grouped[name] = []
            order.append(name)
        grouped[name].append(row)
    lines: List[str] = []
    for name in order:
        variants = grouped[name]
        kind = variants[0]["kind"]
        prom_type = {"counter": "counter", "gauge": "gauge",
                     "histogram": "histogram"}[kind]
        lines.append(f"# HELP {name} repro metric "
                     f"{variants[0]['metric']}")
        lines.append(f"# TYPE {name} {prom_type}")
        for row in variants:
            labels = {str(k): str(v) for k, v in row["labels"].items()}
            if kind in ("counter", "gauge"):
                lines.append(f"{name}{_prom_labels(labels)} "
                             f"{_prom_number(row['value'])}")
                continue
            bounds = row.get("bounds", [])
            counts = row.get("bucket_counts", [])
            cumulative = 0
            for bound, count in zip(bounds, counts):
                cumulative += count
                lines.append(
                    f"{name}_bucket"
                    f"{_prom_labels(labels, le=_prom_number(bound))} "
                    f"{cumulative}")
            lines.append(f"{name}_bucket{_prom_labels(labels, le='+Inf')}"
                         f" {row['count']}")
            lines.append(f"{name}_sum{_prom_labels(labels)} "
                         f"{_prom_number(row['sum'])}")
            lines.append(f"{name}_count{_prom_labels(labels)} "
                         f"{row['count']}")
        if kind == "histogram":
            # Conservative bucket-bound quantiles as companion gauges
            # (Prometheus summaries are a distinct type; a second
            # metric name keeps the exposition well-formed).
            lines.append(f"# TYPE {name}_quantile gauge")
            for row in variants:
                labels = {str(k): str(v)
                          for k, v in row["labels"].items()}
                for quantile in QUANTILES:
                    key = f"p{int(quantile * 100)}"
                    lines.append(
                        f"{name}_quantile"
                        f"{_prom_labels(labels, quantile=str(quantile))}"
                        f" {_prom_number(row[key])}")
    return "\n".join(lines) + "\n" if lines else ""


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-live/1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        live: "LiveServer" = self.server.live  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = render_prometheus(live.registry)
            self._reply(200, EXPOSITION_CONTENT_TYPE, body)
        elif path == "/progress":
            provider = live.progress_provider
            if provider is None:
                payload = {"available": False}
            else:
                try:
                    payload = dict(provider())
                    payload.setdefault("available", True)
                except Exception as exc:  # never take the server down
                    payload = {"available": False, "error": str(exc)}
            self._reply(200, "application/json",
                        json.dumps(payload, sort_keys=True))
        elif path == "/healthz":
            self._reply(200, "text/plain; charset=utf-8", "ok\n")
        else:
            self._reply(404, "text/plain; charset=utf-8",
                        "not found\n")

    def _reply(self, status: int, content_type: str,
               body: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args: object) -> None:
        """Silence per-request stderr chatter."""


class LiveServer:
    """The exposition endpoint's lifecycle owner."""

    def __init__(self,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry or global_metrics()
        self.progress_provider: Optional[Callable[[], dict]] = None
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def port(self) -> Optional[int]:
        """The bound port (resolves ``0`` to the ephemeral choice)."""
        if self._server is None:
            return None
        return self._server.server_address[1]

    def start(self, port: int, host: str = "127.0.0.1") -> int:
        """Serve on ``host:port`` from a daemon thread; returns the
        bound port."""
        if self._server is not None:
            return self.port
        server = ThreadingHTTPServer((host, port), _Handler)
        server.daemon_threads = True
        server.live = self  # type: ignore[attr-defined]
        thread = threading.Thread(target=server.serve_forever,
                                  name="repro-live-metrics",
                                  daemon=True)
        thread.start()
        self._server = server
        self._thread = thread
        return self.port

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._server = None
        self._thread = None

    def set_progress_provider(
            self, provider: Optional[Callable[[], dict]]) -> None:
        """Attach the callable /progress serves (None detaches)."""
        self.progress_provider = provider


#: The process-wide server the env installer and sweeps share.
_LIVE = LiveServer()


def get_live_server() -> LiveServer:
    return _LIVE


_INSTALLED = False


def install_env_live_server(environ=None) -> Optional[int]:
    """Start the global server from ``REPRO_METRICS_PORT``.

    Returns the bound port, or ``None`` when the variable is unset
    (the default — no thread, no socket, zero overhead).  Installs at
    most once per process; forked sweep workers inherit the variable
    but *not* the socket — only the parent should serve, so workers
    detect the inherited installation flag and stay quiet.
    """
    global _INSTALLED
    port = settings(environ).metrics_port
    if port is None or _INSTALLED:
        return None
    _INSTALLED = True
    return _LIVE.start(port)


def reset_installed_for_tests() -> None:
    global _INSTALLED
    _INSTALLED = False
    _LIVE.stop()
    _LIVE.set_progress_provider(None)
