"""``-verbose:gc``-style log lines from traces and timing results.

Formats a run's collections the way HotSpot prints them, with the
simulated pause times of whichever platform replayed the trace::

    [GC (minor) 4.1M->0.6M, 8 promoted, 0.000412 secs]
    [Full GC (major) 9.8M->7.2M, 0.003181 secs]

Useful for eyeballing a workload's GC rhythm and for teaching demos.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.gcalgo.trace import GCTrace, Primitive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.platform.timing import GCTimingResult

_LABELS = {
    "minor": "GC (minor)",
    "major": "Full GC (major)",
    "sweep": "Old GC (mark-sweep)",
    "g1": "GC pause (G1 mixed)",
    "concurrent": "GC cycle (concurrent mark)",
}


def _mb(value: int) -> str:
    return f"{value / (1 << 20):.1f}M"


def format_gc_line(trace: GCTrace,
                   seconds: Optional[float] = None) -> str:
    """One HotSpot-style log line for a collection."""
    # Unknown kinds (a collector added before its label) still log.
    label = _LABELS.get(trace.kind, f"GC ({trace.kind})")
    survived = trace.bytes_copied
    before = survived + trace.bytes_freed
    parts = [f"[{label} {_mb(before)}->{_mb(survived)}"]
    if trace.objects_promoted:
        parts.append(f", {trace.objects_promoted} promoted")
    if trace.kind == "major":
        parts.append(f", {trace.count(Primitive.BITMAP_COUNT)} "
                     "bitmap queries")
    if trace.kind == "concurrent":
        pauses = sum(name.startswith("concurrent-mark")
                     for name in trace.phase_names)
        parts.append(f", {pauses} mark pauses")
    if seconds is not None:
        parts.append(f", {seconds:.6f} secs")
    parts.append("]")
    return "".join(parts)


def format_gc_log(traces: Sequence[GCTrace],
                  results: "Optional[Sequence[GCTimingResult]]" = None
                  ) -> str:
    """The whole run as a log, optionally with replayed pause times."""
    lines: List[str] = []
    for index, trace in enumerate(traces):
        seconds = None
        if results is not None and index < len(results):
            seconds = results[index].wall_seconds
        lines.append(format_gc_line(trace, seconds))
    return "\n".join(lines)


def replayed_gc_log(traces: Sequence[GCTrace], platform,
                    threads: Optional[int] = None) -> str:
    """Replay ``traces`` on ``platform`` and log each pause."""
    from repro.platform.replay import TraceReplayer

    replayer = TraceReplayer(platform, threads=threads)
    results = [replayer.replay(trace) for trace in traces]
    return format_gc_log(traces, results)
