"""In-memory spans around the library's public calls, and what they add up to.

The traced pass adds no tracing inside ``src/``.  :func:`install`
rebinds the attributes callers look up -- ``runner.replay_platform``
and its re-exports in ``figures``/``ablations``, the batched kernels'
``begin``/``run_phase``, ``Workload.run`` and so on -- to wrappers that
record one span per call.  Spans stay in memory and are written out
only when the pass ends.

A span's *self time* is its duration minus the part of it its child
spans cover; the per-layer table sums self times by layer, so the
layers (plus the harness's own glue, ``unattributed``) add up to the
pass's wall time exactly.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional

#: Span name -> layer of the self-time table.
LAYER_OF = {
    "pass": "unattributed",
    "capture": "capture",
    "compile": "compile",
    "trace_io.store": "trace_io",
    "trace_io.decode": "trace_io",
    "trace_cache.hit": "trace_cache",
    "collect": "trace_cache",
    "stage1.ddr4": "stage1",
    "stage1.hmc": "stage1",
    "stage1.charon": "stage1",
    "stage2.ddr4": "stage2",
    "stage2.hmc": "stage2",
    "stage2.charon": "stage2",
    "replay": "replay",
    "replay.run": "replay",
    "replay.event": "replay",
    "platform.build": "replay",
    "fanout": "fanout",
}

#: The batched kernel classes' short names.
KERNELS = {"DDR4BatchedKernel": "ddr4", "HostHMCBatchedKernel": "hmc",
           "CharonBatchedKernel": "charon"}


class Span:
    """One call: name, start and end (``perf_counter`` seconds), the
    index of the enclosing span, and arguments noted on return."""

    __slots__ = ("name", "start", "end", "parent", "args")

    def __init__(self, name: str, start: float, end: float,
                 parent: Optional[int], args: Optional[dict]) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.args = args or {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Spans of one thread, in start order, with parent links."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    def wrap(self, name: str, function: Callable,
             note: Optional[Callable] = None) -> Callable:
        """``function`` recording a span per call.

        ``note(args, kwargs, result)`` may return span arguments; it
        runs only when the call returns.
        """
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0,
                        recorder._open[-1] if recorder._open else None,
                        None)
            recorder._open.append(len(recorder.spans))
            recorder.spans.append(span)
            try:
                result = function(*args, **kwargs)
                if note is not None:
                    span.args = note(args, kwargs, result)
                return result
            finally:
                span.end = time.perf_counter()
                recorder._open.pop()

        return traced


def rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` -- the names callers actually look up."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _events(traces) -> Optional[int]:
    if isinstance(traces, (list, tuple)):
        return sum(len(trace.events) for trace in traces)
    return None


def install(recorder: SpanRecorder) -> None:
    """Wrap the library's layer boundaries with ``recorder``."""
    # figures and ablations re-export runner's functions; importing them
    # first lets rebind() reach those names too.
    from repro.experiments import ablations, figures, runner  # noqa: F401
    from repro.experiments import trace_cache
    from repro.gcalgo import columnar, trace_io
    from repro.platform import batched, factory
    from repro.platform.replay import TraceReplayer

    def captured(args, kwargs, run):
        return {"events": sum(len(trace.events) for trace in run.traces)}

    for cls in workload_classes():
        cls.run = recorder.wrap("capture", cls.run, captured)

    def compiled(args, kwargs, result):
        return {"trace": id(args[0])}

    def loaded(args, kwargs, result):
        return {"hit": result is not None}

    def replayed(args, kwargs, result):
        return {"platform": result.platform}

    for name, function, note in (
            ("compile", columnar.compile_trace, compiled),
            ("trace_io.store", trace_io.save_traces_npz, None),
            ("trace_io.decode", trace_io.load_compiled, None),
            ("trace_cache.hit", trace_cache.load_run, loaded),
            ("collect", runner.collect_run, None),
            ("replay", runner.replay_platform, replayed),
            ("platform.build", factory.build_platform, None),
            ("fanout", runner.replay_grid, None)):
        rebind(function, recorder.wrap(name, function, note))

    def phase(args, kwargs, result):
        return {"events": args[2] - args[1]}

    for cls_name, short in KERNELS.items():
        cls = getattr(batched, cls_name)
        cls.begin = recorder.wrap(f"stage1.{short}", cls.begin)
        cls.run_phase = recorder.wrap(f"stage2.{short}", cls.run_phase,
                                      phase)

    def replayed_all(args, kwargs, result):
        return {"platform": args[0].platform.name,
                "events": _events(args[1]),
                "wall_seconds": result.wall_seconds,
                "dram_bytes": result.dram_bytes,
                "bitmap_cache_hits": result.bitmap_cache_hits,
                "bitmap_cache_accesses": result.bitmap_cache_accesses,
                "local_fraction": result.local_fraction}

    TraceReplayer.replay_all = recorder.wrap(
        "replay.run", TraceReplayer.replay_all, replayed_all)
    TraceReplayer.replay = recorder.wrap("replay.event",
                                         TraceReplayer.replay)


def workload_classes() -> list:
    """``Workload`` and every registered subclass defining ``run``."""
    from repro.workloads import registry  # noqa: F401 (registers all)
    from repro.workloads.base import Workload

    found, pending = [], [Workload]
    while pending:
        cls = pending.pop()
        if "run" in vars(cls):
            found.append(cls)
        pending += cls.__subclasses__()
    return found


# -- what the spans add up to ----------------------------------------------
#
# A traced pass returns its spans as rows; the parent reloads them.  The
# functions below take one span list per process (a cache fill may run
# in two processes at once), since parent links are process-local.

def dump(span: Span) -> list:
    return [span.name, span.start, span.end, span.parent, span.args]


def load(rows: List[list]) -> List[Span]:
    return [Span(*row) for row in rows]


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()),
                            key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.duration - covered)
    return result


def layer_table(processes: List[List[Span]]) -> Dict[str, float]:
    """Self seconds per layer (``unattributed`` is the harness's glue)."""
    table: Dict[str, float] = {}
    for spans in processes:
        for span, own in zip(spans, self_times(spans)):
            layer = LAYER_OF.get(span.name, "unattributed")
            table[layer] = table.get(layer, 0.0) + own
    return table


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(processes: List[List[Span]],
                  cache_stats: Dict[str, dict]) -> Dict[str, float]:
    """The per-layer metrics of traced passes.

    ``cache_stats`` holds the trace and stage-1 caches' hit/miss
    tallies over the passes.  Time metrics are inclusive seconds of the
    named call summed over calls; a layer that did no work reads 0.
    """
    spans = [span for group in processes for span in group]

    def calls(name: str, **match) -> List[Span]:
        return [span for span in spans if span.name == name
                and all(span.args.get(k) == v for k, v in match.items())]

    def total(name: str, **match) -> float:
        return sum(span.duration for span in calls(name, **match))

    def events(found: List[Span]) -> int:
        return sum(span.args.get("events") or 0 for span in found)

    metrics: Dict[str, float] = {}
    metrics["capture.s"] = total("capture")
    metrics["capture.events_per_s"] = _ratio(events(calls("capture")),
                                             metrics["capture.s"])
    compiles = calls("compile")
    metrics["compile.s"] = total("compile")
    # Trace ids are only unique within one process.
    distinct = sum(len({span.args.get("trace") for span in group
                        if span.name == "compile"})
                   for group in processes)
    metrics["compile.redundancy"] = _ratio(len(compiles), distinct)
    metrics["trace_io.store_s"] = total("trace_io.store")
    metrics["trace_io.decode_s"] = total("trace_io.decode")
    metrics["trace_cache.hit_s"] = total("trace_cache.hit", hit=True)
    for cache in ("trace_cache", "stage1_cache"):
        stats = cache_stats.get(cache, {})
        hits = stats.get("hits", 0)
        metrics[f"{cache}.hit_ratio"] = _ratio(
            hits, hits + stats.get("misses", 0))

    kernels = ("charon", "hmc", "ddr4")
    for short in kernels:
        metrics[f"stage1.{short}_s"] = total(f"stage1.{short}")
        metrics[f"stage2.{short}_s"] = total(f"stage2.{short}")
    metrics["stage2.events_per_s"] = _ratio(
        sum(events(calls(f"stage2.{short}")) for short in kernels),
        sum(metrics[f"stage2.{short}_s"] for short in kernels))

    metrics["replay.self_s"] = sum(
        own for group in processes
        for span, own in zip(group, self_times(group))
        if span.name in ("replay", "replay.run"))
    metrics["replay.event_path_s"] = total("replay.event")
    metrics["platform.build_s"] = total("platform.build")
    runs = calls("replay.run")
    metrics["replay.calls"] = len(runs)
    ideal = [span for span in calls("replay.run", platform="ideal")
             if span.args.get("events")]
    metrics["replay.ideal_us_per_event"] = 1e6 * _ratio(
        sum(span.duration for span in ideal), events(ideal))

    for platform in ("charon", "cpu-ddr4"):
        metrics[f"sim.{platform}.gc_s"] = sum(
            span.args["wall_seconds"]
            for span in calls("replay.run", platform=platform))
    charon = [span.args for span in calls("replay.run", platform="charon")]
    metrics["sim.charon.bitmap_cache_hit_rate"] = _ratio(
        sum(args["bitmap_cache_hits"] for args in charon),
        sum(args["bitmap_cache_accesses"] for args in charon))
    local = [args["local_fraction"] for args in charon
             if args["local_fraction"] is not None]
    metrics["sim.charon.local_fraction"] = _ratio(sum(local), len(local))
    metrics["sim.charon.dram_gib"] = sum(
        args["dram_bytes"] for args in charon) / 2**30
    return metrics


def replay_seconds(processes: List[List[Span]]) -> float:
    """Inclusive seconds of every ``replay_platform`` call."""
    return sum(span.duration for group in processes for span in group
               if span.name == "replay")


def chrome_trace(processes: List[List[Span]]) -> dict:
    """The spans as a Chrome/Perfetto ``traceEvents`` document, one
    track per process."""
    starts = [group[0].start for group in processes if group]
    origin = min(starts) if starts else 0.0
    events = [{"name": span.name,
               "cat": LAYER_OF.get(span.name, "unattributed"),
               "ph": "X", "pid": pid, "tid": 0,
               "ts": (span.start - origin) * 1e6,
               "dur": span.duration * 1e6,
               "args": span.args}
              for pid, group in enumerate(processes) for span in group]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
