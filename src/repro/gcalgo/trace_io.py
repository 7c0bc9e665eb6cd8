"""Trace (de)serialization.

Trace-driven simulators live and die by being able to capture a trace
once and replay it many times; this module round-trips
:class:`~repro.gcalgo.trace.GCTrace` objects through two formats:

* a compact **JSON** codec (events positionally, residuals and
  summaries as small maps) — human-greppable, version-controlled
  reproducers;
* a **binary ``.npz``** codec that stores a trace's event columns
  directly — the capture-once/replay-many artifact the experiment
  pipeline and the content-addressed trace cache use.  Loading it
  hands structured arrays straight to the vectorized replayer without
  per-event Python work.

Both readers build their traces through
:func:`~repro.gcalgo.columnar.trace_from_columns`, which rejects
malformed columns with a :class:`~repro.errors.ConfigError`.

The binary layout is *chunked and streamed*: the writer serializes one
trace at a time, splitting each trace's event array
into members of at most ``DEFAULT_TRACE_CHUNK_EVENTS`` events (a trace
that fits one chunk keeps the original monolithic member name), so
writing never holds more than one trace in RAM.  On the way back,
:func:`stream_compiled` is a generator that materializes one trace at
a time, :func:`load_manifest` / :func:`load_summaries` answer
metadata/summary queries without decompressing a single event member
(``np.load`` reads zip members lazily), and :func:`load_compiled`
remains the eager convenience wrapper.

Both formats are versioned so stored traces fail loudly rather than
silently misreplay after a schema change.  :func:`save_traces` and
:func:`load_traces` dispatch on the ``.npz`` suffix.

::

    from repro.gcalgo.trace_io import save_traces, load_traces
    save_traces(run.traces, "spark-bs.gctrace.json")   # JSON
    save_traces(run.traces, "spark-bs.gctrace.npz")    # binary columnar
    traces = load_traces("spark-bs.gctrace.npz")
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Optional, Tuple,
                    Union)

import numpy as np

from repro.config import DEFAULT_TRACE_CHUNK_EVENTS
from repro.errors import ConfigError
from repro.gcalgo.columnar import TRACE_SCHEMA_VERSION, trace_from_columns
from repro.gcalgo.trace import (CODE_TO_PRIMITIVE, EVENT_DTYPE, GCTrace,
                                NO_BITS_CACHED, PRIMITIVE_TYPE_CODES,
                                ResidualWork, STAT_FIELDS)

FORMAT_VERSION = 1

BINARY_FORMAT = "repro-gctrace-npz"

#: positional event encoding, one JSON row per event:
#: [primitive, phase, src, dst, size, refs, pushes, bits, bits_cached,
#:  found] -- the EVENT_DTYPE fields, with the primitive and phase
#: spelled out and ``null`` for NO_BITS_CACHED.
_ROW_FIELDS = len(EVENT_DTYPE.names)

_CODE_OF_NAME = {primitive.value: code
                 for primitive, code in PRIMITIVE_TYPE_CODES.items()}


def trace_to_dict(trace: GCTrace) -> dict:
    """One trace as a JSON-ready dict."""
    names = trace.phase_names
    events = [
        [CODE_TO_PRIMITIVE[prim].value, names[phase], src, dst, size,
         refs, pushes, bits, None if cached == NO_BITS_CACHED else cached,
         found]
        for prim, phase, src, dst, size, refs, pushes, bits, cached, found
        in trace.events.tolist()
    ]
    return {
        "kind": trace.kind,
        "heap_bytes": trace.heap_bytes,
        "events": events,
        "residuals": {
            phase: [work.instructions, work.bytes_accessed]
            for phase, work in trace.residuals.items()
        },
        "stats": {name: getattr(trace, name) for name in STAT_FIELDS},
    }


def trace_from_dict(payload: dict) -> GCTrace:
    """Inverse of :func:`trace_to_dict`."""
    phase_ids: Dict[str, int] = {}
    rows = []
    for row in payload["events"]:
        if len(row) != _ROW_FIELDS:
            raise ConfigError(f"trace event row {row!r} has {len(row)} "
                              f"fields, expected {_ROW_FIELDS}")
        code = _CODE_OF_NAME.get(row[0])
        if code is None:
            raise ConfigError(f"trace event row names unknown primitive "
                              f"{row[0]!r}")
        cached = row[8]
        rows.append((code, phase_ids.setdefault(row[1], len(phase_ids)),
                     *row[2:8],
                     NO_BITS_CACHED if cached is None else cached,
                     1 if row[9] else 0))
    return trace_from_columns(
        payload["kind"], payload.get("heap_bytes", 0),
        np.array(rows, dtype=EVENT_DTYPE), list(phase_ids),
        _residuals(payload), **payload.get("stats", {}))


def _residuals(stored: dict) -> Dict[str, ResidualWork]:
    """A JSON document's or manifest entry's residuals, in order."""
    return {phase: ResidualWork(instructions, bytes_accessed)
            for phase, (instructions, bytes_accessed)
            in stored.get("residuals", {}).items()}


def save_traces(traces: Iterable[GCTrace],
                path: Union[str, Path]) -> int:
    """Write a run's traces to ``path``; returns the event total.

    Dispatches on the suffix: ``.npz`` writes the binary columnar
    format, anything else the JSON format.
    """
    path = Path(path)
    if path.suffix == ".npz":
        return save_traces_npz(traces, path)
    traces = list(traces)
    document = {
        "format": "repro-gctrace",
        "version": FORMAT_VERSION,
        "traces": [trace_to_dict(trace) for trace in traces],
    }
    path.write_text(json.dumps(document, separators=(",", ":")))
    return sum(len(trace.events) for trace in traces)


def load_traces(path: Union[str, Path]) -> List[GCTrace]:
    """Read traces written by :func:`save_traces` (either format)."""
    path = Path(path)
    if path.suffix == ".npz":
        return load_compiled(path)[0]
    document = json.loads(path.read_text())
    if document.get("format") != "repro-gctrace":
        raise ConfigError(f"{path} is not a gctrace file")
    if document.get("version") != FORMAT_VERSION:
        raise ConfigError(
            f"{path} has trace format version "
            f"{document.get('version')}, expected {FORMAT_VERSION}")
    return [trace_from_dict(payload) for payload in document["traces"]]


# -- binary columnar codec -------------------------------------------------

def _event_key(index: int, chunk: Optional[int] = None) -> str:
    if chunk is None:
        return f"events_{index:05d}"
    return f"events_{index:05d}_{chunk:05d}"


def _write_member(archive: zipfile.ZipFile, name: str,
                  array: np.ndarray) -> None:
    with archive.open(name + ".npy", "w", force_zip64=True) as member:
        np.lib.format.write_array(member, array, allow_pickle=False)


def save_traces_npz(traces: Iterable[GCTrace],
                    path: Union[str, Path],
                    extra: Optional[Dict[str, object]] = None,
                    chunk_events: int = DEFAULT_TRACE_CHUNK_EVENTS) -> int:
    """Write traces' event columns; returns the event total.

    The writer *streams*: ``traces`` may be any iterable (including a
    generator), each trace is serialized as it arrives,
    and its event array is split into members of at most
    ``chunk_events`` events (default
    :data:`repro.config.DEFAULT_TRACE_CHUNK_EVENTS`) — so peak memory
    is one trace, not the run.  A trace that fits a single chunk keeps
    the original monolithic member name, making the single-chunk file
    byte-layout-compatible with pre-chunking readers.

    ``extra`` is an optional JSON-serializable dict stored alongside
    (the trace cache uses it for the captured run's stats).  The write
    is atomic: a sibling temp file is renamed into place (and removed
    if the write fails).
    """
    if chunk_events < 1:
        raise ConfigError("chunk_events must be >= 1")
    path = Path(path)
    entries: List[dict] = []
    total = 0
    temp = path.with_name(
        path.name + f".tmp{os.getpid():x}_{id(entries):x}")
    try:
        with zipfile.ZipFile(temp, "w", zipfile.ZIP_DEFLATED,
                             allowZip64=True) as archive:
            for index, trace in enumerate(traces):
                events = trace.events
                count = len(events)
                chunks = max(1, math.ceil(count / chunk_events))
                if chunks == 1:
                    _write_member(archive, _event_key(index), events)
                else:
                    for j in range(chunks):
                        _write_member(
                            archive, _event_key(index, j),
                            events[j * chunk_events:(j + 1) * chunk_events])
                entries.append({
                    "kind": trace.kind,
                    "heap_bytes": trace.heap_bytes,
                    "phases": list(trace.phase_names),
                    "residuals": {
                        phase: [work.instructions, work.bytes_accessed]
                        for phase, work in trace.residuals.items()
                    },
                    "stats": {name: getattr(trace, name)
                              for name in STAT_FIELDS},
                    "events": count,
                    "chunks": chunks,
                    "summary": trace.summary(),
                })
                total += count
            manifest = {
                "format": BINARY_FORMAT,
                "version": TRACE_SCHEMA_VERSION,
                "chunk_events": chunk_events,
                "traces": entries,
            }
            if extra is not None:
                manifest["extra"] = extra
            _write_member(
                archive, "manifest",
                np.asarray(json.dumps(manifest, separators=(",", ":"))))
        temp.replace(path)
    finally:
        temp.unlink(missing_ok=True)
    return total


def _validated_manifest(archive, path: Path) -> dict:
    """Parse and version-check the manifest member (and nothing else)."""
    if "manifest" not in archive:
        raise ConfigError(f"{path} is not a binary gctrace file")
    manifest = json.loads(str(archive["manifest"]))
    if manifest.get("format") != BINARY_FORMAT:
        raise ConfigError(f"{path} is not a binary gctrace file")
    if manifest.get("version") != TRACE_SCHEMA_VERSION:
        raise ConfigError(
            f"{path} has trace schema version "
            f"{manifest.get('version')}, expected "
            f"{TRACE_SCHEMA_VERSION}; regenerate the trace")
    return manifest


def _trace_of(archive, path: Path, index: int, entry: dict) -> GCTrace:
    """Materialize one manifest entry's trace from its chunk members."""
    chunks = int(entry.get("chunks", 1))
    if chunks <= 1:
        parts = [archive[_event_key(index)]]
    else:
        parts = [archive[_event_key(index, j)] for j in range(chunks)]
    for part in parts:
        if not isinstance(part, np.ndarray) or part.dtype != EVENT_DTYPE:
            raise ConfigError(
                f"{path} event layout does not match schema "
                f"v{TRACE_SCHEMA_VERSION}; regenerate the trace")
    events = parts[0] if len(parts) == 1 else np.concatenate(parts)
    declared = entry.get("events")
    if declared is not None and declared != len(events):
        raise ConfigError(
            f"{path} trace {index} declares {declared} events but "
            f"stores {len(events)}; regenerate the trace")
    return trace_from_columns(
        entry["kind"], entry.get("heap_bytes", 0), events,
        entry.get("phases", []), _residuals(entry),
        source=f"{path} trace {index}", **entry.get("stats", {}))


_NPZ_ERRORS = (ValueError, KeyError, OSError, zipfile.BadZipFile)


def load_compiled(path: Union[str, Path]
                  ) -> Tuple[List[GCTrace], Dict[str, object]]:
    """Read a binary trace file's traces, their events as columns.

    Returns ``(traces, extra)`` where ``extra`` is whatever dict
    :func:`save_traces_npz` stored (empty if none).  Raises
    :class:`ConfigError` loudly on a foreign file or a schema-version
    mismatch — a stale artifact must be regenerated, never misreplayed.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            manifest = _validated_manifest(archive, path)
            traces = [_trace_of(archive, path, index, entry)
                      for index, entry
                      in enumerate(manifest["traces"])]
            return traces, manifest.get("extra", {})
    except _NPZ_ERRORS as exc:
        raise ConfigError(f"{path} is not a readable gctrace file: "
                          f"{exc}") from exc


def stream_compiled(path: Union[str, Path]) -> Iterator[GCTrace]:
    """Yield a binary trace file's traces one at a time.

    A generator over the same content :func:`load_compiled` returns,
    but only one trace's chunks are materialized at any moment — the
    replay feed for paper-scale files whose full event stream would
    not fit in RAM.  Validation matches :func:`load_compiled`.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            manifest = _validated_manifest(archive, path)
            for index, entry in enumerate(manifest["traces"]):
                yield _trace_of(archive, path, index, entry)
    except _NPZ_ERRORS as exc:
        raise ConfigError(f"{path} is not a readable gctrace file: "
                          f"{exc}") from exc


def load_manifest(path: Union[str, Path]) -> dict:
    """Read and validate only the manifest member of a binary trace.

    No event member is touched (``np.load`` decompresses members
    lazily), so this is O(metadata) even for paper-scale files.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            return _validated_manifest(archive, path)
    except _NPZ_ERRORS as exc:
        raise ConfigError(f"{path} is not a readable gctrace file: "
                          f"{exc}") from exc


def load_summaries(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Per-trace summaries without loading the event stream.

    Files written since the chunked layout carry each trace's
    :meth:`~repro.gcalgo.trace.GCTrace.summary` in the
    manifest; older files fall back to materializing one trace at a
    time (still never the whole file).
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            manifest = _validated_manifest(archive, path)
            summaries = []
            for index, entry in enumerate(manifest["traces"]):
                summary = entry.get("summary")
                if summary is None:  # pre-chunking file
                    summary = _trace_of(archive, path, index,
                                        entry).summary()
                summaries.append(summary)
            return summaries
    except _NPZ_ERRORS as exc:
        raise ConfigError(f"{path} is not a readable gctrace file: "
                          f"{exc}") from exc

