"""Trace files: one binary codec, one layout, one reader.

A primitive trace is captured once and replayed on every platform; a
trace file is how it crosses from one to the other.  The file is a
plain zip (``.npz``, readable with stock ``numpy``/``zipfile``
tooling) holding

* one ``events_{i:05d}`` member per trace: its event columns as one
  :data:`~repro.gcalgo.trace.EVENT_DTYPE` array, which the vectorized
  replayer reads without per-event Python work;
* a JSON ``manifest`` member: the format name, the schema version and,
  per trace, its kind, heap size, phase names, residuals (in order),
  stats and event count, plus an optional ``extra`` dict (the trace
  cache stores the captured run's stats there).

:func:`save_traces_npz` writes it atomically, one trace at a time;
:func:`load_compiled` reads it back, building every trace through
:func:`~repro.gcalgo.columnar.trace_from_columns`.  Any fault in a
file -- a foreign or torn archive, a schema-version mismatch, a
manifest of the wrong shape, an event member not in the event layout
-- raises :class:`~repro.errors.ConfigError`: a stale artifact is
regenerated, never misreplayed.

::

    from repro.gcalgo.trace_io import load_compiled, save_traces_npz
    save_traces_npz(run.traces, "spark-bs.gctrace.npz")
    traces, _ = load_compiled("spark-bs.gctrace.npz")
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigError
from repro.gcalgo.columnar import TRACE_SCHEMA_VERSION, trace_from_columns
from repro.gcalgo.trace import GCTrace, ResidualWork, STAT_FIELDS

BINARY_FORMAT = "repro-gctrace-npz"


def _write_member(archive: zipfile.ZipFile, name: str,
                  array: np.ndarray) -> None:
    with archive.open(name + ".npy", "w", force_zip64=True) as member:
        np.lib.format.write_array(member, array, allow_pickle=False)


def save_traces_npz(traces: Iterable[GCTrace],
                    path: Union[str, Path],
                    extra: Optional[Dict[str, object]] = None) -> int:
    """Write traces to ``path``; returns the event total.

    Each trace is written as it arrives, so ``traces`` may be a
    generator.  ``extra`` is an optional JSON-serializable dict stored
    in the manifest.  The write is atomic: a sibling temp file is
    renamed into place (and removed if the write fails).
    """
    path = Path(path)
    entries: List[dict] = []
    temp = path.with_name(
        path.name + f".tmp{os.getpid():x}_{id(entries):x}")
    try:
        with zipfile.ZipFile(temp, "w", zipfile.ZIP_DEFLATED,
                             allowZip64=True) as archive:
            for index, trace in enumerate(traces):
                _write_member(archive, f"events_{index:05d}",
                              trace.events)
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
                    "events": len(trace.events),
                })
            manifest = {
                "format": BINARY_FORMAT,
                "version": TRACE_SCHEMA_VERSION,
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
    return sum(entry["events"] for entry in entries)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _manifest(archive, path: Path) -> dict:
    """The manifest member, parsed and checked for format, version and
    shape."""
    manifest = (json.loads(str(archive["manifest"]))
                if "manifest" in archive else None)
    if not isinstance(manifest, dict) \
            or manifest.get("format") != BINARY_FORMAT:
        raise ConfigError(f"{path} is not a binary gctrace file")
    if manifest.get("version") != TRACE_SCHEMA_VERSION:
        raise ConfigError(
            f"{path} has trace schema version "
            f"{manifest.get('version')}, expected "
            f"{TRACE_SCHEMA_VERSION}; regenerate the trace")
    entries = manifest.get("traces")
    if not isinstance(entries, list) \
            or not isinstance(manifest.get("extra", {}), dict):
        raise ConfigError(f"{path} has a malformed manifest; "
                          f"regenerate the trace")
    return manifest


def _entry_is_wellformed(entry: object) -> bool:
    """Whether a manifest entry has the shape the writer gives it (the
    event count is optional: early files do not store it)."""
    if not isinstance(entry, dict):
        return False
    phases = entry.get("phases", [])
    residuals = entry.get("residuals", {})
    stats = entry.get("stats", {})
    return (isinstance(entry.get("kind"), str)
            and _is_int(entry.get("heap_bytes", 0))
            and _is_int(entry.get("events", 0))
            and isinstance(phases, list)
            and all(isinstance(name, str) for name in phases)
            and isinstance(residuals, dict)
            and all(isinstance(work, list) and len(work) == 2
                    and isinstance(work[0], (int, float))
                    and _is_int(work[1]) for work in residuals.values())
            and isinstance(stats, dict)
            and all(_is_int(value) for value in stats.values()))


def _trace_of(archive, path: Path, index: int, entry: object) -> GCTrace:
    """Materialize one manifest entry's trace from its event member."""
    source = f"{path} trace {index}"
    if not _entry_is_wellformed(entry):
        raise ConfigError(f"{source} has a malformed manifest entry; "
                          f"regenerate the trace")
    events = archive[f"events_{index:05d}"]
    if not isinstance(events, np.ndarray):  # not an .npy member
        raise ConfigError(f"{source} has no event array; regenerate "
                          f"the trace")
    residuals = {phase: ResidualWork(instructions, bytes_accessed)
                 for phase, (instructions, bytes_accessed)
                 in entry.get("residuals", {}).items()}
    trace = trace_from_columns(
        entry["kind"], entry.get("heap_bytes", 0), events,
        entry.get("phases", []), residuals, source=source,
        **entry.get("stats", {}))
    declared = entry.get("events", len(trace.events))
    if declared != len(trace.events):
        raise ConfigError(
            f"{source} declares {declared} events but stores "
            f"{len(trace.events)}; regenerate the trace")
    return trace


def load_compiled(path: Union[str, Path]
                  ) -> Tuple[List[GCTrace], Dict[str, object]]:
    """Read a trace file's traces, their events as columns.

    Returns ``(traces, extra)`` where ``extra`` is whatever dict
    :func:`save_traces_npz` stored (empty if none).  Raises
    :class:`ConfigError` on any fault in the file.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            manifest = _manifest(archive, path)
            traces = [_trace_of(archive, path, index, entry)
                      for index, entry in enumerate(manifest["traces"])]
            return traces, manifest.get("extra", {})
    except (ValueError, KeyError, OSError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path} is not a readable gctrace file: "
                          f"{exc}") from exc
