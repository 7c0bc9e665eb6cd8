"""The column form of a GC trace: sealing captured rows, and building a
trace from stored columns.

A :class:`~repro.gcalgo.trace.GCTrace` records its events as row tuples
and keeps them, once sealed, as one structured numpy array of
:data:`EVENT_DTYPE`, so the vectorized fast path
(:mod:`repro.platform.fast_replay`) can cost a whole phase in a handful
of array operations and the binary codec (:mod:`repro.gcalgo.trace_io`)
can write it to disk without touching individual events.  This module
holds the two ways a trace gets its columns: :func:`compile_trace`
seals the rows a collector recorded, and :func:`trace_from_columns`
validates columns a codec read back.

:data:`TRACE_SCHEMA_VERSION` names this layout.  Bump it whenever the
event dtype, the phase/residual encoding, or the collectors' recording
semantics change — the binary codec and the content-addressed trace
cache both key on it, so stale artifacts are regenerated instead of
silently misreplayed.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.gcalgo.trace import (CODE_TO_PRIMITIVE, EVENT_DTYPE, GCTrace,
                                ResidualWork, STAT_FIELDS)

#: Version of the columnar layout *and* of what the collectors record.
#: Cache entries and binary trace files carrying a different version are
#: rejected loudly and regenerated.
TRACE_SCHEMA_VERSION = 1

#: ``_UNKNOWN_CODE[code]`` is True for every ``prim`` byte that names no
#: primitive.
_UNKNOWN_CODE = np.ones(256, dtype=bool)
_UNKNOWN_CODE[list(CODE_TO_PRIMITIVE)] = False

_MAX_PHASES = np.iinfo(np.uint16).max + 1


def compile_trace(trace: GCTrace) -> GCTrace:
    """Seal ``trace``: its recorded rows and column blocks become one
    :data:`EVENT_DTYPE` array, in recording order, and are dropped.
    Returns the trace; a sealed trace is returned unchanged."""
    rows = trace._rows
    if rows is not None:
        if len(trace._phase_ids) > _MAX_PHASES:
            raise ConfigError("trace has too many distinct phases "
                              "for the columnar schema")
        parts, start = [], 0
        for at, block in trace._blocks:
            parts += [np.array(rows[start:at], dtype=EVENT_DTYPE), block]
            start = at
        events = np.array(rows[start:], dtype=EVENT_DTYPE)
        if parts:
            events = np.concatenate(parts + [events])
        trace._seal(events, tuple(trace._phase_ids))
    return trace


def trace_from_columns(kind: str, heap_bytes: int, events: np.ndarray,
                       phase_names: Sequence[str],
                       residuals: Optional[Dict[str, ResidualWork]] = None,
                       source: str = "trace", **stats: int) -> GCTrace:
    """A sealed trace holding ``events`` as its columns.

    Every replayer indexes primitives by code and phase names by id, so
    columns are checked here, once, for every reader: the dtype, every
    ``prim`` code, every ``phase`` id, and the stats names.  ``source``
    names the columns' origin in the :class:`ConfigError`.
    """
    trace = GCTrace(kind, heap_bytes=heap_bytes)
    if events.dtype != EVENT_DTYPE:
        raise ConfigError(
            f"{source} event layout does not match schema "
            f"v{TRACE_SCHEMA_VERSION}; regenerate the trace")
    present = np.bincount(events["prim"], minlength=256) > 0
    unknown = np.flatnonzero(present & _UNKNOWN_CODE)
    if len(unknown):
        raise ConfigError(
            f"{source} has unknown primitive code {int(unknown[0])}; "
            f"regenerate the trace")
    phase_names = tuple(phase_names)
    if len(events) and int(events["phase"].max()) >= len(phase_names):
        raise ConfigError(
            f"{source} has phase id {int(events['phase'].max())} but "
            f"{len(phase_names)} phase names; regenerate the trace")
    for name in STAT_FIELDS:
        setattr(trace, name, int(stats.pop(name, 0)))
    if stats:
        raise ConfigError(f"unknown trace stats {sorted(stats)}")
    trace.residuals = dict(residuals or {})
    trace._seal(events, phase_names)
    return trace
