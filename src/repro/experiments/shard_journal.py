"""Sharded, resumable sweep journal: every grid cell is a durable shard.

:func:`repro.experiments.runner.replay_grid` decomposes a platform x
workload sweep into *shards* — one per grid cell, keyed by
:func:`shard_key` over the cell's replay-memo key.  With a journal
directory configured (``REPRO_SHARD_JOURNAL`` or an explicit
``journal=``), the journal wraps each cell the way the trace cache
wraps a capture — read through before the sweep, written through as
each cell finishes (:func:`run_shard`) — and each shard's
:class:`~repro.platform.timing.GCTimingResult` persists as an entry of
the store's ``shard_journal`` namespace (``<sha256>.shard.json``, see
:mod:`repro.experiments.store`), so

* an **interrupted sweep resumes**: on the next run, completed shards
  load from the journal (counted in :data:`STATS` as ``hits``) and only
  the missing cells execute — the merged grid is byte-identical to an
  uninterrupted sweep because JSON round-trips every int exactly and
  every float through its shortest-repr form;
* a **torn or unwritten entry is harmless**: an unreadable or
  version-skewed entry is discarded (``stale``) and re-executed, and a
  result whose write fails is simply not resumed next time.

Which worker replays which cell is the worker pool's business (its
task queue hands each cell to exactly one worker).  While a cell runs,
a *running marker* ``<key>.claim`` (:func:`marker_path`) names its
process and start time for the progress monitor; nothing arbitrates
on it, the sweep's parent clears leftovers (:func:`clear_markers`) so
a crashed sweep's markers do not read as running, and a marker that
cannot be written costs only the monitor's view of that cell.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
import warnings
from pathlib import Path
from typing import Callable, Optional, Union

from repro.config import SHARD_JOURNAL_ENV
from repro.experiments import store
from repro.gcalgo.trace import Primitive
from repro.platform.timing import GCTimingResult, PlatformEnergy

#: Bump when the journal payload layout changes; skewed entries are
#: discarded and re-executed, never misread.
SHARD_FORMAT_VERSION = 1

SHARD_FORMAT = "repro-shard-result"

#: The running marker's suffix (``repro sweep status`` calls the cell
#: ``claimed`` while it exists).
_MARKER = ".claim"

#: Environment variable naming the journal directory (unset = off).
REPRO_SHARD_JOURNAL = SHARD_JOURNAL_ENV

#: Cumulative journal behaviour for this process tree (the crash/resume
#: tests use ``hits``/``runs`` as the no-rework witness).
STATS = store.SHARDS.stats


def journal_dir(directory: Union[str, Path, None] = None
                ) -> Optional[Path]:
    """Resolve the journal directory (explicit arg beats the
    environment); ``None`` means journaling is off."""
    return store.resolve(directory, REPRO_SHARD_JOURNAL)


def shard_key(parts: tuple) -> str:
    """Content hash of the parameters that determine one shard."""
    canonical = json.dumps([repr(part) for part in parts],
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# -- result payloads -------------------------------------------------------

def result_to_dict(result: GCTimingResult,
                   meta: Optional[dict] = None) -> dict:
    """A JSON-ready payload that round-trips the result exactly.

    Ints are exact in JSON and floats survive through their shortest
    repr, so ``result_from_dict(result_to_dict(r)) == r`` field for
    field — the property the byte-identical resume guarantee rests on.
    ``meta`` (owner pid, host wall time) is execution metadata for the
    progress monitor; :func:`result_from_dict` ignores it.
    """
    payload = dataclasses.asdict(result)
    payload["primitive_seconds"] = {
        primitive.value: seconds
        for primitive, seconds in result.primitive_seconds.items()}
    return {**({"meta": dict(meta)} if meta else {}),
            "format": SHARD_FORMAT, "version": SHARD_FORMAT_VERSION,
            **payload}


def result_from_dict(payload: dict) -> GCTimingResult:
    """Inverse of :func:`result_to_dict`; raises on a foreign payload."""
    if payload.get("format") != SHARD_FORMAT:
        raise ValueError("not a shard result payload")
    if payload.get("version") != SHARD_FORMAT_VERSION:
        raise ValueError(
            f"shard format version {payload.get('version')}, "
            f"expected {SHARD_FORMAT_VERSION}")
    values = {field.name: payload[field.name]
              for field in dataclasses.fields(GCTimingResult)}
    values["primitive_seconds"] = {
        Primitive(name): seconds
        for name, seconds in payload["primitive_seconds"].items()}
    values["energy"] = PlatformEnergy(**payload["energy"])
    return GCTimingResult(**values)


# -- the journal on disk ---------------------------------------------------

def marker_path(directory: Union[str, Path], key: str) -> Path:
    """The running marker of shard ``key``: ``{pid, claimed_at}``,
    present while a worker replays the cell."""
    return Path(directory) / f"{key}{_MARKER}"


def store_shard(directory: Union[str, Path], key: str,
                result: GCTimingResult,
                meta: Optional[dict] = None) -> Optional[Path]:
    """Persist one shard's result atomically; returns the entry path,
    or ``None`` when the write failed (a resumed sweep then
    re-executes the shard).

    ``meta`` (owner pid, host wall time, completion stamp) rides along
    in the payload for the progress monitor; resumes ignore it.
    """
    payload = json.dumps(result_to_dict(result, meta=meta),
                         separators=(",", ":"))
    return store.write(store.SHARDS, directory, key,
                       lambda temp: temp.write_text(payload))


def has_shard(directory: Union[str, Path], key: str) -> bool:
    """Whether the journal already holds a (possibly stale) entry."""
    return store.SHARDS.path(directory, key).exists()


def _decode(path: Path) -> GCTimingResult:
    return result_from_dict(json.loads(path.read_text()))


def load_shard(directory: Union[str, Path],
               key: str) -> Optional[GCTimingResult]:
    """Fetch one shard from the journal.

    An unreadable or version-skewed entry warns, is deleted, and reads
    as a miss — it will simply re-execute.
    """
    return store.read(store.SHARDS, directory, key, _decode)


def _mark_running(directory: Path, key: str) -> None:
    """Write the running marker; a journal that cannot hold it (disk
    full, read-only or forbidden directory) warns, counts the
    journal's ``fallbacks``, and the cell still runs."""
    try:
        directory.mkdir(parents=True, exist_ok=True)
        marker_path(directory, key).write_text(json.dumps(
            {"pid": os.getpid(), "claimed_at": round(time.time(), 6)}))
    except OSError as exc:
        warnings.warn(f"cannot mark shard {key[:12]} running in journal "
                      f"{directory}: {exc}; running it unmarked",
                      stacklevel=3)
        STATS.add("fallbacks")


def run_shard(directory: Union[str, Path], key: str,
              execute: Callable[[], GCTimingResult]) -> GCTimingResult:
    """Execute one shard and write it through to the journal.

    The running marker is up while ``execute()`` runs; the result is
    stored with its owner pid, host seconds and completion stamp for
    the progress monitor (a failed store is a store fallback, and the
    result is still returned).
    """
    directory = Path(directory)
    _mark_running(directory, key)
    try:
        started = time.perf_counter()
        result = execute()
        host_seconds = time.perf_counter() - started
        STATS.add("runs")
        store_shard(directory, key, result, meta={
            "pid": os.getpid(),
            "host_seconds": round(host_seconds, 6),
            "completed_at": round(time.time(), 6),
        })
    finally:
        marker_path(directory, key).unlink(missing_ok=True)
    return result


def clear_markers(directory: Union[str, Path, None] = None) -> int:
    """Remove leftover running markers (a crashed sweep's orphans);
    returns how many were removed."""
    directory = journal_dir(directory)
    markers = list(directory.glob(f"*{_MARKER}")) if directory else []
    for path in markers:
        path.unlink(missing_ok=True)
    return len(markers)


def clear(directory: Union[str, Path, None] = None) -> int:
    """Delete every journal entry and running marker; returns how
    many."""
    directory = journal_dir(directory)
    return store.SHARDS.clear(directory) + clear_markers(directory)
