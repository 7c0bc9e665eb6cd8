"""Sharded, resumable sweep journal: every grid cell is a durable shard.

:func:`repro.experiments.runner.replay_grid` decomposes a platform x
workload sweep into *shards* — one per grid cell, keyed by the same
parameters as the in-process replay memo.  With a journal directory
configured (``REPRO_SHARD_JOURNAL`` or an explicit ``journal=``), each
shard's :class:`~repro.platform.timing.GCTimingResult` persists the
moment it finishes as an entry of the store's ``shard_journal``
namespace (``<sha256>.shard.json``, see :mod:`repro.experiments.store`),
so

* an **interrupted sweep resumes**: on the next run, completed shards
  load from the journal (counted in :data:`STATS` as ``hits``) and only
  the missing cells execute — the merged grid is byte-identical to an
  uninterrupted sweep because JSON round-trips every int exactly and
  every float through its shortest-repr form;
* **workers steal work** instead of receiving a static partition: each
  forked worker walks the full shard list and claims cells with
  ``O_CREAT | O_EXCL`` claim files, so a slow shard never idles the
  rest of the pool and two workers never replay the same cell;
* a **torn or unwritten entry is harmless**: an unreadable or
  version-skewed entry is discarded (``stale``) and re-executed, and a
  result whose write fails is replayed by the sweep's parent.

Claim files coordinate the workers of *one* sweep; the parent clears
leftovers (:func:`reset_claims`) before fanning out, so a crashed
sweep's orphaned claims cannot block the resume.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import time
import warnings
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.config import SHARD_JOURNAL_ENV
from repro.experiments import store
from repro.gcalgo.trace import Primitive
from repro.obs.eventlog import get_eventlog
from repro.platform.timing import GCTimingResult, PlatformEnergy

#: Bump when the journal payload layout changes; skewed entries are
#: discarded and re-executed, never misread.
SHARD_FORMAT_VERSION = 1

SHARD_FORMAT = "repro-shard-result"

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

def _claim_path(directory: Path, key: str) -> Path:
    return directory / f"{key}.claim"


def store_shard(directory: Union[str, Path], key: str,
                result: GCTimingResult,
                meta: Optional[dict] = None) -> Optional[Path]:
    """Persist one shard's result atomically; returns the entry path,
    or ``None`` when the write failed (the shard then re-executes).

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


def claim_shard(directory: Union[str, Path], key: str) -> bool:
    """Atomically claim a shard for this worker.

    ``O_CREAT | O_EXCL`` makes the filesystem the arbiter: exactly one
    concurrent claimant wins.  Returns False when another worker
    already holds (or finished) the shard.  A journal that cannot hold
    the claim file (disk full, read-only or forbidden directory) does
    not stop the sweep: the failure warns, emits one ``fallback`` event
    naming the journal, and the shard is computed unclaimed (True).
    """
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd = os.open(_claim_path(directory, key),
                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError as exc:
        return _claim_failed(directory, key, exc)
    # Owner info for the progress monitor ("who holds this shard, since
    # when"); the claim's *existence* is what arbitrates, so a failed
    # write leaves the claim held.
    with contextlib.suppress(OSError), os.fdopen(fd, "w") as handle:
        handle.write(json.dumps({"pid": os.getpid(),
                                 "claimed_at": round(time.time(), 6)}))
    return True


def _claim_failed(directory: Path, key: str, exc: OSError) -> bool:
    warnings.warn(f"cannot claim shard {key[:12]} in journal "
                  f"{directory}: {exc}; computing it unclaimed",
                  stacklevel=3)
    eventlog = get_eventlog()
    if eventlog.enabled:
        eventlog.emit("fallback", namespace=store.SHARDS.name,
                      journal=str(directory), to="unclaimed",
                      key=key[:12], error=str(exc))
    return True


def release_claim(directory: Union[str, Path], key: str) -> None:
    _claim_path(Path(directory), key).unlink(missing_ok=True)


def reset_claims(directory: Union[str, Path, None] = None) -> int:
    """Remove leftover claim files (a crashed sweep's orphans);
    returns how many were removed."""
    directory = journal_dir(directory)
    claims = list(directory.glob("*.claim")) if directory else []
    for path in claims:
        path.unlink(missing_ok=True)
    return len(claims)


def clear(directory: Union[str, Path, None] = None) -> int:
    """Delete every journal entry and claim; returns how many."""
    directory = journal_dir(directory)
    return store.SHARDS.clear(directory) + reset_claims(directory)


def sweep_shards(directory: Union[str, Path],
                 shards: Dict[str, object],
                 execute: Callable[[object], GCTimingResult]) -> None:
    """One worker's work-stealing pass over ``shards``.

    ``shards`` maps shard key -> job.  The worker walks the whole list:
    a journaled shard is skipped, an unclaimed one is claimed, executed
    and stored (with owner pid and host seconds for the progress
    monitor), a lost claim race is counted as ``stolen`` and left to
    its winner.  Called concurrently from every pool worker (and once
    from the parent as the serial path / completeness backstop).  A
    monitored sweep (``sweep.json`` present) re-derives
    ``progress.json`` after each store.
    """
    from repro.experiments import progress as progress_mod
    directory = Path(directory)
    eventlog = get_eventlog()
    if not eventlog.enabled:
        eventlog = None
    monitored = (directory / progress_mod.SWEEP_MANIFEST).exists()
    for key, job in shards.items():
        if has_shard(directory, key):
            continue
        if not claim_shard(directory, key):
            STATS.add("stolen")
            continue
        if eventlog:
            eventlog.emit("shard_claimed", shard=key)
        try:
            started = time.perf_counter()
            result = execute(job)
            host_seconds = time.perf_counter() - started
            STATS.add("runs")
            stored = store_shard(directory, key, result, meta={
                "pid": os.getpid(),
                "host_seconds": round(host_seconds, 6),
                "completed_at": round(time.time(), 6),
            })
            if eventlog and stored:
                eventlog.emit("shard_done", shard=key,
                              platform=result.platform,
                              host_seconds=round(host_seconds, 6))
            if monitored:
                progress_mod.refresh_progress(directory)
        finally:
            release_claim(directory, key)
