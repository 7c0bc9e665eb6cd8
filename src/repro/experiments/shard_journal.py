"""Sharded, resumable sweep journal: every grid cell is a durable shard.

:func:`repro.experiments.runner.replay_grid` decomposes a platform x
workload sweep into *shards* — one per grid cell, keyed by the same
parameters as the in-process replay memo.  With a journal directory
configured (``REPRO_SHARD_JOURNAL`` or an explicit ``journal=``), each
shard's :class:`~repro.platform.timing.GCTimingResult` is persisted as
an atomically-renamed JSON file the moment it finishes, so

* an **interrupted sweep resumes**: on the next run, completed shards
  load from the journal (counted in :data:`STATS` as ``hits``) and only
  the missing cells execute — the merged grid is byte-identical to an
  uninterrupted sweep because JSON round-trips every int exactly and
  every float through its shortest-repr form;
* **workers steal work** instead of receiving a static partition: each
  forked worker walks the full shard list and claims cells with
  ``O_CREAT | O_EXCL`` claim files, so a slow shard never idles the
  rest of the pool and two workers never replay the same cell;
* a **torn entry is harmless**: the atomic rename means a crash
  mid-write leaves only a temp file; an unreadable or version-skewed
  entry is deleted and re-executed (``stale``), never half-read.

Claim files coordinate the workers of *one* sweep; the parent clears
leftovers (:func:`reset_claims`) before fanning out, so a crashed
sweep's orphaned claims cannot block the resume.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.config import SHARD_JOURNAL_ENV
from repro.experiments.trace_cache import CacheStats
from repro.gcalgo.trace import Primitive
from repro.obs.eventlog import get_eventlog
from repro.platform.timing import GCTimingResult, PlatformEnergy

#: Bump when the journal payload layout changes; skewed entries are
#: discarded and re-executed, never misread.
SHARD_FORMAT_VERSION = 1

SHARD_FORMAT = "repro-shard-result"

#: Environment variable naming the journal directory (unset = off).
REPRO_SHARD_JOURNAL = SHARD_JOURNAL_ENV


class ShardStats(CacheStats):
    """Fork-shared tally of journal behaviour.

    ``hits`` — shards served from the journal without re-execution
    (the crash/resume tests use this as the no-rework witness);
    ``runs`` — shards actually executed; ``stolen`` — claim races lost
    to another worker; ``stale`` — discarded unreadable/skewed entries;
    ``stores`` — journal writes.
    """

    FIELDS = ("hits", "runs", "stolen", "stale", "stores")


#: Cumulative journal behaviour for this process tree.
STATS = ShardStats()


def reset_stats() -> None:
    STATS.update(hits=0, runs=0, stolen=0, stale=0, stores=0)


def stats_line() -> str:
    """One-line summary, e.g. for a sweep footer."""
    return ("shard journal: {hits} resumed, {runs} executed, "
            "{stolen} stolen, {stale} stale, {stores} stored"
            .format(**STATS.snapshot()))


def journal_dir(directory: Union[str, Path, None] = None
                ) -> Optional[Path]:
    """Resolve the journal directory (explicit arg beats the
    environment); ``None`` means journaling is off."""
    if directory is None:
        directory = os.environ.get(REPRO_SHARD_JOURNAL) or None
    return None if directory is None else Path(directory)


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

    ``meta`` is an optional side-channel of *execution* metadata (owner
    pid, host wall time) the progress monitor reads; it never feeds
    back into the :class:`GCTimingResult`, so adding it needs no
    format-version bump — :func:`result_from_dict` reads only the
    result fields.
    """
    payload_meta = {"meta": dict(meta)} if meta else {}
    return {
        **payload_meta,
        "format": SHARD_FORMAT,
        "version": SHARD_FORMAT_VERSION,
        "platform": result.platform,
        "gc_kind": result.gc_kind,
        "wall_seconds": result.wall_seconds,
        "primitive_seconds": {
            primitive.value: seconds
            for primitive, seconds in result.primitive_seconds.items()
        },
        "residual_seconds": result.residual_seconds,
        "flush_seconds": result.flush_seconds,
        "dram_bytes": result.dram_bytes,
        "link_bytes": result.link_bytes,
        "tsv_bytes": result.tsv_bytes,
        "local_fraction": result.local_fraction,
        "bitmap_cache_hits": result.bitmap_cache_hits,
        "bitmap_cache_accesses": result.bitmap_cache_accesses,
        "energy": {
            "host_j": result.energy.host_j,
            "memory_j": result.energy.memory_j,
            "charon_j": result.energy.charon_j,
        },
        "replay_kernel": result.replay_kernel,
    }


def result_from_dict(payload: dict) -> GCTimingResult:
    """Inverse of :func:`result_to_dict`; raises on a foreign payload."""
    if payload.get("format") != SHARD_FORMAT:
        raise ValueError("not a shard result payload")
    if payload.get("version") != SHARD_FORMAT_VERSION:
        raise ValueError(
            f"shard format version {payload.get('version')}, "
            f"expected {SHARD_FORMAT_VERSION}")
    energy = payload["energy"]
    return GCTimingResult(
        platform=payload["platform"],
        gc_kind=payload["gc_kind"],
        wall_seconds=payload["wall_seconds"],
        primitive_seconds={
            Primitive(name): seconds
            for name, seconds in payload["primitive_seconds"].items()
        },
        residual_seconds=payload["residual_seconds"],
        flush_seconds=payload["flush_seconds"],
        dram_bytes=payload["dram_bytes"],
        link_bytes=payload["link_bytes"],
        tsv_bytes=payload["tsv_bytes"],
        local_fraction=payload["local_fraction"],
        bitmap_cache_hits=payload["bitmap_cache_hits"],
        bitmap_cache_accesses=payload["bitmap_cache_accesses"],
        energy=PlatformEnergy(host_j=energy["host_j"],
                              memory_j=energy["memory_j"],
                              charon_j=energy["charon_j"]),
        replay_kernel=payload["replay_kernel"],
    )


# -- the journal on disk ---------------------------------------------------

def _result_path(directory: Path, key: str) -> Path:
    return directory / f"{key}.shard.json"


def _claim_path(directory: Path, key: str) -> Path:
    return directory / f"{key}.claim"


def store_shard(directory: Union[str, Path], key: str,
                result: GCTimingResult,
                meta: Optional[dict] = None) -> Path:
    """Persist one shard's result atomically; returns the entry path.

    ``meta`` (owner pid, host wall time, completion stamp) rides along
    in the payload for the progress monitor; resumes ignore it.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = _result_path(directory, key)
    temp = path.with_name(path.name + f".tmp{os.getpid():x}")
    temp.write_text(json.dumps(result_to_dict(result, meta=meta),
                               separators=(",", ":")))
    temp.replace(path)
    STATS.add("stores")
    return path


def has_shard(directory: Union[str, Path], key: str) -> bool:
    """Whether the journal already holds a (possibly stale) entry."""
    return _result_path(Path(directory), key).exists()


def load_shard(directory: Union[str, Path],
               key: str) -> Optional[GCTimingResult]:
    """Fetch one shard from the journal.

    An unreadable or version-skewed entry warns, is deleted, and reads
    as a miss — it will simply re-execute.
    """
    path = _result_path(Path(directory), key)
    if not path.exists():
        return None
    try:
        return result_from_dict(json.loads(path.read_text()))
    except (ValueError, KeyError, TypeError, OSError) as exc:
        warnings.warn(f"discarding stale shard entry {path.name}: "
                      f"{exc}", stacklevel=2)
        STATS.add("stale")
        path.unlink(missing_ok=True)
        return None


def claim_shard(directory: Union[str, Path], key: str) -> bool:
    """Atomically claim a shard for this worker.

    ``O_CREAT | O_EXCL`` makes the filesystem the arbiter: exactly one
    concurrent claimant wins.  Returns False when another worker
    already holds (or finished) the shard.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    try:
        fd = os.open(_claim_path(directory, key),
                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w") as handle:
        # Owner info for the progress monitor ("who holds this shard,
        # since when"); the claim's *existence* is what arbitrates.
        handle.write(json.dumps({"pid": os.getpid(),
                                 "claimed_at": round(time.time(), 6)}))
    return True


def release_claim(directory: Union[str, Path], key: str) -> None:
    _claim_path(Path(directory), key).unlink(missing_ok=True)


def reset_claims(directory: Union[str, Path, None] = None) -> int:
    """Remove leftover claim files (a crashed sweep's orphans);
    returns how many were removed."""
    directory = journal_dir(directory)
    if directory is None or not directory.exists():
        return 0
    removed = 0
    for path in directory.glob("*.claim"):
        path.unlink(missing_ok=True)
        removed += 1
    return removed


def clear(directory: Union[str, Path, None] = None) -> int:
    """Delete every journal entry and claim; returns how many."""
    directory = journal_dir(directory)
    if directory is None or not directory.exists():
        return 0
    removed = 0
    for pattern in ("*.shard.json", "*.claim"):
        for path in directory.glob(pattern):
            path.unlink(missing_ok=True)
            removed += 1
    return removed


def sweep_shards(directory: Union[str, Path],
                 shards: Dict[str, object],
                 execute: Callable[[object], GCTimingResult]) -> None:
    """One worker's work-stealing pass over ``shards``.

    ``shards`` maps shard key -> job.  The worker walks the whole list:
    a journaled shard is skipped, an unclaimed one is claimed, executed
    and stored, a lost claim race is counted as ``stolen`` and left to
    its winner.  Called concurrently from every pool worker (and once
    from the parent as the serial path / completeness backstop).

    Each store carries execution metadata (owner pid, host seconds)
    and, when a ``sweep.json`` manifest announces a monitored sweep,
    re-derives ``progress.json`` so watchers see the shard land.
    Claims and completions also land in the run-event log when armed.
    """
    from repro.experiments import progress as progress_mod
    directory = Path(directory)
    eventlog = get_eventlog()
    if not eventlog.enabled:
        eventlog = None
    monitored = (directory / progress_mod.SWEEP_MANIFEST).exists()
    for key, job in shards.items():
        if _result_path(directory, key).exists():
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
            store_shard(directory, key, result, meta={
                "pid": os.getpid(),
                "host_seconds": round(host_seconds, 6),
                "completed_at": round(time.time(), 6),
            })
            if eventlog:
                eventlog.emit("shard_done", shard=key,
                              platform=result.platform,
                              host_seconds=round(host_seconds, 6))
            if monitored:
                progress_mod.refresh_progress(directory)
        finally:
            release_claim(directory, key)
