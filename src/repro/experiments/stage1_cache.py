"""Content-addressed on-disk cache of stage-1 replay products.

The batched replay kernels (:mod:`repro.platform.batched`) split every
replay into a trace-pure numpy precompute (**stage 1**) and the
order-dependent recurrence (**stage 2**).  Stage-1 products are pure
functions of the compiled trace and a small, hashable parameter key —
the same arrays are recomputed by every fresh process of a sweep, every
worker of a pool, and every repeat of a benchmark.  This module
persists them beside the trace cache so a warm sweep skips stage-1
precompute entirely.

Entries are keyed by a hash of exactly the inputs that determine the
arrays:

* the **compiled-trace content** (kind, heap size, phase names and the
  raw event columns — see :func:`trace_content_key`),
* the **kernel product id and its parameter key** (e.g. the host-cost
  constants ``host_event_columns`` prices with),
* :data:`~repro.gcalgo.columnar.TRACE_SCHEMA_VERSION` and
  :data:`STAGE1_SCHEMA_VERSION` (the array layouts).

Entries are ``<sha256>.stage1.npz`` files written atomically, so
concurrent sweep processes can share a directory (it may be the trace
cache directory; the distinct suffix keeps the two namespaces apart).
A stale entry is rejected loudly, deleted, and regenerated.  The cache
lives wherever :data:`REPRO_STAGE1_CACHE` points (or an explicit
``directory=``); without either, :func:`fetch` just runs the producer.

Set :data:`REPRO_STAGE1_CACHE_REQUIRE` (or ``require=True``) to turn a
miss into a hard :class:`Stage1CacheMiss` — ``bench_sweep`` uses this
shape of guarantee to prove a warm repeat sweep recomputes nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
import zipfile
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import STAGE1_CACHE_ENV, STAGE1_CACHE_REQUIRE_ENV
from repro.errors import ReproError
from repro.experiments.trace_cache import CacheStats
from repro.gcalgo.columnar import CompiledTrace, TRACE_SCHEMA_VERSION
from repro.obs.eventlog import get_eventlog

#: Bump when the stored array tuples change meaning or layout for the
#: same trace/kernel/parameters, so older entries are regenerated.
STAGE1_SCHEMA_VERSION = 1

#: Environment variable naming the cache directory (unset = no cache).
REPRO_STAGE1_CACHE = STAGE1_CACHE_ENV

#: Environment variable: any non-empty value makes a miss an error.
REPRO_STAGE1_CACHE_REQUIRE = STAGE1_CACHE_REQUIRE_ENV


class Stage1Stats(CacheStats):
    """Fork-shared tally of stage-1 cache behaviour (worker processes
    of a sweep pool report into the same counters the parent prints)."""

    FIELDS = ("hits", "misses", "stale", "stores")


#: Cumulative cache behaviour for this process tree.
STATS = Stage1Stats()


class Stage1CacheMiss(ReproError):
    """Required a cached stage-1 product (``require``) but none was
    stored."""


def reset_stats() -> None:
    STATS.update(hits=0, misses=0, stale=0, stores=0)


def stats_line() -> str:
    """One-line summary, e.g. for a benchmark session footer."""
    return ("stage-1 cache: {hits} hit(s), {misses} miss(es), "
            "{stale} stale, {stores} store(s)".format(**STATS.snapshot()))


def cache_dir(directory: Union[str, Path, None] = None) -> Optional[Path]:
    """Resolve the cache directory (explicit arg beats the environment);
    ``None`` means caching is disabled."""
    if directory is None:
        directory = os.environ.get(REPRO_STAGE1_CACHE) or None
    return None if directory is None else Path(directory)


def trace_content_key(compiled: CompiledTrace) -> str:
    """Content hash of a compiled trace (memoized on the trace).

    Hashes the trace *content* — kind, heap size, phase names, schema
    version, and the raw bytes of the event columns — so the key is
    stable across processes, machines and codecs: the same captured
    trace loaded from the trace cache, streamed from a chunked file, or
    inherited by a forked worker resolves to the same stage-1 entries.
    """
    key = compiled.__dict__.get("_content_key")
    if key is None:
        head = json.dumps({
            "kind": compiled.kind,
            "heap_bytes": compiled.heap_bytes,
            "phases": list(compiled.phase_names),
            "schema": TRACE_SCHEMA_VERSION,
        }, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(head.encode())
        digest.update(b"\x00")
        digest.update(np.ascontiguousarray(compiled.events).tobytes())
        key = compiled.__dict__["_content_key"] = digest.hexdigest()
    return key


def product_key(trace_key: str, kernel_id: str,
                params: Sequence) -> str:
    """Entry key for one kernel product of one trace.

    ``params`` is the kernel's parameter tuple (plain scalars);
    ``repr`` canonicalizes each element the same way the shard journal
    canonicalizes replay keys.
    """
    payload = {
        "trace": trace_key,
        "kernel": kernel_id,
        "params": [repr(value) for value in params],
        "stage1": STAGE1_SCHEMA_VERSION,
    }
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _entry_path(directory: Path, key: str) -> Path:
    return directory / f"{key}.stage1.npz"


def store(directory: Union[str, Path], key: str,
          arrays: Sequence[np.ndarray]) -> Path:
    """Write a product's array tuple under ``key`` (atomically)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = _entry_path(directory, key)
    members = {f"a{i}": np.ascontiguousarray(array)
               for i, array in enumerate(arrays)}
    meta = json.dumps({"stage1": STAGE1_SCHEMA_VERSION,
                       "count": len(members)})
    tmp = path.with_name(path.name + f".tmp{os.getpid():x}")
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, meta=np.array(meta), **members)
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)
    STATS.add("stores")
    return path


def load(directory: Union[str, Path],
         key: str) -> Optional[Tuple[np.ndarray, ...]]:
    """Fetch ``key``'s array tuple, or ``None``.  A stale or unreadable
    entry warns, is deleted, and reads as a miss."""
    path = _entry_path(Path(directory), key)
    if not path.exists():
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            if meta.get("stage1") != STAGE1_SCHEMA_VERSION:
                raise ValueError(
                    f"stage-1 schema {meta.get('stage1')} != "
                    f"{STAGE1_SCHEMA_VERSION}")
            arrays = tuple(data[f"a{i}"]
                           for i in range(int(meta["count"])))
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        warnings.warn(f"discarding stale stage1-cache entry "
                      f"{path.name}: {exc}", stacklevel=2)
        STATS.add("stale")
        path.unlink(missing_ok=True)
        return None
    return arrays


def fetch(compiled: CompiledTrace, kernel_id: str, params: Sequence,
          produce: Callable[[], Sequence[np.ndarray]],
          directory: Union[str, Path, None] = None,
          require: Optional[bool] = None) -> Tuple[np.ndarray, ...]:
    """The read-through/write-through entry point.

    Returns the product's array tuple — from disk on a hit, from
    ``produce()`` (then stored) on a miss.  With no cache directory
    configured this degrades to calling ``produce`` (still honouring
    ``require``).  The per-trace in-memory memo in ``batched.py`` sits
    in front of this, so a process pays at most one disk read per
    (trace, product).
    """
    if require is None:
        require = bool(os.environ.get(REPRO_STAGE1_CACHE_REQUIRE))
    directory = cache_dir(directory)
    key = product_key(trace_content_key(compiled), kernel_id, params)
    eventlog = get_eventlog()
    if directory is not None:
        cached = load(directory, key)
        if cached is not None:
            STATS.add("hits")
            if eventlog.enabled:
                eventlog.emit("stage1_hit", kernel=kernel_id,
                              key=key[:12])
            return cached
        STATS.add("misses")
        if eventlog.enabled:
            eventlog.emit("stage1_miss", kernel=kernel_id,
                          key=key[:12])
    if require:
        raise Stage1CacheMiss(
            f"no cached stage-1 product for kernel {kernel_id!r} (key "
            f"{key[:12]}…) and {REPRO_STAGE1_CACHE_REQUIRE} forbids "
            f"recomputing it")
    arrays = tuple(np.asarray(array) for array in produce())
    if directory is not None:
        store(directory, key, arrays)
    return arrays


def clear(directory: Union[str, Path, None] = None) -> int:
    """Delete every cache entry; returns how many were removed."""
    directory = cache_dir(directory)
    if directory is None or not directory.exists():
        return 0
    removed = 0
    for path in directory.glob("*.stage1.npz"):
        path.unlink(missing_ok=True)
        removed += 1
    return removed
