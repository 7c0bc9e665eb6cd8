"""One persistent store for everything a sweep keeps on disk.

Captured traces, stage-1 replay products and shard results are each a
*namespace* of content-addressed entries ``<64-hex key><suffix>``:
:data:`TRACES` (``.npz``, :mod:`.trace_cache`), :data:`STAGE1`
(``.stage1.npz``, :mod:`.stage1_cache`), :data:`SHARDS`
(``.shard.json``, :mod:`.shard_journal`) and :data:`NATIVE`
(``.stage2.so``, :mod:`repro.platform.native`).  Those modules own
their keys and codecs; this one owns the mechanics.  The two caches
share the ``REPRO_TRACE_CACHE`` directory and the
``REPRO_TRACE_CACHE_REQUIRE`` knob, and the compiled loop lives there
too; journal results are resume state for one sweep, not a cache, and
live in the sweep's ``REPRO_SHARD_JOURNAL`` directory.

Persistent state is an accelerator, never a dependency, so every fault
degrades to recompute: :func:`read` discards a stale, torn or foreign
entry (warn, delete, count ``stale``, miss), and a :func:`write` that
fails with ``OSError`` (disk full, read-only or forbidden directory)
removes its temp file, warns, emits one ``fallback`` event naming the
namespace and leaves the caller going uncached.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import re
import threading
import warnings
import zipfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TypeVar, Union

from repro.config import TRACE_CACHE_ENV, TRACE_CACHE_REQUIRE_ENV
from repro.errors import ConfigError, ReproError
from repro.obs.eventlog import get_eventlog

#: What any codec raises decoding a stale, torn or foreign entry.
STALE_ERRORS = (ConfigError, KeyError, TypeError, ValueError, OSError,
                zipfile.BadZipFile)

PathLike = Union[str, Path]
T = TypeVar("T")


class CacheStats:
    """A cumulative tally, safe across threads *and* forked workers:
    each field is a ``multiprocessing.Value`` in fork-shared memory
    under one shared lock, so increments from ``replay_grid`` pool
    workers land in the tally the parent reports."""

    def __init__(self, fields: Sequence[str]) -> None:
        self._lock = multiprocessing.RLock()
        self._values = {name: multiprocessing.Value("q", 0, lock=False)
                        for name in fields}

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._values[name].value += amount

    def __getitem__(self, name: str) -> int:
        return int(self._values[name].value)

    def reset(self) -> None:
        with self._lock:
            for value in self._values.values():
                value.value = 0

    def snapshot(self) -> Dict[str, int]:
        """A consistent point-in-time copy of the tally."""
        with self._lock:
            return {name: int(value.value)
                    for name, value in self._values.items()}


class CacheMiss(ReproError):
    """A cache entry was required (``require``) but none was stored."""


class Namespace:
    """One kind of entry: the files ``<64-hex key><suffix>`` of a
    directory, with its own tally and one-line summary."""

    def __init__(self, name: str, suffix: str, noun: str,
                 fields: Sequence[str], line: str) -> None:
        self.name = name
        self.suffix = suffix
        self.noun = noun
        self.line = line
        self.stats = CacheStats(fields)
        self._entry = re.compile("[0-9a-f]{64}" + re.escape(suffix))

    def path(self, directory: PathLike, key: str) -> Path:
        return Path(directory) / f"{key}{self.suffix}"

    def entries(self, directory: Optional[PathLike]) -> List[Path]:
        """This namespace's entries in ``directory``, sorted by name."""
        if directory is None or not Path(directory).is_dir():
            return []
        return sorted(path for path in Path(directory).iterdir()
                      if self._entry.fullmatch(path.name))

    def clear(self, directory: Optional[PathLike]) -> int:
        """Delete this namespace's entries; returns how many."""
        found = self.entries(directory)
        for path in found:
            path.unlink(missing_ok=True)
        return len(found)

    def stats_line(self) -> str:
        """One-line tally summary, e.g. for a session footer."""
        return self.line.format(**self.stats.snapshot())


TRACES = Namespace(
    "trace_cache", ".npz", "trace-cache",
    ("hits", "misses", "stale", "stores", "generated"),
    "trace cache: {hits} hit(s), {misses} miss(es), {stale} stale, "
    "{stores} store(s), {generated} run(s) generated")

STAGE1 = Namespace(
    "stage1_cache", ".stage1.npz", "stage1-cache",
    ("hits", "misses", "stale", "stores"),
    "stage-1 cache: {hits} hit(s), {misses} miss(es), {stale} stale, "
    "{stores} store(s)")

#: ``hits``: shards resumed without re-execution; ``stolen``: claim
#: races lost to another worker.
SHARDS = Namespace(
    "shard_journal", ".shard.json", "shard",
    ("hits", "runs", "stolen", "stale", "stores"),
    "shard journal: {hits} resumed, {runs} executed, {stolen} stolen, "
    "{stale} stale, {stores} stored")

#: The compiled stage-2 loop (:mod:`repro.platform.native`): a build
#: product beside the caches, not a cache of results, so ``repro cache
#: clear`` leaves it.  ``builds``: compilations in this process tree.
NATIVE = Namespace(
    "stage2_native", ".stage2.so", "compiled-kernel",
    ("hits", "builds", "stale", "stores"),
    "compiled stage 2: {hits} hit(s), {builds} build(s), {stale} stale, "
    "{stores} store(s)")

#: The namespaces of the one cache directory.
CACHES = (TRACES, STAGE1)


def resolve(directory: Optional[PathLike] = None,
            env: str = TRACE_CACHE_ENV) -> Optional[Path]:
    """The directory: an explicit argument beats the environment
    variable ``env``; ``None`` means the store is off."""
    if directory is None:
        directory = os.environ.get(env) or None
    return None if directory is None else Path(directory)


def write(namespace: Namespace, directory: PathLike, key: str,
          encode: Callable[[Path], object]) -> Optional[Path]:
    """Atomically store one entry (``encode(temp)`` writes a sibling
    temp file that is renamed into place, so concurrent writers cannot
    tear it); returns its path, or ``None`` when the write failed."""
    path = namespace.path(directory, key)
    temp = path.with_name(
        f"{path.name}.tmp{os.getpid():x}_{threading.get_ident():x}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        encode(temp)
        os.replace(temp, path)
    except OSError as exc:
        warnings.warn(f"not storing {namespace.noun} entry {path.name}: "
                      f"{exc}", stacklevel=3)
        eventlog = get_eventlog()
        if eventlog.enabled:
            eventlog.emit("fallback", namespace=namespace.name,
                          to="uncached", key=key[:12], error=str(exc))
        return None
    finally:
        with contextlib.suppress(OSError):
            temp.unlink(missing_ok=True)
    namespace.stats.add("stores")
    return path


def read(namespace: Namespace, directory: PathLike, key: str,
         decode: Callable[[Path], T]) -> Optional[T]:
    """Fetch one entry through ``decode``, or ``None``.  A stale, torn
    or foreign entry warns, is deleted, and reads as a miss."""
    path = namespace.path(directory, key)
    if not path.exists():
        return None
    try:
        return decode(path)
    except STALE_ERRORS as exc:
        warnings.warn(f"discarding stale {namespace.noun} entry "
                      f"{path.name}: {exc}", stacklevel=3)
        namespace.stats.add("stale")
        with contextlib.suppress(OSError):
            path.unlink(missing_ok=True)
        return None


def fetch(namespace: Namespace, key: str,
          load: Callable[[Path, str], Optional[T]],
          produce: Callable[[], T],
          save: Callable[[Path, str, T], T],
          directory: Optional[PathLike] = None,
          require: Optional[bool] = None, **label: object) -> T:
    """Read-through/write-through: ``load(directory, key)`` or, on a
    miss, ``save(directory, key, produce())`` — which returns what the
    caller gets.  With no directory this is ``produce()``, still
    honouring ``require``.  ``label`` (``workload=``/``kernel=``) rides
    on the ``cache_hit``/``cache_miss`` events and the miss error.
    """
    directory = resolve(directory)
    if directory is not None:
        cached = load(directory, key)
        hit = cached is not None
        namespace.stats.add("hits" if hit else "misses")
        eventlog = get_eventlog()
        if eventlog.enabled:
            eventlog.emit("cache_hit" if hit else "cache_miss",
                          namespace=namespace.name, key=key[:12], **label)
        if hit:
            return cached
    if require is None:
        require = bool(os.environ.get(TRACE_CACHE_REQUIRE_ENV))
    if require:
        what = " ".join(f"{name} {value!r}" for name, value in label.items())
        raise CacheMiss(
            f"no {namespace.noun} entry for {what} (key {key[:12]}…) "
            f"and {TRACE_CACHE_REQUIRE_ENV} forbids recomputing it")
    value = produce()
    if directory is not None:
        value = save(directory, key, value)
    return value
