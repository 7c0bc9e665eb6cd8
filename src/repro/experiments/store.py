"""One persistent store for everything a sweep keeps on disk.

Each kind of entry is a *namespace* of content-addressed files
``<64-hex key><suffix>``: captured traces are :data:`TRACES` (``.npz``,
:mod:`.trace_cache`) and the compiled kernel library is :data:`NATIVE`
(``.stage2.so``, :mod:`repro.platform.native`).  Those modules own
their keys and codecs; this one owns the mechanics.  Both share the
``REPRO_TRACE_CACHE`` directory.

Persistent state is an accelerator, never a dependency, so every fault
degrades to recompute: :func:`read` discards a stale, torn or foreign
entry (warn, delete, count ``stale``, miss), and a :func:`write` that
fails with ``OSError`` (disk full, read-only or forbidden directory)
removes its temp file, warns, counts the namespace's ``fallbacks``
and leaves the caller going uncached.
"""

from __future__ import annotations

import contextlib
import os
import re
import threading
import warnings
import zipfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TypeVar, Union

from repro.config import settings
from repro.errors import ConfigError
from repro.obs.metrics import global_metrics

#: What any codec raises decoding a stale, torn or foreign entry.
STALE_ERRORS = (ConfigError, KeyError, TypeError, ValueError, OSError,
                zipfile.BadZipFile)

PathLike = Union[str, Path]
T = TypeVar("T")


class Tally:
    """A namespace's cumulative tally: the ``<namespace>.<field>``
    counters of the global metrics registry.  Increments made in pool
    workers reach the parent with the worker's telemetry delta (see
    ``runner._fan_out``)."""

    def __init__(self, namespace: str, fields: Sequence[str]) -> None:
        self.namespace = namespace
        self.fields = tuple(fields)

    def _name(self, field: str) -> str:
        if field not in self.fields:
            raise KeyError(field)
        return f"{self.namespace}.{field}"

    def add(self, field: str, amount: int = 1) -> None:
        global_metrics().add(self._name(field), amount)

    def __getitem__(self, field: str) -> int:
        return int(global_metrics().counter(self._name(field)).value)

    def reset(self) -> None:
        for field in self.fields:
            global_metrics().counter(self._name(field)).reset()

    def snapshot(self) -> Dict[str, int]:
        """Every field's count (registering the zero ones)."""
        return {field: self[field] for field in self.fields}


class Namespace:
    """One kind of entry: the files ``<64-hex key><suffix>`` of a
    directory, with its own tally and one-line summary.  Every tally
    has a ``fallbacks`` field: the failed writes that left the caller
    going without the file."""

    def __init__(self, name: str, suffix: str, noun: str,
                 fields: Sequence[str], line: str) -> None:
        self.name = name
        self.suffix = suffix
        self.noun = noun
        self.line = line
        self.stats = Tally(name, (*fields, "fallbacks"))
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

#: The compiled kernel library (:mod:`repro.platform.native`): a build
#: product beside the trace entries, not a cache of results, so ``repro
#: cache clear`` leaves it.  ``builds``: compilations in this process tree.
NATIVE = Namespace(
    "stage2_native", ".stage2.so", "compiled-kernel",
    ("hits", "builds", "stale", "stores"),
    "compiled stage 2: {hits} hit(s), {builds} build(s), {stale} stale, "
    "{stores} store(s)")


def resolve(directory: Optional[PathLike] = None) -> Optional[Path]:
    """The directory: an explicit argument beats ``REPRO_TRACE_CACHE``;
    ``None`` means the store is off."""
    if directory is None:
        directory = settings().trace_cache
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
        namespace.stats.add("fallbacks")
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
          directory: Optional[PathLike] = None) -> T:
    """Read-through/write-through: ``load(directory, key)`` or, on a
    miss, ``save(directory, key, produce())`` — which returns what the
    caller gets.  With no directory this is ``produce()``.
    """
    directory = resolve(directory)
    if directory is not None:
        cached = load(directory, key)
        hit = cached is not None
        namespace.stats.add("hits" if hit else "misses")
        if hit:
            return cached
    value = produce()
    if directory is not None:
        value = save(directory, key, value)
    return value
