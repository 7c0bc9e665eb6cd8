"""Content-addressed cache of stage-1 replay products.

The batched replay kernels (:mod:`repro.platform.batched`) split every
replay into a trace-pure numpy precompute (**stage 1**) and the
order-dependent recurrence (**stage 2**).  Stage-1 products are pure
functions of the compiled trace and a small, hashable parameter key,
so this module persists them beside the captured traces and a warm
sweep skips stage-1 precompute entirely.

Entries are keyed by a hash of exactly the inputs that determine the
arrays:

* the **compiled-trace content** (kind, heap size, phase names and the
  raw event columns — see :func:`trace_content_key`),
* the **kernel product id and its parameter key** (e.g. the host-cost
  constants ``host_event_columns`` prices with),
* :data:`~repro.gcalgo.columnar.TRACE_SCHEMA_VERSION` and
  :data:`STAGE1_SCHEMA_VERSION` (the array layouts).

Entries are the store's ``stage1_cache`` namespace
(``<sha256>.stage1.npz``); see :mod:`repro.experiments.store`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.experiments import store
from repro.gcalgo.columnar import CompiledTrace, TRACE_SCHEMA_VERSION

#: Bump when the stored array tuples change meaning or layout for the
#: same trace/kernel/parameters, so older entries are regenerated.
STAGE1_SCHEMA_VERSION = 1

#: Cumulative cache behaviour for this process tree.
STATS = store.STAGE1.stats


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


def _decode(path: Path) -> Tuple[np.ndarray, ...]:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("stage1") != STAGE1_SCHEMA_VERSION:
            raise ValueError(f"stage-1 schema {meta.get('stage1')} != "
                             f"{STAGE1_SCHEMA_VERSION}")
        return tuple(data[f"a{i}"] for i in range(int(meta["count"])))


def save(directory: Union[str, Path], key: str,
         arrays: Sequence[np.ndarray]) -> Optional[Path]:
    """Store a product's array tuple under ``key`` (see
    :func:`repro.experiments.store.write`)."""
    members = {f"a{i}": np.ascontiguousarray(array)
               for i, array in enumerate(arrays)}
    meta = json.dumps({"stage1": STAGE1_SCHEMA_VERSION,
                       "count": len(members)})

    def encode(temp: Path) -> None:
        # A handle, not a name: np.savez appends ".npz" to bare names.
        with open(temp, "wb") as handle:
            np.savez(handle, meta=np.array(meta), **members)

    return store.write(store.STAGE1, directory, key, encode)


def load(directory: Union[str, Path],
         key: str) -> Optional[Tuple[np.ndarray, ...]]:
    """Fetch ``key``'s array tuple, or ``None`` (also for a stale or
    unreadable entry)."""
    return store.read(store.STAGE1, directory, key, _decode)


def fetch(compiled: CompiledTrace, kernel_id: str, params: Sequence,
          produce: Callable[[], Sequence[np.ndarray]],
          directory: Union[str, Path, None] = None,
          require: Optional[bool] = None) -> Tuple[np.ndarray, ...]:
    """A product's array tuple: from disk on a hit, from ``produce()``
    (then stored) on a miss; see :func:`repro.experiments.store.fetch`.
    The per-trace memo in ``batched.py`` sits in front of this, so a
    process pays at most one disk read per (trace, product).
    """
    def stored(directory: Path, key: str, arrays: tuple) -> tuple:
        save(directory, key, arrays)
        return arrays

    return store.fetch(
        store.STAGE1,
        product_key(trace_content_key(compiled), kernel_id, params),
        load, lambda: tuple(np.asarray(array) for array in produce()),
        stored, directory, require, kernel=kernel_id)
