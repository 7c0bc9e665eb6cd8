"""Run provenance manifests: what produced an output, exactly.

Every runner/figure/benchmark output directory gets a
``*.manifest.json`` (or ``manifest.json``) describing the session that
wrote it: which workload runs it consumed, each run's **config hash**
(the very key the content-addressed trace cache stores it under, so an
output can be traced back to its cached trace set byte for byte),
whether the traces came from the cache or a fresh collector execution,
the trace schema / generator versions, the environment knobs in force
(:func:`repro.config.settings`), and host wall time.

The experiment runner reports every :func:`record_run` as it captures
or fetches a workload; :func:`write_manifest` snapshots the session
into a file.  "Distilling the Real Cost of Production Garbage
Collectors" (Cai et al., 2021) is the motivation: a reported number
without its exact provenance is not evidence.
"""

from __future__ import annotations

import json
import platform as _platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.config import settings

#: Bump when the manifest document layout changes.
MANIFEST_SCHEMA_VERSION = 1

#: Default manifest file name inside an output directory.
MANIFEST_NAME = "manifest.json"

_RUNS: List[Dict[str, Any]] = []
_EPOCH = time.perf_counter()


def record_run(workload: str, heap_bytes: int, config_hash: str,
               cache: str, host_seconds: float,
               seed: Optional[int] = None) -> Dict[str, Any]:
    """Register one workload capture/fetch with the session.

    ``cache`` is ``"hit"`` (served by the content-addressed trace
    cache) or ``"generated"`` (collectors executed).  ``config_hash``
    must be the trace-cache key of the run so manifests and cache
    entries cross-reference exactly.
    """
    if cache not in ("hit", "generated"):
        raise ValueError(f"cache must be 'hit' or 'generated', "
                         f"got {cache!r}")
    record = {
        "workload": workload,
        "heap_bytes": heap_bytes,
        "config_hash": config_hash,
        "cache": cache,
        "host_seconds": round(host_seconds, 6),
    }
    if seed is not None:
        record["seed"] = seed
    _RUNS.append(record)
    return record


def session_runs() -> List[Dict[str, Any]]:
    """The runs recorded so far in this process (copies)."""
    return [dict(record) for record in _RUNS]


def reset_session() -> None:
    """Forget the recorded runs (tests and fresh sessions)."""
    _RUNS.clear()


def build_manifest(command: Optional[str] = None,
                   outputs: Optional[List[str]] = None,
                   extra: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    """Assemble the manifest document for the current session."""
    # Function-level imports: provenance sits below the experiments
    # layer, so the version constants are pulled lazily rather than
    # creating an import cycle at module load.
    from repro.experiments.trace_cache import STATS, capture_digest
    from repro.gcalgo.columnar import TRACE_SCHEMA_VERSION

    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "trace_schema_version": TRACE_SCHEMA_VERSION,
        "capture_digest": capture_digest(),
        "python": sys.version.split()[0],
        "platform": _platform.platform(),
        "host_wall_seconds": round(time.perf_counter() - _EPOCH, 6),
        "trace_cache": dict(STATS.snapshot()),
        "settings": settings().to_dict(),
        "runs": session_runs(),
    }
    if command is not None:
        manifest["command"] = command
    if outputs is not None:
        manifest["outputs"] = list(outputs)
    if extra:
        manifest.update(extra)
    return manifest


def manifest_path(directory: Union[str, Path],
                  name: str = MANIFEST_NAME) -> Path:
    return Path(directory) / name


def write_manifest(directory: Union[str, Path],
                   name: str = MANIFEST_NAME,
                   command: Optional[str] = None,
                   outputs: Optional[List[str]] = None,
                   extra: Optional[Dict[str, Any]] = None) -> Path:
    """Write the session manifest into ``directory``; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = manifest_path(directory, name)
    document = build_manifest(command=command, outputs=outputs,
                              extra=extra)
    path.write_text(json.dumps(document, indent=2, sort_keys=True))
    return path


def load_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    return json.loads(Path(path).read_text())


def round_trips(path: Union[str, Path]) -> bool:
    """True when the manifest file survives a load -> dump -> load."""
    first = load_manifest(path)
    second = json.loads(json.dumps(first, sort_keys=True))
    return first == second
