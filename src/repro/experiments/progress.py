"""Sweep progress monitor: live shard-level state, rates, and ETA.

Layered on :mod:`repro.experiments.shard_journal`, which already makes
every grid cell durable — this module only *derives* progress from
what is on disk, so the view survives crashes and resumes for free:

* the sweep parent writes a ``sweep.json`` **manifest** beside the
  journal (:func:`write_sweep_manifest`) naming every shard of the
  current grid — key, platform, workload, heap, threads, and the
  simulated event count the throughput-weighted ETA weighs by;
* :func:`progress_snapshot` scans the journal directory and classifies
  each manifest shard as ``done`` (its journal entry exists),
  ``claimed`` (its running marker names the replaying pid, see
  :func:`~repro.experiments.shard_journal.marker_path`) or ``pending``,
  then aggregates completion % (shard- and event-weighted), per-worker
  rates from the execution metadata the journal stores with each
  result, and an ETA from this session's observed events/sec.
  ``repro sweep status``, ``repro top`` and the ``/progress`` endpoint
  of :mod:`repro.obs.live` all call it, so they read one serializer's
  output whether the sweep is alive, crashed, or finished.

The manifest goes through the store's one atomic write
(:func:`repro.experiments.store.write`): a failed write (full or
read-only journal directory) warns, counts ``sweep_progress.fallbacks``
and leaves the sweep going without it.

Because state is re-derived from the journal, killing a sweep and
resuming it continues the completion %/ETA exactly where the journal
left off — done shards count once, never twice.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.experiments import store

#: Bump when the manifest/progress payload layout changes.
PROGRESS_SCHEMA_VERSION = 1

SWEEP_MANIFEST = "sweep.json"

#: The sweep manifest, as a store entry keyed by its fixed name
#: (``sweep``) rather than a content hash.
FILES = store.Namespace("sweep_progress", ".json", "sweep-progress",
                        ("stores",), "sweep progress: {stores} store(s)")


# -- the sweep manifest ----------------------------------------------------

def write_sweep_manifest(directory: Union[str, Path],
                         shards: Dict[str, dict]) -> Optional[Path]:
    """Describe the current grid for the progress monitor.

    ``shards`` maps shard key -> ``{"platform", "workload",
    "heap_bytes", "threads", "events"}``.  ``started_at`` stamps this
    *session* — a resumed sweep rewrites the manifest, so the ETA is
    computed from the current session's throughput, not the crashed
    one's wall clock.  Returns the manifest's path, or ``None`` when
    the write failed.
    """
    text = json.dumps({
        "schema": PROGRESS_SCHEMA_VERSION,
        "started_at": round(time.time(), 6),
        "parent_pid": os.getpid(),
        "shards": shards,
    }, sort_keys=True)
    return store.write(FILES, Path(directory), "sweep",
                       lambda temp: temp.write_text(text))


def load_sweep_manifest(directory: Union[str, Path]) -> Optional[dict]:
    path = Path(directory) / SWEEP_MANIFEST
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError):
        return None
    if manifest.get("schema") != PROGRESS_SCHEMA_VERSION:
        return None
    return manifest


# -- deriving progress from the journal ------------------------------------

def _read_claim(path: Path) -> dict:
    """Owner info from a running marker (tolerates the bare-pid form)."""
    try:
        raw = path.read_text().strip()
    except OSError:
        return {}
    try:
        info = json.loads(raw)
        return info if isinstance(info, dict) else {"pid": int(info)}
    except (json.JSONDecodeError, ValueError):
        try:
            return {"pid": int(raw)}
        except ValueError:
            return {}


def _shard_result_meta(path: Path) -> dict:
    """The execution metadata stored beside a shard result."""
    try:
        payload = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError):
        return {}
    meta = payload.get("meta")
    return meta if isinstance(meta, dict) else {}


def progress_snapshot(directory: Union[str, Path, None] = None
                      ) -> dict:
    """The current sweep's progress, derived purely from disk state.

    Returns ``{"available": False}`` when no manifest exists (no sweep
    has announced itself in this journal).  Otherwise the document the
    ``/progress`` endpoint and ``repro sweep status --format json``
    share — see ``docs/OBSERVABILITY.md`` for the field reference.
    """
    from repro.experiments import shard_journal
    directory = shard_journal.journal_dir(directory)
    if directory is None:
        return {"available": False, "reason": "no journal configured"}
    manifest = load_sweep_manifest(directory)
    if manifest is None:
        return {"available": False,
                "reason": f"no {SWEEP_MANIFEST} in {directory}"}
    now = time.time()
    started_at = float(manifest.get("started_at") or now)
    shards: List[dict] = []
    done = claimed = 0
    events_total = events_done = 0
    session_events = 0
    workers: Dict[str, dict] = {}
    for key, spec in sorted(manifest.get("shards", {}).items()):
        events = int(spec.get("events") or 0)
        events_total += events
        result_path = store.SHARDS.path(directory, key)
        claim_path = shard_journal.marker_path(directory, key)
        entry = {
            "key": key,
            "platform": spec.get("platform"),
            "workload": spec.get("workload"),
            "threads": spec.get("threads"),
            "events": events,
        }
        if result_path.exists():
            done += 1
            events_done += events
            entry["state"] = "done"
            meta = _shard_result_meta(result_path)
            host_seconds = meta.get("host_seconds")
            if host_seconds is not None:
                entry["host_seconds"] = host_seconds
                if host_seconds > 0:
                    entry["events_per_sec"] = events / host_seconds
            if meta.get("pid") is not None:
                entry["pid"] = meta["pid"]
                worker = workers.setdefault(str(meta["pid"]), {
                    "shards": 0, "events": 0, "host_seconds": 0.0})
                worker["shards"] += 1
                worker["events"] += events
                worker["host_seconds"] += host_seconds or 0.0
            completed_at = meta.get("completed_at")
            if completed_at is None:
                try:
                    completed_at = result_path.stat().st_mtime
                except OSError:
                    completed_at = None
            # Only shards finished by *this* session feed the ETA —
            # resumed-from-journal shards were free, and counting
            # their events would inflate the observed rate.
            if completed_at is not None and completed_at >= started_at:
                session_events += events
        elif claim_path.exists():
            claimed += 1
            entry["state"] = "claimed"
            claim = _read_claim(claim_path)
            if claim.get("pid") is not None:
                entry["pid"] = claim["pid"]
            if claim.get("claimed_at") is not None:
                entry["running_seconds"] = round(
                    max(0.0, now - float(claim["claimed_at"])), 3)
        else:
            entry["state"] = "pending"
        shards.append(entry)
    total = len(shards)
    pending = total - done - claimed
    events_remaining = events_total - events_done
    elapsed = max(1e-9, now - started_at)
    # Throughput-weighted ETA from this session's wall-clock rate
    # (events the session completed over time it has been running).
    # Until the session completes a shard there is no rate and no ETA.
    rate = session_events / elapsed
    eta_seconds = (events_remaining / rate
                   if rate > 0.0 and events_remaining else None)
    for worker in workers.values():
        if worker["host_seconds"] > 0:
            worker["events_per_sec"] = round(
                worker["events"] / worker["host_seconds"], 1)
    return {
        "available": True,
        "schema": PROGRESS_SCHEMA_VERSION,
        "generated_at": round(now, 6),
        "started_at": started_at,
        "elapsed_seconds": round(elapsed, 3),
        "journal": str(directory),
        "shards_total": total,
        "shards_done": done,
        "shards_claimed": claimed,
        "shards_pending": pending,
        "completion_pct": round(100.0 * done / total, 2) if total
        else 100.0,
        "events_total": events_total,
        "events_done": events_done,
        "events_completion_pct": round(
            100.0 * events_done / events_total, 2) if events_total
        else 100.0,
        "events_per_sec": round(rate, 1),
        "eta_seconds": round(eta_seconds, 1)
        if eta_seconds is not None else None,
        "workers": workers,
        "shards": shards,
    }


def attach_live(directory: Union[str, Path]) -> None:
    """Point the live server's ``/progress`` at this journal (no-op
    when the server is not running)."""
    from repro.obs.live import get_live_server
    server = get_live_server()
    if not server.running:
        return
    directory = Path(directory)
    server.set_progress_provider(lambda: progress_snapshot(directory))


# -- terminal renderers ----------------------------------------------------

def _fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def _progress_bar(pct: float, width: int = 30) -> str:
    filled = int(width * pct / 100.0)
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def format_status(snapshot: dict, verbose: bool = False) -> str:
    """``repro sweep status``'s table view of a progress snapshot."""
    if not snapshot.get("available"):
        return ("no sweep progress available"
                + (f" ({snapshot['reason']})"
                   if snapshot.get("reason") else ""))
    lines = [
        f"sweep @ {snapshot['journal']}",
        "  {bar} {pct:6.2f}%  {done}/{total} shards "
        "({claimed} running, {pending} pending)".format(
            bar=_progress_bar(snapshot["completion_pct"]),
            pct=snapshot["completion_pct"],
            done=snapshot["shards_done"],
            total=snapshot["shards_total"],
            claimed=snapshot["shards_claimed"],
            pending=snapshot["shards_pending"]),
        "  events {done:,}/{total:,} ({pct:.2f}%)  "
        "rate {rate:,.0f} ev/s  elapsed {elapsed}  eta {eta}".format(
            done=snapshot["events_done"],
            total=snapshot["events_total"],
            pct=snapshot["events_completion_pct"],
            rate=snapshot["events_per_sec"],
            elapsed=_fmt_duration(snapshot["elapsed_seconds"]),
            eta=_fmt_duration(snapshot["eta_seconds"])),
    ]
    if snapshot["workers"]:
        lines.append("  workers:")
        for pid, worker in sorted(snapshot["workers"].items()):
            lines.append(
                "    pid {pid}: {shards} shards, {events:,} events"
                "{rate}".format(
                    pid=pid, shards=worker["shards"],
                    events=worker["events"],
                    rate=(f", {worker['events_per_sec']:,.0f} ev/s"
                          if "events_per_sec" in worker else "")))
    if verbose:
        for shard in snapshot["shards"]:
            marker = {"done": "+", "claimed": ">",
                      "pending": "."}[shard["state"]]
            extra = ""
            if shard["state"] == "claimed":
                extra = (f"  pid={shard.get('pid', '?')}"
                         f" {_fmt_duration(shard.get('running_seconds'))}")
            elif "events_per_sec" in shard:
                extra = f"  {shard['events_per_sec']:,.0f} ev/s"
            lines.append(
                f"  {marker} {shard['platform']}/{shard['workload']}"
                f" t={shard['threads']}{extra}")
    return "\n".join(lines)


def format_top(snapshot: dict) -> str:
    """``repro top``'s one-screen view (curses-free: redrawn whole)."""
    if not snapshot.get("available"):
        return format_status(snapshot)
    lines = [format_status(snapshot), "", "  active shards:"]
    active = [shard for shard in snapshot["shards"]
              if shard["state"] == "claimed"]
    if not active:
        lines.append("    (none)")
    for shard in active:
        lines.append(
            "    pid {pid:>7}  {cell:<40} {running}".format(
                pid=shard.get("pid", "?"),
                cell=f"{shard['platform']}/{shard['workload']}"
                     f" t={shard['threads']}",
                running=_fmt_duration(shard.get("running_seconds"))))
    recent = [shard for shard in snapshot["shards"]
              if shard["state"] == "done"][-5:]
    if recent:
        lines.append("  recently finished:")
        for shard in recent:
            rate = (f"{shard['events_per_sec']:,.0f} ev/s"
                    if "events_per_sec" in shard else "")
            lines.append(
                "    {cell:<40} {rate}".format(
                    cell=f"{shard['platform']}/{shard['workload']}"
                         f" t={shard['threads']}",
                    rate=rate))
    return "\n".join(lines)
