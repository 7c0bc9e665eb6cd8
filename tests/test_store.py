"""Tests for the one persistent store behind the trace cache, the
stage-1 cache and the shard journal.

Persistent state is an accelerator, never a dependency: a failed write
must leave the run going uncached (correct result, no temp file left,
one ``fallback`` event), and namespaces sharing one directory must
each own exactly their own entries.
"""

import errno
import os
import re
from pathlib import Path

import numpy as np
import pytest

from repro.config import (SHARD_JOURNAL_ENV, TRACE_CACHE_ENV,
                          TRACE_CACHE_REQUIRE_ENV, default_config)
from repro.experiments import shard_journal, stage1_cache, trace_cache
from repro.experiments.runner import clear_cache, replay_grid
from repro.gcalgo.columnar import compile_traces
from repro.gcalgo.trace_io import trace_to_dict
from repro.obs import eventlog

from tests.conftest import SMALL_HEAP_BYTES, make_mixed_run

#: Each namespace's entry suffix (entries are ``<64-hex key><suffix>``).
SUFFIXES = {"trace_cache": ".npz", "stage1_cache": ".stage1.npz",
            "shard_journal": ".shard.json"}


def is_entry(name: str, namespace: str) -> bool:
    return re.fullmatch("[0-9a-f]{64}" + re.escape(SUFFIXES[namespace]),
                        name) is not None


@pytest.fixture(autouse=True)
def isolated(monkeypatch):
    for name in (TRACE_CACHE_ENV, TRACE_CACHE_REQUIRE_ENV,
                 SHARD_JOURNAL_ENV):
        monkeypatch.delenv(name, raising=False)
    clear_cache()
    yield
    clear_cache()


def mixed_compiled():
    return compile_traces(make_mixed_run().traces)[0]


def capture_traces(directory: Path):
    """One trace-cache write: a captured run, and the live capture it
    must equal."""
    config = default_config().with_heap_bytes(SMALL_HEAP_BYTES)
    run = trace_cache.fetch_run("mixed", config, make_mixed_run,
                                directory=directory)
    return ([trace_to_dict(trace) for trace in run.traces],
            [trace_to_dict(trace) for trace in make_mixed_run().traces])


def compute_stage1(directory: Path):
    """One stage-1 write: a product, and the arrays it must equal."""
    def produce():
        return np.arange(7, dtype=np.int64), np.full(3, 0.25)

    arrays = stage1_cache.fetch(mixed_compiled(), "probe", (1,), produce,
                                directory=directory)
    return ([array.tolist() for array in arrays],
            [array.tolist() for array in produce()])


def sweep_journaled(directory: Path):
    """One shard write: a journaled one-cell sweep, and the unjournaled
    sweep it must equal."""
    grid = replay_grid(["ideal"], ["graphchi-als"], processes=1,
                       journal=directory)
    clear_cache()
    return grid, replay_grid(["ideal"], ["graphchi-als"], processes=1)


OPERATIONS = {"trace_cache": capture_traces,
              "stage1_cache": compute_stage1,
              "shard_journal": sweep_journaled}


@pytest.mark.parametrize("namespace", sorted(OPERATIONS))
def test_failed_write_degrades_to_uncached(namespace, tmp_path,
                                           monkeypatch):
    """A full disk (ENOSPC at the rename into place) costs the entry,
    not the run."""
    real_replace = os.replace

    def replace(source, target):
        if is_entry(Path(target).name, namespace):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC),
                          str(target))
        return real_replace(source, target)

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(Path, "replace", lambda self, target:
                        replace(self, target) or Path(target))
    log = eventlog.get_eventlog()
    log.open(tmp_path / "events.jsonl")
    try:
        with pytest.warns(UserWarning, match="No space left"):
            result, expected = OPERATIONS[namespace](tmp_path / "store")
    finally:
        log.close()
    assert result == expected
    left = [path.name for path in (tmp_path / "store").rglob("*")]
    assert not [name for name in left if ".tmp" in name]
    assert not [name for name in left if is_entry(name, namespace)]
    fallbacks = [record for record
                 in eventlog.read_events(tmp_path / "events.jsonl")
                 if record["event"] == "fallback"]
    assert len(fallbacks) == 1
    assert fallbacks[0]["namespace"] == namespace


def test_cache_clear_reports_each_namespace(tmp_path, capsys):
    """One trace entry and five stage-1 entries in one directory clear
    as exactly that, and ``--dir`` reaches both namespaces."""
    from repro.cli import main

    capture_traces(tmp_path)
    compiled = mixed_compiled()
    for param in range(5):
        stage1_cache.fetch(compiled, "probe", (param,),
                           lambda: (np.arange(3),), directory=tmp_path)
    main(["cache", "stats", "--dir", str(tmp_path)])
    listing = capsys.readouterr().out
    assert "trace-cache: 1 entries" in listing
    assert "stage1-cache: 5 entries" in listing
    main(["cache", "clear", "--dir", str(tmp_path)])
    assert capsys.readouterr().out.strip() == (
        "removed 1 trace-cache entry, 5 stage1-cache entries")
    assert list(tmp_path.iterdir()) == []


class TestNamespaces:
    def test_entries_are_exact_per_namespace(self, tmp_path):
        from repro.experiments import store

        for name in ("a" * 64 + ".npz", "b" * 64 + ".stage1.npz",
                     "c" * 64 + ".shard.json", "c" * 64 + ".claim",
                     "d" * 64 + ".npz.tmp1f_2e", "sweep.json",
                     "short.npz"):
            (tmp_path / name).write_bytes(b"")
        assert [path.name for path in store.TRACES.entries(tmp_path)] \
            == ["a" * 64 + ".npz"]
        assert [path.name for path in store.STAGE1.entries(tmp_path)] \
            == ["b" * 64 + ".stage1.npz"]
        assert [path.name for path in store.SHARDS.entries(tmp_path)] \
            == ["c" * 64 + ".shard.json"]
        assert store.STAGE1.clear(tmp_path) == 1
        assert store.TRACES.entries(tmp_path)

    @pytest.mark.parametrize("namespace", sorted(SUFFIXES))
    def test_torn_entry_is_discarded_as_stale(self, namespace,
                                              tmp_path):
        from repro.experiments import store

        space, load = {
            "trace_cache": (store.TRACES, trace_cache.load_run),
            "stage1_cache": (store.STAGE1, stage1_cache.load),
            "shard_journal": (store.SHARDS, shard_journal.load_shard),
        }[namespace]
        key = "e" * 64
        space.path(tmp_path, key).write_bytes(b"PK\x03\x04torn")
        space.stats.reset()
        with pytest.warns(UserWarning, match="discarding stale"):
            assert load(tmp_path, key) is None
        assert not space.path(tmp_path, key).exists()
        assert space.stats["stale"] == 1
        space.stats.reset()

    def test_failed_mkdir_degrades_too(self, tmp_path):
        from repro.experiments import store

        blocker = tmp_path / "file"
        blocker.write_bytes(b"")
        with pytest.warns(UserWarning, match="not storing"):
            assert store.write(store.STAGE1, blocker / "cache", "f" * 64,
                               lambda temp: temp.write_bytes(b"")) \
                is None

