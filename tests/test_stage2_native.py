"""Faults around the compiled stage-2 loop's build, store and load.

The batched replay kernels run stage 2 in ``_stage2.c``, which
:mod:`repro.platform.native` compiles with gcc and stores in the cache
directory.  Persistent state must degrade, never break a replay: a
stale library is discarded and rebuilt, an unwritable store compiles
into a temporary directory.  A missing compiler is a configuration
error for fast replay only; the event-by-event oracle needs none.
"""

import errno
import hashlib
import os

import pytest

from repro.config import TRACE_CACHE_ENV
from repro.errors import ConfigError
from repro.experiments import store
from repro.obs import eventlog
from repro.platform import native
from repro.platform.fast_replay import make_replayer

from tests.conftest import platform_for

CELLS = (("charon-distributed", 8), ("cpu-hmc", 2), ("cpu-ddr4", 8))


@pytest.fixture(scope="module")
def expected(mixed_run):
    """Each cell's replay with the process's library."""
    traces = mixed_run.traces
    return traces, {cell: replay(cell, traces) for cell in CELLS}


def replay(cell, traces, mode="fast"):
    platform, _, _ = platform_for(cell[0])
    return make_replayer(platform, threads=cell[1],
                         mode=mode).replay_all(traces)


@pytest.fixture
def unloaded(monkeypatch):
    """No library loaded in this process (restored afterwards), and
    fresh store tallies."""
    monkeypatch.setattr(native, "_LIBRARY", None)
    store.NATIVE.stats.reset()
    yield
    store.NATIVE.stats.reset()


def garbage_with_checksum(image):
    """Not a shared object, but checksummed like a stored one, so it
    reaches ``dlopen``."""
    body = b"\x7fELF not really" * 64
    return body + hashlib.sha256(body).digest()


@pytest.mark.parametrize("stale", [
    lambda image: image[:4096], garbage_with_checksum],
    ids=["truncated", "garbage"])
def test_stale_library_is_discarded_and_rebuilt(tmp_path, monkeypatch,
                                                 expected, unloaded,
                                                 stale):
    # Learn the entry name from a build in a scratch store, then plant
    # a stale library under that name in the store under test.
    monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "scratch"))
    native.library()
    (entry,) = store.NATIVE.entries(tmp_path / "scratch")
    directory = tmp_path / "cache"
    directory.mkdir()
    planted = directory / entry.name
    planted.write_bytes(stale(entry.read_bytes()))
    monkeypatch.setenv(TRACE_CACHE_ENV, str(directory))
    monkeypatch.setattr(native, "_LIBRARY", None)
    store.NATIVE.stats.reset()
    with pytest.warns(UserWarning, match="discarding stale"):
        native.library()
    assert store.NATIVE.stats.snapshot() == {
        "hits": 0, "builds": 1, "stale": 1, "stores": 1}
    assert planted.read_bytes() == entry.read_bytes()
    traces, results = expected
    for cell in CELLS:
        assert replay(cell, traces) == results[cell]
    # The rebuilt entry now loads without a build.
    monkeypatch.setattr(native, "_LIBRARY", None)
    native.library()
    assert store.NATIVE.stats["hits"] == 1


def test_unwritable_store_builds_in_a_temp_dir(tmp_path, monkeypatch,
                                               expected, unloaded):
    real_replace = os.replace

    def read_only(source, target):
        if str(target).endswith(store.NATIVE.suffix):
            raise OSError(errno.EROFS, os.strerror(errno.EROFS),
                          str(target))
        return real_replace(source, target)

    monkeypatch.setattr(os, "replace", read_only)
    monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "cache"))
    log = eventlog.get_eventlog()
    log.open(tmp_path / "events.jsonl")
    try:
        with pytest.warns(UserWarning, match="Read-only file system"):
            native.library()
    finally:
        log.close()
    fallbacks = [record for record
                 in eventlog.read_events(tmp_path / "events.jsonl")
                 if record["event"] == "fallback"]
    assert [record["namespace"] for record in fallbacks] \
        == ["stage2_native"]
    assert store.NATIVE.entries(tmp_path / "cache") == []
    assert not [path for path in (tmp_path / "cache").iterdir()]
    traces, results = expected
    for cell in CELLS:
        assert replay(cell, traces) == results[cell]


@pytest.mark.parametrize("variable", ["CC", "PATH"])
def test_missing_compiler_is_a_config_error(tmp_path, monkeypatch,
                                            expected, unloaded,
                                            variable):
    if variable == "CC":
        monkeypatch.setenv("CC", str(tmp_path / "no-such-gcc"))
    else:
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv("PATH", str(tmp_path))
    traces, results = expected
    for cell in CELLS:
        with pytest.raises(ConfigError, match="gcc.*--mode event"):
            replay(cell, traces)
        event = replay(cell, traces, mode="event")
        assert event.replay_kernel == "event"
        assert event.dram_bytes == results[cell].dram_bytes
        assert event.wall_seconds == pytest.approx(
            results[cell].wall_seconds, rel=1e-9)
