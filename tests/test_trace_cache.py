"""Tests for the content-addressed trace cache.

The cache key must change exactly when something that determines the
*captured traces* changes (workload, heap geometry, schema version,
the capture sources) and must ignore everything that only affects
*replay timing* (platform organisation, thread counts, timing code).  Stored entries must round-trip
the run event-for-event, and stale entries must be rejected loudly and
regenerated — never misreplayed.
"""

import dataclasses
import functools
import shutil

import pytest

from repro.config import TRACE_CACHE_ENV, default_config
from repro.experiments import store, trace_cache
from repro.experiments.trace_cache import (fetch_run, load_run,
                                           run_cache_key, store_run)
from repro.gcalgo import trace_io
from repro.obs.metrics import global_metrics

from tests.conftest import SMALL_HEAP_BYTES, make_mixed_run, trace_contents

WORKLOAD = "mixed"


def small_config():
    return default_config().with_heap_bytes(SMALL_HEAP_BYTES)


@pytest.fixture(autouse=True)
def fresh_stats():
    trace_cache.STATS.reset()
    yield
    trace_cache.STATS.reset()


class TestCacheKey:
    def test_key_is_stable(self):
        assert run_cache_key(WORKLOAD, small_config()) \
            == run_cache_key(WORKLOAD, small_config())

    def test_workload_name_changes_key(self):
        config = small_config()
        assert run_cache_key("spark-km", config) \
            != run_cache_key("spark-bs", config)

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(
            default_config().heap.__class__)])
    def test_every_heap_field_changes_key(self, field):
        """Heap geometry decides when collections happen and what they
        move — every single field must enter the key."""
        config = small_config()
        original = getattr(config.heap, field)
        bumped = (original + 0.01 if isinstance(original, float)
                  else original + 1)
        perturbed = dataclasses.replace(
            config, heap=dataclasses.replace(config.heap,
                                             **{field: bumped}))
        assert run_cache_key(WORKLOAD, config) \
            != run_cache_key(WORKLOAD, perturbed)

    @pytest.mark.parametrize("mutate", [
        lambda c: dataclasses.replace(c, gc_threads=1),
        lambda c: dataclasses.replace(c, charon=dataclasses.replace(
            c.charon, copy_search_units=c.charon.copy_search_units + 1)),
        lambda c: dataclasses.replace(c, charon=dataclasses.replace(
            c.charon, bitmap_cache_enabled=False)),
    ], ids=["gc-threads", "charon-units", "bitmap-cache"])
    def test_timing_parameters_do_not_enter_key(self, mutate):
        """One captured trace set serves the whole platform grid."""
        config = small_config()
        assert run_cache_key(WORKLOAD, config) \
            == run_cache_key(WORKLOAD, mutate(config))

    def test_schema_version_changes_key(self, monkeypatch):
        config = small_config()
        before = run_cache_key(WORKLOAD, config)
        monkeypatch.setattr(trace_cache, "TRACE_SCHEMA_VERSION",
                            trace_cache.TRACE_SCHEMA_VERSION + 1)
        assert run_cache_key(WORKLOAD, config) != before

    @pytest.mark.parametrize("source", [
        "workloads/graphchi.py", "gcalgo/trace_io.py", "heap/heap.py",
        "platform/_scavenge.c"])
    def test_capture_source_byte_changes_key(self, source, tmp_path,
                                             monkeypatch):
        """The key covers the code that captures traces: flipping one
        byte of one capture source gives another key."""
        root = trace_cache._SOURCES_ROOT
        ignore = shutil.ignore_patterns("__pycache__")
        same, flipped = tmp_path / "same", tmp_path / "flipped"
        shutil.copytree(root, same, ignore=ignore)
        shutil.copytree(root, flipped, ignore=ignore)
        assert trace_cache.capture_digest(same) \
            == trace_cache.capture_digest()
        data = bytearray((flipped / source).read_bytes())
        data[len(data) // 2] ^= 1
        (flipped / source).write_bytes(bytes(data))
        config = small_config()
        before = run_cache_key(WORKLOAD, config)
        monkeypatch.setattr(
            trace_cache, "capture_digest",
            functools.partial(trace_cache.capture_digest, flipped))
        assert run_cache_key(WORKLOAD, config) != before

    def test_replay_sources_do_not_enter_key(self, tmp_path):
        """Timing-layer code is not a capture source."""
        root = trace_cache._SOURCES_ROOT
        copy = tmp_path / "repro"
        shutil.copytree(root, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        (copy / "platform" / "_stage2.c").write_text("/* edited */")
        assert trace_cache.capture_digest(copy) \
            == trace_cache.capture_digest()


class TestStoreLoad:
    def test_round_trip(self, tmp_path, mixed_run):
        key = run_cache_key(WORKLOAD, small_config())
        path = store_run(tmp_path, key, mixed_run)
        assert path.exists() and path.suffix == ".npz"
        loaded = load_run(tmp_path, key)
        assert len(loaded.traces) == len(mixed_run.traces)
        assert trace_contents(loaded.traces) \
            == trace_contents(mixed_run.traces)
        for name in trace_cache._RUN_FIELDS:
            assert getattr(loaded, name) == getattr(mixed_run, name)

    def test_missing_key_is_none(self, tmp_path):
        assert load_run(tmp_path, "0" * 64) is None

    def test_stale_entry_warns_deletes_and_misses(self, tmp_path,
                                                  mixed_run,
                                                  monkeypatch):
        key = run_cache_key(WORKLOAD, small_config())
        path = store_run(tmp_path, key, mixed_run)
        monkeypatch.setattr(trace_io, "TRACE_SCHEMA_VERSION",
                            trace_io.TRACE_SCHEMA_VERSION + 1)
        with pytest.warns(UserWarning, match="stale trace-cache entry"):
            assert load_run(tmp_path, key) is None
        assert not path.exists()
        assert trace_cache.STATS["stale"] == 1


class TestFetchRun:
    def test_miss_generates_and_stores(self, tmp_path):
        run = fetch_run(WORKLOAD, small_config(), make_mixed_run,
                        directory=tmp_path)
        # Freshly generated: every trace held sealed, as columns.
        assert all(trace._rows is None for trace in run.traces)
        assert run.sweep_count == 1
        assert len(list(tmp_path.glob("*.npz"))) == 1
        assert trace_cache.STATS["misses"] == 1
        assert trace_cache.STATS["generated"] == 1
        assert trace_cache.STATS["stores"] == 1

    def test_hit_skips_the_producer(self, tmp_path):
        fetch_run(WORKLOAD, small_config(), make_mixed_run,
                  directory=tmp_path)

        def exploding_producer():
            raise AssertionError("cache hit must not re-run the "
                                 "collector")

        run = fetch_run(WORKLOAD, small_config(), exploding_producer,
                        directory=tmp_path)
        assert run.gc_count == len(run.traces) > 0
        assert trace_cache.STATS["hits"] == 1

    def test_warm_fetch_counts_no_miss(self, tmp_path):
        """The tally is the capture-free witness: a warm fetch adds a
        hit and neither a miss nor a generated run."""
        fetch_run(WORKLOAD, small_config(), make_mixed_run,
                  directory=tmp_path)
        cold = trace_cache.STATS.snapshot()
        assert (cold["misses"], cold["generated"]) == (1, 1)
        fetch_run(WORKLOAD, small_config(), make_mixed_run,
                  directory=tmp_path)
        warm = trace_cache.STATS.snapshot()
        assert warm["hits"] == cold["hits"] + 1
        assert (warm["misses"], warm["generated"]) == (1, 1)

    def test_no_directory_degrades_to_produce(self, monkeypatch):
        monkeypatch.delenv(TRACE_CACHE_ENV,
                           raising=False)
        run = fetch_run(WORKLOAD, small_config(), make_mixed_run)
        assert run.gc_count > 0
        assert trace_cache.STATS["stores"] == 0

    def test_stale_entry_is_regenerated(self, tmp_path, monkeypatch):
        """A version-bumped entry must be replaced by a fresh capture,
        not misreplayed: the producer runs again and the new entry is
        immediately servable."""
        fetch_run(WORKLOAD, small_config(), make_mixed_run,
                  directory=tmp_path)
        monkeypatch.setattr(trace_io, "TRACE_SCHEMA_VERSION",
                            trace_io.TRACE_SCHEMA_VERSION + 1)
        with pytest.warns(UserWarning, match="stale"):
            run = fetch_run(WORKLOAD, small_config(), make_mixed_run,
                            directory=tmp_path)
        assert run.gc_count == len(run.traces) > 0  # regenerated
        assert trace_cache.STATS["stale"] == 1
        assert trace_cache.STATS["generated"] == 2
        # The regenerated entry (written under the bumped version) hits.
        again = fetch_run(WORKLOAD, small_config(),
                          lambda: pytest.fail("should hit"),
                          directory=tmp_path)
        assert trace_contents(again.traces) == trace_contents(run.traces)


class TestInterleavedReuse:
    def test_cached_and_live_traces_identical(self, tmp_path):
        """Regression: interleave cache reuse with live collection —
        every path must yield event-for-event identical traces."""
        captured = fetch_run(WORKLOAD, small_config(), make_mixed_run,
                             directory=tmp_path)
        cached = fetch_run(WORKLOAD, small_config(), make_mixed_run,
                           directory=tmp_path)
        live = make_mixed_run()  # a fresh collector execution
        served = fetch_run(WORKLOAD, small_config(),
                           lambda: pytest.fail("should hit"),
                           directory=tmp_path)
        golden = trace_contents(live.traces)
        assert trace_contents(captured.traces) == golden
        assert trace_contents(cached.traces) == golden
        assert trace_contents(served.traces) == golden

    def test_clear_empties_the_directory(self, tmp_path):
        fetch_run(WORKLOAD, small_config(), make_mixed_run,
                  directory=tmp_path)
        assert store.TRACES.clear(tmp_path) == 1
        assert list(tmp_path.glob("*.npz")) == []
        assert store.TRACES.clear(tmp_path) == 0


def _tally_in_worker(hits):
    trace_cache.STATS.add("hits", hits)
    trace_cache.STATS.add("stores")


class TestCacheStats:
    """The tally is the namespace's counters in the global metrics
    registry; pool workers' increments reach it through the telemetry
    delta (``tests/test_obs_pool.py``)."""

    def test_reset_zeroes_every_field(self):
        stats = trace_cache.STATS
        stats.add("hits", 3)
        stats.add("generated")
        assert stats["hits"] == 3
        assert global_metrics().counter("trace_cache.hits").value == 3
        stats.reset()
        assert set(stats.snapshot().values()) == {0}

    def test_thread_safety(self):
        import threading

        stats = trace_cache.STATS
        per_thread, threads = 2000, 8

        def hammer():
            for _ in range(per_thread):
                stats.add("hits")

        workers = [threading.Thread(target=hammer)
                   for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert stats["hits"] == per_thread * threads

    def test_pool_worker_increments_reach_the_parent(self):
        from repro.experiments.runner import _fan_out, _fork_available

        if not _fork_available():
            pytest.skip("fork start method unavailable")
        trace_cache.STATS.add("generated")
        _fan_out(_tally_in_worker, [5, 5, 5, 5], processes=2)
        # Counted once each: the fork's copy of the parent's row is
        # not merged back.
        assert trace_cache.STATS.snapshot() == {
            "hits": 20, "misses": 0, "stale": 0, "stores": 4,
            "generated": 1, "fallbacks": 0}

    def test_unknown_field_is_rejected(self):
        with pytest.raises(KeyError):
            trace_cache.STATS.add("hit")

    def test_global_stats_surface_even_at_zero(self):
        # `repro cache stats` prints the tally before any fetch.
        assert "0 hit(s)" in store.TRACES.stats_line()
        trace_cache.STATS.add("hits")
        assert "1 hit(s)" in store.TRACES.stats_line()
