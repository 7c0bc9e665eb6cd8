"""Tests for the content-addressed trace cache.

The cache key must change exactly when something that determines the
*captured traces* changes (workload, heap geometry, schema/generator
versions) and must ignore everything that only affects *replay timing*
(platform organisation, thread counts).  Stored entries must round-trip
the run event-for-event, and stale entries must be rejected loudly and
regenerated — never misreplayed.
"""

import dataclasses

import pytest

from repro.config import (TRACE_CACHE_ENV, TRACE_CACHE_REQUIRE_ENV,
                          default_config)
from repro.experiments import store, trace_cache
from repro.experiments.store import CacheMiss
from repro.experiments.trace_cache import (fetch_run, load_run,
                                           run_cache_key, store_run)
from repro.gcalgo import trace_io
from repro.gcalgo.trace_io import trace_to_dict

from tests.conftest import SMALL_HEAP_BYTES, make_mixed_run

WORKLOAD = "mixed"


def small_config():
    return default_config().with_heap_bytes(SMALL_HEAP_BYTES)


def trace_dicts(run):
    return [trace_to_dict(trace) for trace in run.traces]


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

    def test_generator_version_changes_key(self, monkeypatch):
        config = small_config()
        before = run_cache_key(WORKLOAD, config)
        monkeypatch.setattr(trace_cache, "GENERATOR_VERSION",
                            trace_cache.GENERATOR_VERSION + 1)
        assert run_cache_key(WORKLOAD, config) != before


class TestStoreLoad:
    def test_round_trip(self, tmp_path, mixed_run):
        key = run_cache_key(WORKLOAD, small_config())
        path = store_run(tmp_path, key, mixed_run)
        assert path.exists() and path.suffix == ".npz"
        loaded = load_run(tmp_path, key)
        assert len(loaded.compiled) == len(mixed_run.traces)
        assert trace_dicts(loaded) == trace_dicts(mixed_run)
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
        # Freshly generated: the store compiled each trace once.
        assert len(run.compiled) == len(run.traces)
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
        assert run.gc_count == len(run.compiled) > 0
        assert trace_cache.STATS["hits"] == 1

    def test_require_raises_on_miss(self, tmp_path):
        with pytest.raises(CacheMiss, match=WORKLOAD):
            fetch_run(WORKLOAD, small_config(), make_mixed_run,
                      directory=tmp_path, require=True)

    def test_require_env_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_CACHE_REQUIRE_ENV, "1")
        with pytest.raises(CacheMiss):
            fetch_run(WORKLOAD, small_config(), make_mixed_run,
                      directory=tmp_path)

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
        assert len(run.compiled) == len(run.traces)  # regenerated
        assert trace_cache.STATS["stale"] == 1
        assert trace_cache.STATS["generated"] == 2
        # The regenerated entry (written under the bumped version) hits.
        again = fetch_run(WORKLOAD, small_config(),
                          lambda: pytest.fail("should hit"),
                          directory=tmp_path)
        assert trace_dicts(again) == trace_dicts(run)


class TestInterleavedReuse:
    def test_cached_and_live_traces_identical(self, tmp_path):
        """Regression: interleave cache reuse with live collection —
        every path must yield event-for-event identical traces."""
        captured = fetch_run(WORKLOAD, small_config(), make_mixed_run,
                             directory=tmp_path)
        cached = fetch_run(WORKLOAD, small_config(), make_mixed_run,
                           directory=tmp_path)
        compiled = cached.compiled
        live = make_mixed_run()  # a fresh collector execution
        required = fetch_run(WORKLOAD, small_config(), make_mixed_run,
                             directory=tmp_path, require=True)
        golden = trace_dicts(live)
        assert trace_dicts(captured) == golden
        assert trace_dicts(cached) == golden
        assert trace_dicts(required) == golden
        # The compiled columnar copies decompile to the same traces.
        assert [trace_to_dict(t.to_trace()) for t in compiled] == golden

    def test_clear_empties_the_directory(self, tmp_path):
        fetch_run(WORKLOAD, small_config(), make_mixed_run,
                  directory=tmp_path)
        assert store.TRACES.clear(tmp_path) == 1
        assert list(tmp_path.glob("*.npz")) == []
        assert store.TRACES.clear(tmp_path) == 0


class TestCacheStats:
    """The tally must survive threads and forked grid workers."""

    def test_reset_zeroes_every_field(self):
        stats = store.CacheStats(tuple(trace_cache.STATS.snapshot()))
        stats.add("hits", 3)
        stats.add("generated")
        assert stats["hits"] == 3
        stats.reset()
        assert set(stats.snapshot().values()) == {0}

    def test_thread_safety(self):
        import threading

        stats = store.CacheStats(tuple(trace_cache.STATS.snapshot()))
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

    def test_fork_shared_with_worker_processes(self):
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            pytest.skip("fork start method unavailable")
        stats = store.CacheStats(tuple(trace_cache.STATS.snapshot()))
        stats.add("generated")

        def work():
            stats.add("hits", 5)
            stats.add("stores")

        workers = [context.Process(target=work) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert all(worker.exitcode == 0 for worker in workers)
        # The children's increments land in the parent's tally.
        assert stats.snapshot() == {"hits": 20, "misses": 0,
                                    "stale": 0, "stores": 4,
                                    "generated": 1}

    def test_global_stats_surface_even_at_zero(self):
        # `repro cache stats` prints the tally before any fetch.
        assert "0 hit(s)" in store.TRACES.stats_line()
        trace_cache.STATS.add("hits")
        assert "1 hit(s)" in store.TRACES.stats_line()
