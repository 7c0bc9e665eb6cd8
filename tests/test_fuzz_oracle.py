"""The fuzz subsystem's own regression tests.

Three pinned seeds replay under every collector backend with the
reachability oracle armed — cheap enough for tier 1, and each replay
oracle-checks every collection it triggers.  A deliberately injected
forwarding-pointer bug (monkeypatched, never merged) proves the oracle
actually catches the class of corruption it exists for, and that the
shrinker reduces the failing schedule to a handful of ops a reproducer
file can replay.
"""

import pytest

from repro.config import default_fuzz_config
from repro.errors import FuzzError, HeapError, OracleViolation
from repro.fuzz import (build_schedule, fuzz_seed, snapshot_live,
                        assert_isomorphic)
from repro.fuzz.differential import run_schedule
from repro.fuzz.generator import FuzzOp
from repro.gcalgo import concurrent_mark
from repro.fuzz.shrink import (failure_predicate, load_reproducer,
                               replay_reproducer, shrink_schedule,
                               write_reproducer)
from repro.heap import object_model
from repro.heap.fast_kernels import use_kernel_mode

#: fixed seeds every collector replays; chosen to cover explicit GC
#: ops, old-generation allocation and at least one humongous object.
PINNED_SEEDS = (0, 1, 2)

COLLECTORS = ("minor", "major", "sweep", "g1", "concurrent")


@pytest.fixture(scope="module")
def config():
    return default_fuzz_config()


class TestPinnedSeeds:
    @pytest.mark.parametrize("collector", COLLECTORS)
    @pytest.mark.parametrize("seed", PINNED_SEEDS)
    def test_seed_replays_clean(self, seed, collector, config):
        ops = build_schedule(seed, config)
        result = run_schedule(ops, collector, config, seed=seed)
        assert result.collector == collector
        assert result.final_fingerprint
        # Every schedule must actually exercise the oracle.
        assert result.collections_checked >= 1

    def test_differential_agreement(self, config):
        result = fuzz_seed(PINNED_SEEDS[0], config, COLLECTORS)
        assert result.ok, result.failure and result.failure.message
        assert result.collections_checked >= len(COLLECTORS)

    def test_schedules_are_deterministic(self, config):
        a = build_schedule(5, config)
        b = build_schedule(5, config)
        assert a == b
        assert a != build_schedule(6, config)


class TestSnapshot:
    def test_snapshot_insensitive_to_addresses(self, config):
        # The same schedule replayed under two different collectors
        # puts objects at completely different addresses; canonical
        # snapshots must still be identical.
        ops = build_schedule(1, config)
        minor = run_schedule(ops, "minor", config)
        g1 = run_schedule(ops, "g1", config)
        assert minor.final_fingerprint == g1.final_fingerprint
        # The concurrent backend also executes the mark_step ops the
        # stop-the-world backends skip; marking never mutates the
        # reachable graph, so the fingerprint still matches.
        concurrent = run_schedule(ops, "concurrent", config)
        assert concurrent.final_fingerprint == minor.final_fingerprint

    def test_isomorphism_catches_field_mutation(self, config):
        ops = build_schedule(2, config)
        result = run_schedule(ops, "minor", config)
        heap = result.heap
        before = snapshot_live(heap)
        assert_isomorphic(before, snapshot_live(heap))
        root = next(r for r in heap.roots if r)
        view = heap.object_at(root)
        slots = view.reference_slots()
        if slots:
            # Null the slot if set, otherwise make it a self-loop —
            # either way the reference topology changes.
            current = heap.load_ref(slots[0])
            heap.store_ref(slots[0], 0 if current else root)
        else:
            heap.write_u64(root + 16, 0xDEAD)
        with pytest.raises(OracleViolation):
            assert_isomorphic(before, snapshot_live(heap))


class TestInjectedBug:
    """The acceptance gate: a forwarding-pointer bug must be caught."""

    @pytest.fixture
    def broken_forwarding(self, monkeypatch):
        original = object_model.MarkWord.forwarded_to

        def skewed(self, addr):
            # Off-by-one-word forwarding: referrers get redirected 8
            # bytes past the real copy.
            return original(self, addr + 8)

        monkeypatch.setattr(object_model.MarkWord, "forwarded_to",
                            skewed)
        # The skew lives in the Python MarkWord, which the scalar
        # scavenge runs; the fast one forwards in C (_scavenge.c).
        with use_kernel_mode("scalar"):
            yield

    def test_oracle_catches_and_shrinker_minimizes(
            self, broken_forwarding, config, tmp_path):
        ops = build_schedule(7, config)
        with pytest.raises((FuzzError, HeapError)):
            run_schedule(ops, "minor", config, seed=7)

        fails = failure_predicate(("minor",), config)
        minimized = shrink_schedule(ops, fails, rounds=2)
        assert fails(minimized)
        assert len(minimized) < len(ops) // 4

        path = tmp_path / "reproducer.json"
        write_reproducer(path, minimized, 7, ("minor",),
                         "injected forwarding skew", config)
        loaded = load_reproducer(path)
        assert loaded["seed"] == 7
        assert [op.to_dict() for op in loaded["ops"]] == \
            [op.to_dict() for op in minimized]
        with pytest.raises((FuzzError, HeapError)):
            replay_reproducer(path)

class TestInjectedSATBBugs:
    """The concurrent backend's acceptance gate: SATB bugs are caught.

    Two injected write-barrier bugs (monkeypatched, never merged):
    a *lossy drain* trips the drain-completeness law on nearly any
    schedule, while a *dropped barrier* is only observable through the
    weak-reachability law when a schedule actually hides a pointer —
    moves the last reference to an object from a not-yet-scanned field
    into an already-scanned one mid-cycle.  A hand-built minimal
    schedule pins the law itself; a pinned generator seed pins that
    the generator keeps *producing* such races (if a generator change
    kills them, a deleted write barrier fuzzes clean again).
    """

    #: hand-built hidden-pointer race, budget 1: snapshot pushes
    #: [A, B]; the first pause scans only B; the move copies A's ref
    #: to X into already-scanned B; the unlink destroys the only
    #: snapshot path to X.  Without barrier coverage X dies live.
    HIDE_OPS = [
        FuzzOp("alloc", slot=0, klass="Record"),    # A
        FuzzOp("alloc", slot=1, klass="Record"),    # B
        FuzzOp("alloc", slot=2, klass="Record"),    # X
        FuzzOp("link", slot=0, index=0, target=2),  # A.f0 = X
        FuzzOp("release", slot=2),                  # X interior-only
        FuzzOp("mark_step"),
        FuzzOp("move", slot=1, index=0, target=0, value=0),
        FuzzOp("unlink", slot=0, index=0),
        FuzzOp("gc"),
    ]

    #: generator seed whose schedule loses an object to the dropped
    #: barrier (found by fuzzing the injected bug; replays in ~0.2 s).
    RACY_SEED = 35

    @pytest.fixture
    def dropped_barrier(self, monkeypatch):
        monkeypatch.setattr(
            concurrent_mark.ConcurrentMarkGC, "_barrier",
            lambda self, slot_addr, old, new: None)

    @pytest.fixture
    def lossy_drain(self, monkeypatch):
        original = concurrent_mark.ConcurrentMarkGC._drain_satb

        def drops_every_other(self, phase):
            self.satb_buffer = self.satb_buffer[::2]
            return original(self, phase)

        monkeypatch.setattr(concurrent_mark.ConcurrentMarkGC,
                            "_drain_satb", drops_every_other)

    def _hide_config(self, config):
        from dataclasses import replace
        return replace(config, mark_step_budget=1)

    def test_hide_schedule_passes_with_real_barrier(self, config):
        result = run_schedule(self.HIDE_OPS, "concurrent",
                              self._hide_config(config))
        assert result.satb_cycles == 1

    def test_dropped_barrier_fails_hide_schedule(
            self, dropped_barrier, config):
        with pytest.raises(OracleViolation,
                           match="weak-reachability"):
            run_schedule(self.HIDE_OPS, "concurrent",
                         self._hide_config(config))

    def test_generator_produces_the_race(self, dropped_barrier,
                                         config):
        ops = build_schedule(self.RACY_SEED, config)
        with pytest.raises(OracleViolation,
                           match="weak-reachability"):
            run_schedule(ops, "concurrent", config)

    def test_racy_seed_clean_with_real_barrier(self, config):
        result = run_schedule(build_schedule(self.RACY_SEED, config),
                              "concurrent", config)
        assert result.satb_cycles >= 1

    def test_lossy_drain_caught_and_shrunk(self, lossy_drain, config):
        ops = build_schedule(0, config)
        with pytest.raises(OracleViolation, match="drain incomplete"):
            run_schedule(ops, "concurrent", config)
        fails = failure_predicate(("concurrent",), config)
        minimized = shrink_schedule(ops, fails, rounds=2)
        assert fails(minimized)
        assert len(minimized) < len(ops) // 4


class TestInjectedBugRepair:
    def test_reproducer_passes_once_bug_is_fixed(self, config,
                                                 tmp_path):
        # Same scenario without the monkeypatch: the reproducer must
        # replay clean on a healthy collector.
        ops = build_schedule(7, config)[:40]
        path = tmp_path / "reproducer.json"
        write_reproducer(path, ops, 7, ("minor",), "was: skew", config)
        results = replay_reproducer(path)
        assert results and results[0].final_fingerprint
