"""Determinism: identical inputs must reproduce identical outputs.

A reproduction's results have to be exactly repeatable — the workloads
use fixed seeds, the engine breaks ties deterministically, and the
replayer holds no hidden state across fresh platform instances.
"""

import pytest

from repro.platform import TraceReplayer
from repro.workloads import run_workload

from tests.conftest import TinySpark, platform_for, trace_contents


class TestWorkloadDeterminism:
    def test_same_run_twice_identical_traces(self):
        first = TinySpark().run()
        second = TinySpark().run()
        assert first.minor_count == second.minor_count
        assert first.allocated_bytes == second.allocated_bytes
        assert trace_contents(first.traces) \
            == trace_contents(second.traces)

    def test_rmat_workload_deterministic(self):
        first = run_workload("graphchi-als")
        second = run_workload("graphchi-als")
        assert [t.summary() for t in first.traces] == \
            [t.summary() for t in second.traces]


class TestReplayDeterminism:
    def test_fresh_platforms_identical_results(self):
        run = TinySpark().run()
        results = []
        for _ in range(2):
            platform, _, _ = platform_for("charon")
            results.append(TraceReplayer(platform).replay_all(
                run.traces))
        a, b = results
        assert a.wall_seconds == pytest.approx(b.wall_seconds, rel=0,
                                               abs=0)
        assert a.dram_bytes == b.dram_bytes
        assert a.energy.total_j == pytest.approx(b.energy.total_j,
                                                 rel=0, abs=0)
        assert a.primitive_seconds == b.primitive_seconds

    def test_all_platforms_deterministic(self):
        run = TinySpark().run()
        for name in ("cpu-ddr4", "cpu-hmc", "ideal"):
            walls = set()
            for _ in range(2):
                platform, _, _ = platform_for(name)
                walls.add(TraceReplayer(platform)
                          .replay_all(run.traces).wall_seconds)
            assert len(walls) == 1


class TestFuzzDeterminism:
    """Same seed => byte-identical heaps and identical traces.

    The fuzz subsystem's shrinker and reproducer files depend on
    schedules being pure functions of (seed, config), and the
    differential runner depends on each backend being deterministic
    given a schedule.
    """

    def test_same_seed_byte_identical_heap(self):
        import numpy as np
        from repro.config import default_fuzz_config
        from repro.fuzz import build_schedule
        from repro.fuzz.differential import run_schedule

        config = default_fuzz_config()
        ops = build_schedule(11, config)
        runs = [run_schedule(ops, "minor", config, seed=11)
                for _ in range(2)]
        assert np.array_equal(runs[0].heap.buffer, runs[1].heap.buffer)
        assert runs[0].heap.roots == runs[1].heap.roots
        assert runs[0].final_fingerprint == runs[1].final_fingerprint

    def test_same_seed_identical_trace_summaries(self):
        from repro.config import default_fuzz_config
        from repro.fuzz import build_schedule
        from repro.fuzz.differential import run_schedule

        config = default_fuzz_config()
        ops = build_schedule(11, config)
        for collector in ("minor", "major", "sweep", "g1"):
            runs = [run_schedule(ops, collector, config, seed=11)
                    for _ in range(2)]
            assert [t.summary() for t in runs[0].traces] == \
                [t.summary() for t in runs[1].traces], collector
