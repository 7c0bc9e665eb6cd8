"""Tests of the benchmark harness's own arithmetic; no sweep runs.

    python3 -m pytest bench/
"""

import json
import os
import statistics
import sys
import time
import types

import pytest

import benchmath
import hostspeed
import run
import spans


# -- medians and quartiles ---------------------------------------------------

def test_quartiles_match_statistics_quantiles():
    values = [7.0, 1.0, 5.0, 3.0, 9.0, 2.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert benchmath.quartiles(values) == (q1, q3)


def test_one_sample_has_no_spread():
    assert benchmath.quartiles([4.2]) == (4.2, 4.2)
    assert benchmath.relative_spread([4.2]) == 0.0


def test_summarize_reports_median_quartiles_and_count():
    summary = benchmath.summarize([3.0, 1.0, 2.0, 5.0, 4.0])
    assert summary["median"] == 3.0
    assert summary["n"] == 5
    assert summary["q1"] <= summary["median"] <= summary["q3"]
    assert summary["samples"] == [3.0, 1.0, 2.0, 5.0, 4.0]


def test_relative_spread_is_iqr_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, q3 = benchmath.quartiles(values)
    assert benchmath.relative_spread(values) == pytest.approx(
        (q3 - q1) / 10.0)


# -- --compare verdicts ------------------------------------------------------

BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.1, 9.9]


def test_same_numbers_are_unchanged():
    assert benchmath.verdict(BASE, list(BASE), 0.1, "lower") == "unchanged"


def test_small_slowdown_inside_the_bound_is_unchanged():
    slower = [value * 1.05 for value in BASE]
    assert benchmath.verdict(BASE, slower, 0.1, "lower") == "unchanged"


def test_slowdown_beyond_the_bound_regresses():
    slower = [value * 1.2 for value in BASE]
    assert benchmath.verdict(BASE, slower, 0.1, "lower") == "regressed"


def test_consistent_speedup_improves():
    faster = [value * 0.8 for value in BASE]
    assert benchmath.verdict(BASE, faster, 0.1, "lower") == "improved"


def test_higher_is_better_flips_the_direction():
    assert benchmath.verdict(BASE, [v * 1.3 for v in BASE], 0.1,
                             "higher") == "improved"
    assert benchmath.verdict(BASE, [v * 0.7 for v in BASE], 0.1,
                             "higher") == "regressed"


def test_speedup_without_nine_wins_in_ten_is_not_improved():
    change = [value * 0.8 for value in BASE]
    change[0] = change[1] = 20.0  # two losses: 8 wins of 10
    assert benchmath.win_fraction(BASE, change, "lower") == 0.8
    assert benchmath.verdict(BASE, change, 0.5, "lower") == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 7.0, 13.0, 10.0, 9.5, 10.5]
    assert benchmath.relative_spread(noisy) > 0.1
    change = [value * 1.05 for value in noisy]
    assert benchmath.verdict(noisy, change, 0.1, "lower") == "unresolved"


def test_wide_spread_is_resolved_when_every_change_run_is_better():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    change = [4.0, 4.5, 5.0, 5.5, 6.0]
    assert benchmath.verdict(noisy, change, 0.1, "lower") == "improved"


def test_exact_metrics_regress_on_any_worsening():
    assert benchmath.verdict([0.0], [0.0], 0.0, "lower") == "unchanged"
    assert benchmath.verdict([0.0], [0.01], 0.0, "lower") == "regressed"
    assert benchmath.verdict([11.2], [11.3], 0.0, "lower") == "regressed"


def test_a_single_noisy_sample_improves_only_beyond_the_bound():
    assert benchmath.verdict([10.0], [9.0], 0.25, "lower") == "unchanged"
    assert benchmath.verdict([10.0], [7.0], 0.25, "lower") == "improved"
    assert benchmath.verdict([10.0], [13.0], 0.25, "lower") == "regressed"


def test_win_fraction_counts_ties_for_neither_side():
    assert benchmath.win_fraction([1.0, 2.0], [1.0, 1.0], "lower") == 0.5
    assert benchmath.win_fraction([1.0], [1.0, 2.0], "lower") is None


# -- digest tolerance --------------------------------------------------------

DIGEST = {"wall_seconds": 0.25, "dram_bytes": 1 << 30,
          "energy": {"host_j": 0.5}, "replay_kernel": "charon-batched",
          "local_fraction": None, "rows": [{"x": 1.5}]}


def _with(path, value):
    changed = json.loads(json.dumps(DIGEST))
    target = changed
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return changed


def test_identical_digests_match():
    assert benchmath.digest_mismatches(DIGEST, _with(["dram_bytes"],
                                                     1 << 30)) == []


def test_integer_off_by_one_fails():
    problems = benchmath.digest_mismatches(
        DIGEST, _with(["dram_bytes"], (1 << 30) + 1))
    assert problems and "dram_bytes" in problems[0]


def test_float_within_relative_tolerance_passes():
    nudged = 0.25 * (1 + 0.5e-9)
    assert benchmath.digest_mismatches(
        DIGEST, _with(["wall_seconds"], nudged)) == []
    assert benchmath.digest_mismatches(
        DIGEST, _with(["energy", "host_j"], 0.5 * (1 - 0.9e-9))) == []


def test_float_beyond_relative_tolerance_fails():
    assert benchmath.digest_mismatches(
        DIGEST, _with(["wall_seconds"], 0.25 * (1 + 1e-8)))


def test_structure_changes_fail():
    missing = json.loads(json.dumps(DIGEST))
    del missing["energy"]["host_j"]
    assert benchmath.digest_mismatches(DIGEST, missing)
    assert benchmath.digest_mismatches(DIGEST, _with(["rows"], []))
    assert benchmath.digest_mismatches(
        DIGEST, _with(["local_fraction"], 0.0))
    assert benchmath.digest_mismatches({"flag": True}, {"flag": 1})


# -- spans and self time -----------------------------------------------------

def _span(name, start, end, parent=None, **args):
    return spans.Span(name, start, end, parent, args)


def test_self_time_subtracts_children():
    recorded = [_span("pass", 0.0, 10.0),
                _span("replay", 1.0, 6.0, 0),
                _span("stage1.charon", 1.5, 3.0, 1),
                _span("stage2.charon", 3.0, 5.5, 1),
                _span("capture", 7.0, 9.0, 0)]
    assert spans.self_times(recorded) == pytest.approx(
        [3.0, 1.0, 1.5, 2.5, 2.0])
    table = spans.layer_table([recorded])
    assert table["unattributed"] == pytest.approx(3.0)
    assert sum(table.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    recorded = [_span("replay", 0.0, 10.0),
                _span("stage1.ddr4", 1.0, 4.0, 0),
                _span("stage2.ddr4", 3.0, 6.0, 0),
                _span("platform.build", 9.0, 12.0, 0)]
    # children cover [1, 6] and [9, 10] of the parent
    assert spans.self_times(recorded)[0] == pytest.approx(4.0)


def test_recorder_nests_spans_and_keeps_notes():
    recorder = spans.SpanRecorder()
    inner = recorder.wrap("capture", lambda: "run",
                          lambda args, kwargs, result: {"events": 3})
    outer = recorder.wrap("pass", lambda: inner())
    assert outer() == "run"
    first, second = recorder.spans
    assert (first.name, first.parent) == ("pass", None)
    assert (second.name, second.parent, second.args) == (
        "capture", 0, {"events": 3})
    assert first.start <= second.start <= second.end <= first.end
    assert [spans.dump(span) for span in spans.load(
        [spans.dump(span) for span in recorder.spans])] == \
        [spans.dump(span) for span in recorder.spans]


def test_recorder_closes_spans_of_calls_that_raise():
    recorder = spans.SpanRecorder()

    def boom():
        raise MemoryError

    with pytest.raises(MemoryError):
        recorder.wrap("capture", boom)()
    assert recorder.spans[0].end >= recorder.spans[0].start
    assert recorder.wrap("pass", lambda: None)() is None
    assert recorder.spans[1].parent is None


def test_layer_metrics_from_synthetic_spans():
    recorded = [
        _span("pass", 0.0, 20.0),
        _span("capture", 0.0, 4.0, 0, events=400),
        _span("compile", 4.0, 5.0, 0, trace=1),
        _span("trace_io.store", 5.0, 7.0, 0),
        _span("compile", 5.5, 6.0, 3, trace=1),
        _span("replay", 8.0, 18.0, 0, platform="ideal"),
        _span("replay.run", 9.0, 17.0, 5, platform="ideal", events=1000,
              wall_seconds=0.0, dram_bytes=0, bitmap_cache_hits=0,
              bitmap_cache_accesses=0, local_fraction=None),
        _span("stage2.ddr4", 10.0, 12.0, 6, events=500),
    ]
    metrics = spans.layer_metrics(
        [recorded], {"trace_cache": {"hits": 3, "misses": 1}})
    assert metrics["capture.s"] == 4.0
    assert metrics["capture.events_per_s"] == 100.0
    assert metrics["compile.redundancy"] == 2.0
    assert metrics["trace_io.store_s"] == 2.0
    assert metrics["trace_cache.hit_ratio"] == 0.75
    assert metrics["stage1_cache.hit_ratio"] == 0.0
    assert metrics["stage2.events_per_s"] == 250.0
    assert metrics["replay.self_s"] == pytest.approx(2.0 + 6.0)
    assert metrics["replay.calls"] == 1
    assert metrics["replay.ideal_us_per_event"] == pytest.approx(8000.0)
    assert spans.replay_seconds([recorded]) == 10.0


def test_event_counts_accept_object_and_columnar_traces():
    traces = [types.SimpleNamespace(events=[1, 2, 3]),
              types.SimpleNamespace(events=[4])]
    assert spans._events(traces) == 4
    assert spans._events(iter(traces)) is None


def test_rebind_reaches_every_repro_module_binding():
    def original():
        return "original"

    def replacement():
        return "replacement"

    modules = {name: types.ModuleType(name)
               for name in ("repro_benchtest_a", "repro_benchtest_b",
                            "elsewhere_benchtest")}
    modules["repro_benchtest_a"].f = original
    modules["repro_benchtest_b"].alias = original
    modules["elsewhere_benchtest"].f = original
    sys.modules.update(modules)
    try:
        spans.rebind(original, replacement)
        assert modules["repro_benchtest_a"].f is replacement
        assert modules["repro_benchtest_b"].alias is replacement
        assert modules["elsewhere_benchtest"].f is original
    finally:
        for name in modules:
            del sys.modules[name]


# -- fan-out arithmetic ------------------------------------------------------

def test_fanout_overhead_is_pooled_minus_a_perfect_split():
    # 4 s serial + 12 s replay over 2 processes would take 10 s
    assert benchmath.fanout_overhead(10.0, 16.0, 12.0, 2) == 0.0
    assert benchmath.fanout_overhead(11.5, 16.0, 12.0, 2) == 1.5
    assert benchmath.fanout_overhead(16.0, 16.0, 12.0, 1) == 0.0


def test_error_pct():
    assert benchmath.error_pct(3.66, 3.29) == pytest.approx(11.246, 1e-3)
    assert benchmath.error_pct(1.0, 2.0) == 50.0


# -- host speed --------------------------------------------------------------

def test_credit_counts_cpu_seconds_at_quiet_vcpu_speed():
    quiet = hostspeed.QUIET_LOOP_S * hostspeed.LOOPS
    assert hostspeed.credit(2.0, quiet) == pytest.approx(2.0)
    assert hostspeed.credit(2.0, 2 * quiet) == pytest.approx(1.0)


def _burn(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_sampler_counts_the_processes_the_pass_forks():
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        child = os.fork()
        if child == 0:
            _burn(0.3)
            os._exit(0)
        os.waitpid(child, 0)
    finally:
        speed = sampler.stop()
    # the parent only waited: the child's ticks are most of the tally
    assert sampler.cpu_seconds() >= 0.2
    assert 0 < speed < 10


# -- correctness bookkeeping -------------------------------------------------

@pytest.fixture
def reference(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "REFERENCE", tmp_path)
    cells = {"charon/spark-bs": {"dram_bytes": 10, "wall_seconds": 0.5}}
    (tmp_path / "seed-0.json").write_text(json.dumps(
        {"seed": 0, "passes": {"fig12": cells}}))
    return cells


def _result(cells, completed=0, errors=None):
    return {"cells": cells, "errors": errors or {},
            "captures": {"completed": completed, "failed": 0}}


def test_cells_match_the_reference(reference):
    tally = run.Cells(0)
    tally.check("timed", run.Pass("fig12"), _result(reference), True)
    assert (tally.attempted, tally.failed) == (1, 0)


def test_cells_that_differ_or_raise_fail(reference):
    tally = run.Cells(0)
    wrong = {"charon/spark-bs": {"dram_bytes": 11, "wall_seconds": 0.5}}
    tally.check("timed", run.Pass("fig12"), _result(wrong), False)
    tally.check("timed", run.Pass("fig12"),
                _result({}, errors={"charon/spark-bs": "Traceback\nBoom"}),
                False)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert "dram_bytes" in tally.problems[0]
    assert "Boom" in tally.problems[1]


def test_a_warm_pass_that_captured_fails_its_cells(reference):
    tally = run.Cells(0)
    tally.check("timed", run.Pass("fig12"),
                _result(reference, completed=2), True)
    assert tally.failed == 1
    assert "captured 2" in tally.problems[0]
    cold = run.Cells(0)
    cold.check("fill", run.Pass("fig12"),
               _result(reference, completed=2), False)
    assert cold.failed == 0


def test_unreferenced_seeds_check_agreement_across_passes(reference):
    tally = run.Cells(7)
    first = {"cpu-ddr4/graphchi-cc": {"dram_bytes": 5}}
    tally.check("fill", run.Pass("fig12"), _result(first), False)
    tally.check("timed", run.Pass("fig12"), _result(first), True)
    assert tally.failed == 0
    tally.check("timed", run.Pass("fig12"), _result(
        {"cpu-ddr4/graphchi-cc": {"dram_bytes": 6}}), True)
    assert tally.failed == 1


def test_the_same_replay_through_two_entry_points_must_agree(reference):
    tally = run.Cells(7)
    grid = {"cpu-ddr4/graphchi-cc": {"dram_bytes": 5}}
    tally.check("fill", run.Pass("fig12"), _result(grid), False)
    tally.check("timed", run.Pass("fig15-cc"), _result(
        {"cpu-ddr4/t8": {"dram_bytes": 5},
         "cpu-ddr4/t4": {"dram_bytes": 9}}), True)
    assert tally.failed == 0
    tally.check("timed", run.Pass("fig15-cc"), _result(
        {"cpu-ddr4/t8": {"dram_bytes": 6}}), True)
    assert tally.failed == 1


# -- names -------------------------------------------------------------------

def test_benchmark_json_lists_what_the_harness_emits(capsys):
    assert run.check(run.load_benchmark()) == 0
