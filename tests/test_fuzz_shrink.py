"""Direct coverage for the schedule shrinker and reproducer files.

The shrinker is only exercised indirectly elsewhere (through the
injected-bug acceptance test in ``test_fuzz_oracle.py``), so its
guarantees get property-tested here against synthetic failure
predicates whose minimal failing schedules are known exactly:

* the shrunk schedule still fails and is never longer than the input;
* the shrunk schedule is a *subsequence* of the input (the shrinker
  only deletes, never reorders or invents ops);
* for a predicate that needs exactly K ops of one kind, greedy
  deletion converges to exactly K ops;
* reproducer files round-trip byte-identically through
  ``write_reproducer``/``load_reproducer`` and replay through
  ``repro fuzz --replay`` without mutating the file.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.config import default_fuzz_config
from repro.errors import FuzzError
from repro.fuzz import build_schedule
from repro.fuzz.shrink import (load_reproducer, replay_reproducer,
                               shrink_schedule, write_reproducer)
from repro.heap import object_model
from repro.heap.fast_kernels import use_kernel_mode

SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)

CONFIG = default_fuzz_config()

seeds = st.integers(min_value=0, max_value=30)


def is_subsequence(candidate, sequence):
    """True if ``candidate``'s ops appear in ``sequence`` in order."""
    position = 0
    for op in candidate:
        while position < len(sequence) and sequence[position] != op:
            position += 1
        if position == len(sequence):
            return False
        position += 1
    return True


class TestShrinkProperties:
    @SETTINGS
    @given(seeds, st.data())
    def test_shrunk_schedule_still_fails_and_shrank(self, seed, data):
        ops = build_schedule(seed, CONFIG)
        kinds = sorted({op.kind for op in ops})
        kind = data.draw(st.sampled_from(kinds), label="kind")
        available = sum(1 for op in ops if op.kind == kind)
        need = data.draw(st.integers(1, min(3, available)),
                         label="need")

        def fails(candidate):
            return sum(1 for op in candidate
                       if op.kind == kind) >= need

        minimized = shrink_schedule(ops, fails, rounds=2)
        assert fails(minimized)
        assert len(minimized) <= len(ops)
        assert is_subsequence(minimized, ops)
        # Every op the predicate doesn't count is deletable one at a
        # time, so greedy removal must reach the exact minimum.
        assert len(minimized) == need
        assert all(op.kind == kind for op in minimized)

    @SETTINGS
    @given(seeds)
    def test_prefix_bisection_finds_first_failure(self, seed):
        ops = build_schedule(seed, CONFIG)
        # Fails as soon as the schedule reaches half its length: the
        # minimal failing schedule is any half-length subsequence.
        threshold = max(1, len(ops) // 2)

        def fails(candidate):
            return len(candidate) >= threshold

        minimized = shrink_schedule(ops, fails, rounds=2)
        assert len(minimized) == threshold

    def test_passing_schedule_rejected(self):
        ops = build_schedule(0, CONFIG)
        with pytest.raises(FuzzError):
            shrink_schedule(ops, lambda candidate: False)


class TestReproducerRoundTrip:
    @SETTINGS
    @given(seeds)
    def test_write_load_write_is_byte_identical(self, tmp_path_factory,
                                                seed):
        tmp_path = tmp_path_factory.mktemp("repro")
        ops = build_schedule(seed, CONFIG)[:25]
        first = tmp_path / f"first-{seed}.json"
        second = tmp_path / f"second-{seed}.json"
        write_reproducer(first, ops, seed, ("minor", "g1"),
                         "synthetic", CONFIG)
        loaded = load_reproducer(first)
        assert loaded["ops"] == ops[:25]
        write_reproducer(second, loaded["ops"], loaded["seed"],
                         loaded["collectors"], loaded["message"],
                         CONFIG)
        assert first.read_bytes() == second.read_bytes()

    def test_ops_survive_json_exactly(self, tmp_path):
        ops = build_schedule(3, CONFIG)
        path = tmp_path / "repro.json"
        write_reproducer(path, ops, 3, ("minor",), "msg", CONFIG)
        payload = json.loads(path.read_text())
        assert payload["ops"] == [op.to_dict() for op in ops]
        assert payload["version"] == 1

    def test_cli_replay_passes_and_leaves_file_untouched(self,
                                                         tmp_path,
                                                         capsys):
        ops = build_schedule(2, CONFIG)[:30]
        path = tmp_path / "repro.json"
        write_reproducer(path, ops, 2, ("minor", "sweep"),
                         "was: fixed", CONFIG)
        before = path.read_bytes()
        assert cli_main(["fuzz", "--replay", str(path)]) == 0
        assert "reproducer" in capsys.readouterr().out
        assert path.read_bytes() == before
        results = replay_reproducer(path)
        assert len(results) == 2
        assert all(r.final_fingerprint for r in results)

    def test_cli_replay_fails_while_bug_present(self, tmp_path,
                                                monkeypatch, capsys):
        # The injected forwarding skew from the oracle acceptance test:
        # the reproducer must keep failing until the bug is fixed.
        original = object_model.MarkWord.forwarded_to
        monkeypatch.setattr(
            object_model.MarkWord, "forwarded_to",
            lambda self, addr: original(self, addr + 8))
        ops = build_schedule(7, CONFIG)
        path = tmp_path / "repro.json"
        write_reproducer(path, ops, 7, ("minor",), "skew", CONFIG)
        # The skew reaches the scalar scavenge only (the fast one
        # forwards in C).
        with use_kernel_mode("scalar"):
            assert cli_main(["fuzz", "--replay", str(path)]) == 1
        assert "still" in capsys.readouterr().out
