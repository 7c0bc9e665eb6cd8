#!/usr/bin/env python
"""Benchmark cold-cache GC trace generation: scalar vs fast kernels.

Builds one deterministic, seeded heap scenario per collector (minor /
major / sweep / g1), then times the collection itself — the functional
layer generating a GCTrace from a cold heap — under the scalar oracle
kernels and the vectorized fast kernels, interleaved best-of-N on
freshly rebuilt heaps.  An equivalence pass first asserts the two
modes produce identical trace event streams, residuals, summaries and
byte-identical post-GC heap buffers (the fast kernels' bit-exactness
contract), plus one end-to-end row: the TinySpark workload's full
cold trace generation under each mode.

Writes ``BENCH_collect.json`` and exits non-zero if any scenario
diverges or the combined minor+major generation speedup misses the
tentpole's >=3x floor.  Used by ``scripts/bench_smoke.py`` and the CI
``bench-smoke`` job; runnable locally with
``python scripts/bench_collect.py [OUT.json]``.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

#: The acceptance floor applies to minor+major combined: the two
#: compacting collectors dominate end-to-end trace generation.
FLOOR = 3.0
FLOOR_SCENARIOS = ("minor", "major")
REPEATS = 3
HEAP_BYTES = 32 * 1024 * 1024
SEED = 1234


def _populate_classic(seed: int):
    """A driver-fronted heap with live+garbage old and young objects."""
    from repro.config import HeapConfig
    from repro.heap.heap import JavaHeap
    from repro.workloads.base import workload_klasses
    from repro.workloads.mutator import MutatorDriver

    rng = random.Random(seed)
    heap = JavaHeap(HeapConfig(heap_bytes=HEAP_BYTES),
                    klasses=workload_klasses())
    driver = MutatorDriver(heap, run_name="bench-collect")
    old = heap.layout.old

    # Old generation: record clusters hanging off rooted arrays, with
    # interleaved garbage so compaction and sweeping both have work.
    clusters = []
    for _ in range(60):
        array = heap.new_object("objArray", length=32, space=old)
        keep = rng.random() < 0.7
        if keep:
            driver.handle(array.addr)
            clusters.append(array.addr)
        for index in range(32):
            record = heap.new_object("Record", space=old)
            if rng.random() < 0.6:
                heap.array_store(array.addr, index, record.addr)
        for _ in range(rng.randrange(8)):
            heap.new_object("Box", space=old)  # immediate garbage

    # Young generation: records and boxes, some rooted, some linked
    # from old-generation slots (dirtying cards for the card search).
    young = []
    for _ in range(4000):
        record = driver.allocate("Record")
        if rng.random() < 0.35:
            driver.handle(record.addr)
        if rng.random() < 0.2 and clusters:
            array_addr = rng.choice(clusters)
            heap.array_store(array_addr, rng.randrange(32), record.addr)
        if young and rng.random() < 0.5:
            heap.set_field(record, 0, rng.choice(young))
        young.append(record.addr)
    return driver


def _populate_g1(seed: int):
    """A populated regional heap with cross-region references."""
    from repro.config import HeapConfig
    from repro.gcalgo.g1 import G1Collector
    from repro.heap.heap import JavaHeap
    from repro.workloads.base import workload_klasses

    rng = random.Random(seed)
    heap = JavaHeap(HeapConfig(heap_bytes=HEAP_BYTES),
                    klasses=workload_klasses())
    collector = G1Collector(heap)
    arrays = []
    for _ in range(40):
        array = collector.allocate("objArray", length=24)
        if rng.random() < 0.7:
            heap.roots.append(array.addr)
            arrays.append(array.addr)
        for index in range(24):
            record = collector.allocate("Record")
            if rng.random() < 0.6:
                heap.array_store(array.addr, index, record.addr)
        for _ in range(rng.randrange(6)):
            collector.allocate("Box")  # garbage
    for _ in range(1500):
        record = collector.allocate("Record")
        if rng.random() < 0.3:
            heap.roots.append(record.addr)
        if arrays and rng.random() < 0.3:
            heap.array_store(rng.choice(arrays), rng.randrange(24),
                             record.addr)
    return collector


def _scenario(name: str, seed: int):
    """``(build, collect)`` callables for one collector scenario."""
    if name == "g1":
        return (lambda: _populate_g1(seed),
                lambda collector: collector.collect())
    build = lambda: _populate_classic(seed)  # noqa: E731
    if name == "minor":
        return build, lambda driver: driver.minor_gc()
    if name == "major":
        return build, lambda driver: driver.major_gc()
    return build, lambda driver: driver.sweep_gc()


def _final_traces(subject):
    from repro.gcalgo.g1 import G1Collector

    if isinstance(subject, G1Collector):
        return subject.traces
    return subject.run.traces


def _heap_of(subject):
    return subject.heap


def _check_equivalence(name: str, seed: int):
    """Run one scenario under both modes; assert bit-exactness."""
    from repro.heap.fast_kernels import use_kernel_mode

    build, collect = _scenario(name, seed)
    captured = {}
    for mode in ("scalar", "fast"):
        with use_kernel_mode(mode):
            subject = build()
            collect(subject)
        captured[mode] = (_final_traces(subject), _heap_of(subject))
    traces_a, heap_a = captured["scalar"]
    traces_b, heap_b = captured["fast"]
    if len(traces_a) != len(traces_b):
        return f"{name}: trace counts differ"
    for index, (a, b) in enumerate(zip(traces_a, traces_b)):
        if a.kind != b.kind or a.phase_names != b.phase_names \
                or not np.array_equal(a.events, b.events):
            return f"{name}: trace #{index} events differ"
        if list(a.residuals.items()) != list(b.residuals.items()):
            return f"{name}: trace #{index} residuals differ"
        if a.summary() != b.summary():
            return f"{name}: trace #{index} summaries differ"
    if bytes(heap_a.buffer) != bytes(heap_b.buffer):
        return f"{name}: post-GC heap buffers differ"
    return None


def _time_collect(name: str, seed: int, mode: str) -> float:
    """Cold generation time of the scenario's timed collection."""
    from repro.heap.fast_kernels import use_kernel_mode

    build, collect = _scenario(name, seed)
    with use_kernel_mode(mode):
        subject = build()
        start = time.perf_counter()
        collect(subject)
        return time.perf_counter() - start


def _time_end_to_end(mode: str) -> float:
    """Full cold trace generation for the TinySpark workload."""
    from repro.heap.fast_kernels import use_kernel_mode

    from tests.conftest import TinySpark

    with use_kernel_mode(mode):
        start = time.perf_counter()
        TinySpark().run()
        return time.perf_counter() - start


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 \
        else REPO / "BENCH_collect.json"
    from bench_meta import bench_metadata

    report = {"heap_bytes": HEAP_BYTES, "seed": SEED,
              "repeats": REPEATS, "floor": FLOOR,
              "floor_scenarios": list(FLOOR_SCENARIOS),
              "scenarios": {}, **bench_metadata()}
    failures = []
    floor_scalar = floor_fast = 0.0
    for name in ("minor", "major", "sweep", "g1"):
        divergence = _check_equivalence(name, SEED)
        if divergence:
            failures.append(divergence)
        best_scalar = best_fast = float("inf")
        for _ in range(REPEATS):
            best_scalar = min(best_scalar,
                              _time_collect(name, SEED, "scalar"))
            best_fast = min(best_fast,
                            _time_collect(name, SEED, "fast"))
        speedup = best_scalar / best_fast
        report["scenarios"][name] = {
            "scalar_seconds": best_scalar,
            "fast_seconds": best_fast,
            "speedup": speedup,
            "equivalent": divergence is None,
        }
        print(f"{name:8s} scalar={best_scalar * 1e3:8.2f}ms "
              f"fast={best_fast * 1e3:8.2f}ms "
              f"speedup={speedup:5.1f}x "
              f"equivalence={'ok' if divergence is None else 'FAILED'}")
        if name in FLOOR_SCENARIOS:
            floor_scalar += best_scalar
            floor_fast += best_fast

    combined = floor_scalar / floor_fast
    report["combined_minor_major_speedup"] = combined
    print(f"combined minor+major speedup: {combined:.1f}x "
          f"(floor {FLOOR:.0f}x)")
    if combined < FLOOR:
        failures.append(f"combined minor+major speedup {combined:.1f}x "
                        f"is below the {FLOOR:.0f}x floor")

    best_scalar = best_fast = float("inf")
    for _ in range(REPEATS):
        best_scalar = min(best_scalar, _time_end_to_end("scalar"))
        best_fast = min(best_fast, _time_end_to_end("fast"))
    report["end_to_end"] = {
        "workload": "spark-bs (TinySpark test trace set)",
        "scalar_seconds": best_scalar,
        "fast_seconds": best_fast,
        "speedup": best_scalar / best_fast,
    }
    print(f"end-to-end TinySpark: scalar={best_scalar:6.2f}s "
          f"fast={best_fast:6.2f}s "
          f"speedup={best_scalar / best_fast:5.1f}x")

    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    for failure in failures:
        print(f"bench collect: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
