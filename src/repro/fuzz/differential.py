"""Differential runner: one schedule, every collector, cross-checked.

Each collector backend replays the same seeded mutation schedule on its
own fresh heap with the reachability oracle hooked around every
collection.  Afterwards the runner cross-checks the backends against
each other: the canonical live-graph fingerprint after every explicit
``gc`` op — and at the end of the schedule — must agree across all of
them, because the schedule defines the logical heap state and a correct
collector must preserve it no matter how it moves objects around.

A schedule that exhausts the heap under some backend is *infeasible*
(reported, skipped) rather than a failure: heap exhaustion is a
schedule-sizing artifact, not a collector bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import FuzzConfig, default_fuzz_config
from repro.errors import (FuzzError, HeapError, InfeasibleSchedule,
                          OracleViolation)
from repro.fuzz.executor import (COLLECTOR_MODES, ExecutionResult,
                                 ScheduleExecutor)
from repro.fuzz.generator import FuzzOp, build_schedule
from repro.heap.fast_kernels import use_kernel_mode


@dataclass
class FuzzFailure:
    """One oracle violation or cross-collector divergence."""

    seed: Optional[int]
    collector: str
    message: str
    ops: List[FuzzOp] = field(default_factory=list)

    def describe(self) -> str:
        return (f"seed={self.seed} collector={self.collector} "
                f"ops={len(self.ops)}: {self.message}")


@dataclass
class SeedResult:
    """Outcome of one seed across all requested collectors."""

    seed: Optional[int]
    status: str  #: "ok" | "infeasible" | "failed"
    collectors: Tuple[str, ...] = ()
    ops: int = 0
    collections_checked: int = 0
    live_objects: int = 0
    failure: Optional[FuzzFailure] = None
    detail: str = ""
    #: per-collector ``(steps executed, steps applicable)`` — how much
    #: of the generated schedule each backend actually exercised.
    step_counts: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def step_coverage(self) -> float:
        """Worst per-collector coverage ratio (1.0 when nothing ran)."""
        ratios = [executed / applicable
                  for executed, applicable in self.step_counts.values()
                  if applicable]
        return min(ratios) if ratios else 1.0


def run_schedule(ops: Sequence[FuzzOp], collector: str,
                 config: Optional[FuzzConfig] = None,
                 use_oracle: bool = True,
                 seed: Optional[int] = None,
                 kernels: Optional[str] = None) -> ExecutionResult:
    """Replay ``ops`` under one collector with the oracle installed."""
    config = config or default_fuzz_config()
    executor = ScheduleExecutor(collector, config,
                                use_oracle=use_oracle, seed=seed,
                                kernels=kernels)
    return executor.execute(list(ops))


def _cross_check(results: Dict[str, ExecutionResult]) -> None:
    """All backends must agree on every differential fingerprint."""
    names = list(results)
    base = results[names[0]]
    for name in names[1:]:
        other = results[name]
        if other.final_fingerprint != base.final_fingerprint:
            raise OracleViolation(
                f"final live graphs diverge: {names[0]} "
                f"({base.live_objects} objects) vs {name} "
                f"({other.live_objects} objects)")
        if len(other.gc_fingerprints) != len(base.gc_fingerprints):
            raise OracleViolation(
                f"{names[0]} ran {len(base.gc_fingerprints)} explicit "
                f"GCs but {name} ran {len(other.gc_fingerprints)}")
        for index, (a, b) in enumerate(zip(base.gc_fingerprints,
                                           other.gc_fingerprints)):
            if a != b:
                raise OracleViolation(
                    f"live graphs diverge after explicit GC #{index}: "
                    f"{names[0]} vs {name}")


def _assert_kernel_equivalence(collector: str,
                               scalar: ExecutionResult,
                               fast: ExecutionResult) -> None:
    """Scalar and fast kernels must be observationally identical.

    The fast kernels promise *bit-exactness*, which is much stronger
    than the live-graph agreement the cross-collector check settles
    for: every GCTrace event stream, every residual-cost account, the
    final heap buffer, the root table, the card table and the mark
    bitmaps must match byte for byte.
    """
    if len(scalar.traces) != len(fast.traces):
        raise OracleViolation(
            f"[{collector}] scalar ran {len(scalar.traces)} "
            f"collections but fast ran {len(fast.traces)}")
    for index, (a, b) in enumerate(zip(scalar.traces, fast.traces)):
        if a.kind != b.kind:
            raise OracleViolation(
                f"[{collector}] collection #{index} kind differs: "
                f"{a.kind} vs {b.kind}")
        if a.phase_names != b.phase_names \
                or not np.array_equal(a.events, b.events):
            for pos, (ea, eb) in enumerate(zip(a.iter_events(),
                                               b.iter_events())):
                if ea != eb:
                    raise OracleViolation(
                        f"[{collector}] collection #{index} ({a.kind}) "
                        f"event #{pos} differs: {ea} vs {eb}")
            raise OracleViolation(
                f"[{collector}] collection #{index} ({a.kind}) event "
                f"streams differ: {len(a.events)} vs {len(b.events)} "
                f"events, phases {a.phase_names} vs {b.phase_names}")
        # Items in order: the replayers walk residual-only phases in
        # insertion order, which dict equality ignores.
        if list(a.residuals.items()) != list(b.residuals.items()):
            raise OracleViolation(
                f"[{collector}] collection #{index} ({a.kind}) "
                f"residuals differ: {a.residuals} vs {b.residuals}")
        if a.summary() != b.summary():
            raise OracleViolation(
                f"[{collector}] collection #{index} ({a.kind}) "
                f"summaries differ")
    heap_a, heap_b = scalar.heap, fast.heap
    assert heap_a is not None and heap_b is not None
    if bytes(heap_a.buffer) != bytes(heap_b.buffer):
        diff = [i for i, (x, y) in enumerate(zip(heap_a.buffer,
                                                 heap_b.buffer))
                if x != y]
        raise OracleViolation(
            f"[{collector}] final heap buffers differ at "
            f"{len(diff)} bytes (first at offset {diff[0]:#x})")
    if list(heap_a.roots) != list(heap_b.roots):
        raise OracleViolation(f"[{collector}] root tables differ")
    layout_a, layout_b = heap_a.layout, heap_b.layout
    tops_a = (layout_a.eden.top, layout_a.survivor_from.top,
              layout_a.survivor_to.top, layout_a.old.top)
    tops_b = (layout_b.eden.top, layout_b.survivor_from.top,
              layout_b.survivor_to.top, layout_b.old.top)
    if tops_a != tops_b:
        raise OracleViolation(
            f"[{collector}] space tops differ: {tops_a} vs {tops_b}")
    if (heap_a.card_table.bytes.tobytes()
            != heap_b.card_table.bytes.tobytes()):
        raise OracleViolation(f"[{collector}] card tables differ")
    if (heap_a.bitmaps.beg.tobytes() != heap_b.bitmaps.beg.tobytes()
            or heap_a.bitmaps.end.tobytes()
            != heap_b.bitmaps.end.tobytes()):
        raise OracleViolation(f"[{collector}] mark bitmaps differ")


def compare_kernel_modes(seed: int,
                         config: Optional[FuzzConfig] = None,
                         collectors: Optional[Sequence[str]] = None
                         ) -> SeedResult:
    """Replay one seed per collector under scalar *and* fast kernels.

    The reachability oracle is off (both replays are checked against
    each other instead, to a far tighter standard), so this is cheap
    enough to run over many seeds.
    """
    config = config or default_fuzz_config()
    collectors = tuple(collectors or config.collectors)
    for name in collectors:
        if name not in COLLECTOR_MODES:
            raise FuzzError(f"unknown collector {name!r}; choose from "
                            f"{', '.join(COLLECTOR_MODES)}")
    ops = build_schedule(seed, config)
    collections = 0
    live_objects = 0
    step_counts: Dict[str, Tuple[int, int]] = {}
    for name in collectors:
        try:
            scalar = run_schedule(ops, name, config, use_oracle=False,
                                  seed=seed, kernels="scalar")
            fast = run_schedule(ops, name, config, use_oracle=False,
                                seed=seed, kernels="fast")
        except InfeasibleSchedule as error:
            return SeedResult(seed=seed, status="infeasible",
                              collectors=collectors, ops=len(ops),
                              detail=str(error))
        except (FuzzError, HeapError) as error:
            return SeedResult(
                seed=seed, status="failed", collectors=collectors,
                ops=len(ops),
                failure=FuzzFailure(seed=seed, collector=name,
                                    message=str(error), ops=ops))
        try:
            _assert_kernel_equivalence(name, scalar, fast)
        except OracleViolation as error:
            return SeedResult(
                seed=seed, status="failed", collectors=collectors,
                ops=len(ops),
                failure=FuzzFailure(seed=seed, collector=name,
                                    message=str(error), ops=ops))
        collections += len(scalar.traces)
        live_objects = scalar.live_objects
        step_counts[name] = (scalar.steps_executed,
                             scalar.steps_applicable)
    return SeedResult(seed=seed, status="ok", collectors=collectors,
                      ops=len(ops), collections_checked=collections,
                      live_objects=live_objects,
                      step_counts=step_counts)


def run_seed(seed: int, config: Optional[FuzzConfig] = None,
             collectors: Optional[Sequence[str]] = None) -> SeedResult:
    """Build the schedule for ``seed`` and run it differentially."""
    config = config or default_fuzz_config()
    collectors = tuple(collectors or config.collectors)
    for name in collectors:
        if name not in COLLECTOR_MODES:
            raise FuzzError(f"unknown collector {name!r}; choose from "
                            f"{', '.join(COLLECTOR_MODES)}")
    ops = build_schedule(seed, config)
    results: Dict[str, ExecutionResult] = {}
    for name in collectors:
        try:
            results[name] = run_schedule(ops, name, config, seed=seed)
        except InfeasibleSchedule as error:
            return SeedResult(seed=seed, status="infeasible",
                              collectors=collectors, ops=len(ops),
                              detail=str(error))
        except (FuzzError, HeapError) as error:
            # HeapError outside the guarded OOM paths means the
            # mutator tripped over corruption a collection left behind
            # — as much a finding as an explicit oracle violation.
            return SeedResult(
                seed=seed, status="failed", collectors=collectors,
                ops=len(ops),
                failure=FuzzFailure(seed=seed, collector=name,
                                    message=str(error), ops=ops))
    try:
        _cross_check(results)
    except OracleViolation as error:
        return SeedResult(
            seed=seed, status="failed", collectors=collectors,
            ops=len(ops),
            failure=FuzzFailure(seed=seed, collector="differential",
                                message=str(error), ops=ops))
    checked = sum(r.collections_checked for r in results.values())
    any_result = results[collectors[0]]
    return SeedResult(seed=seed, status="ok", collectors=collectors,
                      ops=len(ops), collections_checked=checked,
                      live_objects=any_result.live_objects,
                      step_counts={
                          name: (r.steps_executed, r.steps_applicable)
                          for name, r in results.items()})


#: Backwards-friendly alias: a "fuzz" of one seed is one differential run.
fuzz_seed = run_seed
