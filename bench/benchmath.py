"""Pure arithmetic of the benchmark: summaries, verdicts, digests.

Nothing here imports the library or starts a process, so
``test_harness.py`` checks all of it in milliseconds.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: Relative tolerance for simulated floats (the golden contract of the
#: fast replay path); integers, strings and ``None`` compare exactly.
FLOAT_REL_TOL = 1e-9

#: ``--compare`` claims a gain only when the change wins at least this
#: share of the paired runs.
WIN_FRACTION = 0.9


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, q3)`` as ``statistics.quantiles(values, n=4)`` gives them.

    One sample has no spread: both quartiles are the sample itself.
    """
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles, sample count and the samples themselves."""
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": list(values)}


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    middle = statistics.median(values)
    if middle == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(middle)


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def win_fraction(base: Sequence[float], change: Sequence[float],
                 better: str) -> Optional[float]:
    """Share of index-paired runs the change wins; ties win for neither.

    ``None`` when the two sides ran a different number of times, so
    there are no pairs.
    """
    if len(base) != len(change) or not base:
        return None
    wins = sum(_better(c, b, better) for b, c in zip(base, change))
    return wins / len(base)


def verdict(base: Sequence[float], change: Sequence[float],
            bound: float, better: str) -> str:
    """``improved``, ``unchanged``, ``regressed`` or ``unresolved``.

    The rules for a small, noisy shared host:

    * a parent spread (inter-quartile distance over median) wider than
      the bound cannot show a regression of that size, so the pair is
      *unresolved* -- unless every change run beats every parent run;
    * *improved* needs the medians to differ by more than the parent's
      own spread and, with paired runs, at least nine wins in ten; a
      single parent sample shows no spread, so then the difference
      must exceed the bound;
    * *regressed* means the change's median is worse than the parent's
      by more than ``bound`` (a share of the parent's median).
    """
    mid_base = statistics.median(base)
    mid_change = statistics.median(change)
    q1, q3 = quartiles(base)
    spread = q3 - q1 if len(base) > 1 else bound * abs(mid_base)
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (mid_base - mid_change)
    all_better = all(_better(c, b, better) for b in base for c in change)
    if relative_spread(base) > bound and not all_better:
        return "unresolved"
    wins = win_fraction(base, change, better)
    if gain > spread and gain > 0 and (wins is None
                                        or wins >= WIN_FRACTION):
        return "improved"
    if mid_base == 0:
        worse = math.inf if gain < 0 else 0.0
    else:
        worse = -gain / abs(mid_base)
    return "regressed" if worse > bound else "unchanged"


def digest_mismatches(expected, actual, path: str = "") -> List[str]:
    """Where ``actual`` differs from ``expected`` (empty when equal).

    Floats agree within :data:`FLOAT_REL_TOL`; every other value --
    integer counters included -- must be identical.
    """
    where = path or "<root>"
    if isinstance(expected, dict) and isinstance(actual, dict):
        problems = []
        for key in sorted(set(expected) | set(actual)):
            if key not in actual:
                problems.append(f"{path}/{key}: missing")
            elif key not in expected:
                problems.append(f"{path}/{key}: unexpected")
            else:
                problems += digest_mismatches(expected[key], actual[key],
                                              f"{path}/{key}")
        return problems
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: {len(actual)} items, expected "
                    f"{len(expected)}"]
        problems = []
        for index, (want, got) in enumerate(zip(expected, actual)):
            problems += digest_mismatches(want, got, f"{path}[{index}]")
        return problems
    if isinstance(expected, float) or isinstance(actual, float):
        if (isinstance(expected, (int, float))
                and isinstance(actual, (int, float))
                and not isinstance(expected, bool)
                and not isinstance(actual, bool)
                and (math.isclose(expected, actual,
                                  rel_tol=FLOAT_REL_TOL)
                     or (math.isnan(expected) and math.isnan(actual)))):
            return []
        return [f"{where}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def fanout_overhead(pooled_sweep_s: float, traced_wall_s: float,
                    traced_replay_s: float, processes: int) -> float:
    """Pooled wall time the fan-out adds over a perfect split.

    A perfect pool would run the serial part (everything but replay)
    once and divide the replay time by the worker count.
    """
    serial = traced_wall_s - traced_replay_s
    return pooled_sweep_s - (serial + traced_replay_s / processes)


def error_pct(model: float, paper: float) -> float:
    """Relative error of a simulated figure against the paper's value."""
    return abs(model - paper) / abs(paper) * 100.0
