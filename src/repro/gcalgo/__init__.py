"""Garbage collectors over the managed heap.

Three collectors, all emitting primitive traces for the timing layer:

* :class:`~repro.gcalgo.parallel_scavenge.MinorGC` — the copying
  scavenge of ParallelScavenge (Fig. 3a): card-table Search, object
  evacuation with aging/promotion, Scan&Push traversal;
* :class:`~repro.gcalgo.mark_compact.MajorGC` — mark-compact
  (Fig. 3b): Scan&Push marking into begin/end bitmaps, summary,
  Bitmap-Count-driven pointer adjustment and sliding compaction;
* :class:`~repro.gcalgo.mark_sweep.MarkSweepGC` — a CMS-like
  non-compacting old-generation collector used for the Table 1
  applicability study (Copy/Search and Scan&Push apply; Bitmap Count
  does not);
* :class:`~repro.gcalgo.g1.G1Collector` — a simplified Garbage-First
  regional collector demonstrating the Table 1 G1 row (all four
  primitives, Bitmap Count "with minor fix" for region liveness);
* :class:`~repro.gcalgo.concurrent_mark.ConcurrentMarkGC` — a
  region-based SATB concurrent-marking collector whose cycle
  interleaves with the mutator (Scan&Push marking and write-barrier
  drains, Bitmap Count liveness; non-moving, so no Copy/Search).
"""

from repro.gcalgo.trace import GCTrace, Primitive, TraceEvent
from repro.gcalgo.stack import ObjectStack
from repro.gcalgo.parallel_scavenge import MinorGC
from repro.gcalgo.mark_compact import MajorGC
from repro.gcalgo.mark_sweep import MarkSweepGC
from repro.gcalgo.g1 import G1Collector
from repro.gcalgo.concurrent_mark import ConcurrentMarkGC
from repro.gcalgo.gclog import format_gc_line, format_gc_log

__all__ = [
    "GCTrace",
    "Primitive",
    "TraceEvent",
    "ObjectStack",
    "MinorGC",
    "MajorGC",
    "MarkSweepGC",
    "G1Collector",
    "ConcurrentMarkGC",
    "format_gc_line",
    "format_gc_log",
]
