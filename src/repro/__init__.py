"""Charon reproduction: a near-memory GC accelerator and its world.

This package reproduces *Charon: Specialized Near-Memory Processing
Architecture for Clearing Dead Objects in Memory* (Jang et al.,
MICRO-52, 2019) as a self-contained Python system:

* :mod:`repro.heap` + :mod:`repro.gcalgo` - a functional HotSpot-like
  managed heap with ParallelScavenge-style Minor/Major collectors that
  emit primitive traces;
* :mod:`repro.core` - the Charon device: Copy/Search, Bitmap Count and
  Scan&Push units in the HMC logic layer, with MAI, accelerator TLB
  and bitmap cache;
* :mod:`repro.mem`, :mod:`repro.cpu`, :mod:`repro.sim` - the
  cycle-approximate platform models (DDR4, HMC, OoO host);
* :mod:`repro.platform` - trace replay across the five evaluation
  platforms;
* :mod:`repro.workloads` - the six Table 3 applications, scaled;
* :mod:`repro.experiments` - one generator per results table/figure.

Quickstart::

    from repro import (JavaHeap, MinorGC, build_platform, TraceReplayer,
                       default_config)

    config = default_config()
    heap = JavaHeap(config.heap)
    obj = heap.new_object("typeArray", length=1024)
    heap.roots.append(obj.addr)
    trace = MinorGC(heap).collect()
    platform = build_platform("charon", config)
    result = TraceReplayer(platform).replay(trace)
    print(result.wall_seconds)
"""

from repro.config import SystemConfig, default_config, scaled_heap_bytes
from repro.core import CharonDevice, CharonRuntime
from repro.errors import (ConfigError, OutOfMemoryError, ProtectionFault,
                          ReproError)
from repro.gcalgo import (G1Collector, GCTrace, MajorGC, MarkSweepGC,
                          MinorGC, Primitive)
from repro.heap import JavaHeap
from repro.platform import (GCTimingResult, PLATFORM_NAMES,
                            TraceReplayer, build_platform)
from repro.workloads import WORKLOAD_NAMES, run_workload

__version__ = "1.0.0"

__all__ = [
    "SystemConfig",
    "default_config",
    "scaled_heap_bytes",
    "CharonDevice",
    "CharonRuntime",
    "ReproError",
    "ConfigError",
    "OutOfMemoryError",
    "ProtectionFault",
    "GCTrace",
    "Primitive",
    "MinorGC",
    "MajorGC",
    "MarkSweepGC",
    "G1Collector",
    "JavaHeap",
    "GCTimingResult",
    "PLATFORM_NAMES",
    "TraceReplayer",
    "build_platform",
    "WORKLOAD_NAMES",
    "run_workload",
]
