"""Execution platforms and the trace replayer.

Five platforms replay GC primitive traces (Sec. 5.2):

* ``cpu-ddr4`` — the baseline: host cores against the DDR4 system;
* ``cpu-hmc`` — host cores against the HMC's external links;
* ``charon`` — primitives offloaded to the HMC logic layer; residual
  work stays on the host (over HMC);
* ``charon-cpuside`` — the Fig. 16 variant: Charon units beside the
  host memory controller;
* ``ideal`` — offloaded primitives complete in zero time.

Use :func:`~repro.platform.factory.build_platform` to construct one
with fresh memory systems, and
:func:`~repro.platform.fast_replay.make_replayer` to run traces on it.
"""

from repro.platform.timing import GCTimingResult, PlatformEnergy
from repro.platform.factory import PLATFORM_NAMES, build_platform
from repro.platform.replay import TraceReplayer
from repro.platform.fast_replay import FastTraceReplayer, make_replayer

__all__ = [
    "GCTimingResult",
    "PlatformEnergy",
    "PLATFORM_NAMES",
    "build_platform",
    "TraceReplayer",
    "FastTraceReplayer",
    "make_replayer",
]
