"""Cycle-approximate discrete-event simulation engine.

The timing layer of the reproduction replays GC primitive traces on
platform models.  Rather than simulating individual DRAM commands, memory
resources are *fluid-flow servers* (:class:`~repro.sim.resources.FluidResource`):
a transfer of ``B`` bytes occupies a resource for ``B / rate`` seconds after
queueing behind earlier traffic, plus a fixed access latency.  This is the
standard approximation for bandwidth-bound accelerators and matches the
paper's observation that the offloaded primitives are throughput-, not
command-, limited.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.resources import FluidResource, LatencyLink, ResourcePath

__all__ = [
    "Event",
    "Simulator",
    "FluidResource",
    "LatencyLink",
    "ResourcePath",
]
