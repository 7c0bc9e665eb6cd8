"""The shared bitmap cache (Sec. 4.5).

An 8 KB, 8-way, 32 B-block write-back cache dedicated to mark-bitmap
accesses, shared by the Bitmap Count unit (compaction-phase reads) and
the Scan&Push unit (``mark_obj`` read-modify-writes during marking).
The two phases never overlap, and the cache is flushed after each for
coherence with the host.

The hit rate is *measured*, not assumed: real tags and LRU run against
the real bitmap addresses from the trace.  It approaches the paper's
~90% only on the graphchi MajorGC streams (about 0.86 over Fig. 12);
on the small workloads it is near 0 (0.0012 aggregated over every
figure and ablation of the five small-trace workloads).  Like the TLB,
the single lookup port is a fluid resource so the unified organisation
shows contention at scale (Fig. 15), and off-cube users of the unified
cache pay the serial-link round trip.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cpu.cache import SetAssociativeCache
from repro.sim.resources import FluidResource


class BitmapCache:
    """One physical bitmap cache (unified, or one distributed slice)."""

    PORT_RATE = 1.0e9  # one access per logic-layer cycle

    def __init__(self, name: str, home_cube: int, size_bytes: int,
                 ways: int, line_bytes: int, link_latency_s: float,
                 memory_latency_s: float, enabled: bool = True) -> None:
        self.name = name
        self.home_cube = home_cube
        self.cache = SetAssociativeCache(size_bytes, ways, line_bytes,
                                         name=name)
        self.port = FluidResource(f"{name}.port", rate=self.PORT_RATE)
        self.link_latency_s = link_latency_s
        self.memory_latency_s = memory_latency_s
        #: ablation: with the cache disabled, every access misses (and
        #: still suffers the 16 B minimum-granularity overfetch the
        #: paper describes for mark_obj RMWs).
        self.enabled = enabled
        self.flushes = 0
        # Read accesses are the Bitmap Count unit's; writes are the
        # Scan&Push unit's mark RMWs.  The paper's ~90% figure is for
        # the former, so they are tracked separately.
        self.read_hits = 0
        self.read_accesses = 0

    @property
    def line_bytes(self) -> int:
        return self.cache.line_bytes

    def access(self, now: float, addr: int, is_write: bool,
               from_cube: int) -> Tuple[bool, float]:
        """One bitmap access; returns ``(hit, completion_time)``.

        A miss costs the cube's memory access latency on top of the
        port occupancy; remote users of a unified cache pay the link
        round trip either way.
        """
        if self.enabled:
            hit = self.cache.access(addr, is_write)
        else:
            hit = False
        if not is_write:
            self.read_accesses += 1
            self.read_hits += int(hit)
        finish = self.port.reserve(now, 1)
        if not hit:
            finish += self.memory_latency_s
            if is_write and not self.enabled:
                # An uncached RMW pays the write-back round trip too
                # (a cached write miss allocates and defers it).
                finish += self.memory_latency_s
        if from_cube != self.home_cube:
            finish += 2 * self.link_latency_s
        return hit, finish

    def record_reads(self, accesses: int, hits: int) -> None:
        """Fold a chunk of read-access statistics into the counters.

        The batched replay kernel runs the real tag/LRU state machine
        (``self.cache``) event by event — hit/miss outcomes are order-
        dependent — but accumulates the read counters locally in its
        tight loop and deposits them here once per phase.
        """
        if accesses < 0 or hits < 0 or hits > accesses:
            raise ValueError("inconsistent bitmap-cache read batch")
        self.read_accesses += accesses
        self.read_hits += hits

    def flush(self) -> int:
        """Write back and invalidate (after each MajorGC phase)."""
        self.flushes += 1
        return self.cache.flush()

    @property
    def hit_rate(self) -> float:
        return self.cache.hit_rate

    @property
    def read_hit_rate(self) -> float:
        if not self.read_accesses:
            return 0.0
        return self.read_hits / self.read_accesses


class BitmapCacheComplex:
    """Unified cache on the central cube, or per-cube slices."""

    def __init__(self, cubes: int, central_cube: int, size_bytes: int,
                 ways: int, line_bytes: int, link_latency_s: float,
                 memory_latency_s: float, distributed: bool,
                 enabled: bool = True) -> None:
        self.distributed = distributed
        self.central_cube = central_cube
        if distributed:
            self.slices: List[BitmapCache] = [
                BitmapCache(f"bitmap-cache.cube{cube}", cube, size_bytes,
                            ways, line_bytes, link_latency_s,
                            memory_latency_s, enabled=enabled)
                for cube in range(cubes)
            ]
        else:
            self.slices = [BitmapCache("bitmap-cache.unified",
                                       central_cube, size_bytes, ways,
                                       line_bytes, link_latency_s,
                                       memory_latency_s,
                                       enabled=enabled)]

    def slice_for(self, owner_cube: int) -> BitmapCache:
        """The slice holding data homed on ``owner_cube``."""
        if self.distributed:
            return self.slices[owner_cube]
        return self.slices[0]

    def access(self, now: float, addr: int, is_write: bool,
               from_cube: int, owner_cube: int) -> Tuple[bool, float]:
        return self.slice_for(owner_cube).access(now, addr, is_write,
                                                 from_cube)

    def flush_all(self) -> int:
        return sum(s.flush() for s in self.slices)

    @property
    def hit_rate(self) -> float:
        accesses = sum(s.cache.accesses for s in self.slices)
        hits = sum(s.cache.hits for s in self.slices)
        return hits / accesses if accesses else 0.0

    @property
    def read_hit_rate(self) -> float:
        """Hit rate of the Bitmap Count unit's (read) accesses."""
        accesses = sum(s.read_accesses for s in self.slices)
        hits = sum(s.read_hits for s in self.slices)
        return hits / accesses if accesses else 0.0
