"""Accelerator-side TLB (Sec. 4.6).

At application launch the heap's pinned huge pages are duplicated into
DRAM-side TLB entries, so steady-state execution sees no accelerator TLB
misses or page faults.  Entries are tagged with the process-context id
(PCID), giving multi-process isolation for free, and non-pinned pages
are simply absent — an access outside the pinned heap faults, which is
the admission-control behaviour the paper describes.

Two physical organisations exist (Sec. 4.6 / Fig. 15):

* **unified** — one TLB on the central cube; lookups from other cubes
  cross a serial link both ways and contend for the single port;
* **distributed** — a slice per cube holding only that cube's local
  pages, so local lookups stay on-cube; a lookup for a remote page is
  answered by the owning cube's slice.

The port is a fluid resource so Fig. 15's contention effects emerge.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import ProtectionFault
from repro.mem.vm import VirtualMemory
from repro.sim.resources import FluidResource


class AcceleratorTLB:
    """One TLB structure (the unified TLB, or one distributed slice)."""

    #: single-ported lookup pipeline: one lookup per logic-layer cycle.
    PORT_RATE = 1.0e9

    def __init__(self, name: str, home_cube: int,
                 link_latency_s: float) -> None:
        self.name = name
        self.home_cube = home_cube
        self.link_latency_s = link_latency_s
        self.entries: Dict[Tuple[int, int], int] = {}  # (pcid, page) -> cube
        self.port = FluidResource(f"{name}.port", rate=self.PORT_RATE)
        self.lookups = 0
        self.remote_lookups = 0
        self._page_sizes: List[int] = []

    def load_from(self, vm: VirtualMemory, pcid: int = 0,
                  only_cube: Optional[int] = None) -> int:
        """Duplicate pinned page entries from the OS page table.

        Entries cover both page-size classes (huge heap pages and the
        finer metadata pages).  ``only_cube`` restricts loading to
        pages homed on one cube (the distributed organisation).
        Returns the entry count loaded.
        """
        loaded = 0
        sizes = set(self._page_sizes)
        for mapping in vm.pinned_pages(pcid):
            if only_cube is not None and mapping.cube != only_cube:
                continue
            self.entries[(pcid, mapping.vaddr)] = mapping.cube
            sizes.add(mapping.page_bytes)
            loaded += 1
        self._page_sizes = sorted(sizes)
        return loaded

    def resolve(self, vaddr: int, pcid: int) -> int:
        """The cube of ``vaddr``'s entry, without occupying the port; a
        missing entry is a protection fault (pinned pages never miss;
        anything else is not Charon-accessible)."""
        if not self._page_sizes:
            raise ProtectionFault(f"TLB {self.name} was never loaded")
        for page_bytes in self._page_sizes:
            cube = self.entries.get((pcid, vaddr - (vaddr % page_bytes)))
            if cube is not None:
                return cube
        raise ProtectionFault(
            f"accelerator TLB {self.name}: no pinned mapping for "
            f"{vaddr:#x} (pcid {pcid})")

    def lookup(self, now: float, vaddr: int, pcid: int,
               from_cube: int) -> Tuple[int, float]:
        """Translate; returns ``(cube, completion_time)``.

        The lookup occupies the port; callers off-cube pay the link
        round trip.  A missing entry faults as in :meth:`resolve`.
        """
        cube = self.resolve(vaddr, pcid)
        self.lookups += 1
        finish = self.port.reserve(now, 1)
        if from_cube != self.home_cube:
            self.remote_lookups += 1
            finish += 2 * self.link_latency_s
        return cube, finish


class TLBComplex:
    """The system's TLB organisation: unified or distributed slices."""

    def __init__(self, cubes: int, central_cube: int,
                 link_latency_s: float, distributed: bool) -> None:
        self.distributed = distributed
        self.central_cube = central_cube
        if distributed:
            self.slices = [
                AcceleratorTLB(f"tlb.cube{cube}", cube, link_latency_s)
                for cube in range(cubes)
            ]
        else:
            self.slices = [AcceleratorTLB("tlb.unified", central_cube,
                                          link_latency_s)]

    def load_from(self, vm: VirtualMemory, pcid: int = 0) -> int:
        loaded = 0
        if self.distributed:
            for tlb in self.slices:
                loaded += tlb.load_from(vm, pcid,
                                        only_cube=tlb.home_cube)
        else:
            loaded = self.slices[0].load_from(vm, pcid)
        return loaded

    def lookup(self, now: float, vaddr: int, pcid: int,
               from_cube: int, target_cube_hint: Optional[int] = None
               ) -> Tuple[int, float]:
        """Translate from a unit on ``from_cube``.

        In the distributed organisation the owning cube's slice answers
        (requests reach the right cube by virtual address, because the
        OS maps VA regions to cubes — Sec. 4.6); the hint avoids a
        second resolution step in the model.
        """
        if not self.distributed:
            return self.slices[0].lookup(now, vaddr, pcid, from_cube)
        if target_cube_hint is not None:
            tlb = self.slices[target_cube_hint]
            return tlb.lookup(now, vaddr, pcid, from_cube)
        # Resolve by probing the local slice first, then the others.
        for tlb in [self.slices[from_cube]] + [
                t for i, t in enumerate(self.slices) if i != from_cube]:
            try:
                return tlb.lookup(now, vaddr, pcid, from_cube)
            except ProtectionFault:
                continue
        raise ProtectionFault(f"no slice maps {vaddr:#x} (pcid {pcid})")

    @property
    def total_lookups(self) -> int:
        return sum(t.lookups for t in self.slices)

    @property
    def total_remote_lookups(self) -> int:
        return sum(t.remote_lookups for t in self.slices)
