"""Construction of platform instances with fresh memory systems.

Each platform gets its own DDR4/HMC resources (fluid-flow state is
per-run), plus — for the HMC-based ones — a virtual-memory map pinning
the heap and its metadata (card table, bitmaps) on interleaved huge
pages, exactly the Sec. 4.6 launch sequence.  A platform needs only the
heap's address layout, which :meth:`HeapInfo.of` derives from
``config.heap``: no heap is allocated.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.heap.spaces import HeapInfo
from repro.mem.vm import VirtualMemory
from repro.platform.base import (CharonPlatform, CpuDDR4Platform,
                                 CpuHMCPlatform, IdealPlatform, Platform)
from repro.units import align_up

PLATFORM_NAMES = ("cpu-ddr4", "cpu-hmc", "charon", "charon-cpuside",
                  "ideal")


def build_vm(config: SystemConfig, pcid: int = 0) -> VirtualMemory:
    """Pin ``config.heap``'s heap on huge pages and its GC metadata (card
    table and mark bitmaps) on finer pinned pages, both interleaved over
    cubes."""
    vm = VirtualMemory(huge_page_bytes=config.vm.huge_page_bytes,
                       cubes=config.hmc.cubes,
                       small_page_bytes=config.vm.small_page_bytes)
    info = HeapInfo.of(config.heap)
    base = info.heap_start
    if base % config.vm.huge_page_bytes:
        raise ConfigError("heap base must be huge-page aligned")
    heap_size = align_up(info.heap_end - base, config.vm.huge_page_bytes)
    vm.map_heap(base, heap_size, pcid=pcid)
    metadata_page = config.vm.metadata_page_bytes
    metadata_base = info.card_table_base
    if metadata_base < base + heap_size or metadata_base % metadata_page:
        raise ConfigError("metadata region overlaps the heap mapping")
    metadata_size = align_up(info.metadata_end - metadata_base,
                             metadata_page)
    vm.map_pinned(metadata_base, metadata_size, metadata_page, pcid=pcid)
    return vm


def build_platform(name: str, config: SystemConfig,
                   vm: Optional[VirtualMemory] = None) -> Platform:
    """Build a named platform on ``config.heap``'s address layout."""
    if name not in PLATFORM_NAMES:
        raise ConfigError(
            f"unknown platform {name!r}; choose from {PLATFORM_NAMES}")
    if name == "cpu-ddr4":
        return CpuDDR4Platform(config)
    if vm is None:
        vm = build_vm(config)
    if name == "cpu-hmc":
        return CpuHMCPlatform(config, vm)
    if name == "charon":
        return CharonPlatform(config, vm, cpu_side=False)
    if name == "charon-cpuside":
        return CharonPlatform(config, vm, cpu_side=True)
    return IdealPlatform(config, vm)
