"""Timing-behaviour tests for the three processing units."""

import pytest

from repro.config import default_config
from repro.core.device import CharonDevice
from repro.core.units import (BitmapCountUnit, CharonContext,
                              CopySearchUnit, ScanPushUnit)
from repro.gcalgo.trace import Primitive, TraceEvent
from repro.heap.spaces import HeapInfo, HeapLayout
from repro.mem.hmc import HMCSystem
from repro.platform.factory import build_vm

HEAP_BYTES = 16 * 1024 * 1024


@pytest.fixture
def kit():
    config = default_config().with_heap_bytes(HEAP_BYTES)
    vm = build_vm(config)
    hmc = HMCSystem(config.hmc)
    device = CharonDevice(config, hmc, vm)
    device.initialize(HeapInfo.of(config.heap), vm)
    return config, HeapLayout(config.heap), hmc, device


def unit_of(device, kind, cube=0):
    return device.units[(kind, cube)][0]


class TestCopySearchUnit:
    def test_copy_time_scales_with_size(self, kit):
        config, layout, hmc, device = kit
        unit = unit_of(device, "copy_search")
        src, dst = layout.eden.start, layout.old.start
        small = unit.execute(0.0, "copy", src, dst, 4096)
        big = unit.execute(1.0, "copy", src, dst, 1 << 20) - 1.0
        assert big > 10 * small

    def test_copy_early_release(self, kit):
        """The unit frees itself when its reads drain, before the
        response-visible completion (writes drain via the MAI)."""
        config, layout, hmc, device = kit
        unit = unit_of(device, "copy_search")
        finish = unit.dispatch(0.0, "copy", layout.eden.start,
                               layout.old.start, 1 << 20)
        assert unit.busy_until <= finish

    def test_large_copy_approaches_internal_bandwidth(self, kit):
        config, layout, hmc, device = kit
        unit = unit_of(device, "copy_search")
        size = 1 << 20
        # A local-source copy: effective rate should be way beyond the
        # 80 GB/s external link.
        seconds = unit.execute(0.0, "copy", layout.eden.start,
                               layout.old.start, size)
        rate = 2 * size / seconds
        assert rate > 120e9

    def test_search_early_exit_cheaper(self, kit):
        config, layout, hmc, device = kit
        unit = unit_of(device, "copy_search")
        base = device.heap_info.card_table_base
        hit = unit.execute(0.0, "search", base, 0, 4096, True)
        miss = unit.execute(1.0, "search", base, 0, 4096, False) - 1.0
        assert hit < miss

    def test_unknown_primitive_rejected(self, kit):
        _, layout, _, device = kit
        unit = unit_of(device, "copy_search")
        with pytest.raises(ValueError):
            unit.execute(0.0, "sort", 0, 0, 64)


class TestScanPushUnit:
    def scan(self, device, layout, refs, pushes, kind="minor"):
        unit = unit_of(device, "scan_push", device.central)
        info = device.heap_info
        covered = info.heap_end - info.bitmap_covered_start
        return unit.execute(
            0.0, layout.old.start, refs, pushes, kind,
            mark_bitmap_base=info.bitmap_base,
            bitmap_covered_start=info.bitmap_covered_start,
            bitmap_covered_bytes=covered)

    def test_zero_refs_trivial(self, kit):
        _, layout, _, device = kit
        assert self.scan(device, layout, 0, 0) < 10e-9

    def test_more_refs_cost_more(self, kit):
        _, layout, _, device = kit
        few = self.scan(device, layout, 2, 1)
        many = self.scan(device, layout, 48, 24)
        assert many > few

    def test_refs_amortize(self, kit):
        """Per-reference cost falls with batch size -- the MLP story."""
        _, layout, _, device = kit
        few = self.scan(device, layout, 2, 1) / 2
        many = self.scan(device, layout, 48, 24) / 48
        assert many < few / 2

    def test_marking_adds_bitmap_rmws(self, kit):
        _, layout, _, device = kit
        minor = self.scan(device, layout, 8, 8, kind="minor")
        major = self.scan(device, layout, 8, 8, kind="major")
        assert major > minor
        cache = device.bitmap_cache.slices[0].cache
        assert cache.accesses == 8

    def test_g1_marks_like_major(self, kit):
        _, layout, _, device = kit
        self.scan(device, layout, 4, 4, kind="g1")
        assert device.bitmap_cache.slices[0].cache.accesses == 4


class TestBitmapCountUnit:
    def count(self, device, layout, bits, offset_words=0):
        unit = unit_of(device, "bitmap_count")
        info = device.heap_info
        return unit.execute(0.0, info.bitmap_base, info.bitmap_bytes,
                            offset_words, bits)

    def test_zero_bits_trivial(self, kit):
        _, layout, _, device = kit
        assert self.count(device, layout, 0) < 5e-9

    def test_longer_ranges_cost_more(self, kit):
        _, layout, _, device = kit
        short = self.count(device, layout, 64)
        long = self.count(device, layout, 4096)
        assert long > short

    def test_repeat_range_hits_cache(self, kit):
        _, layout, _, device = kit
        cold = self.count(device, layout, 512)
        warm = self.count(device, layout, 512)
        assert warm < cold
        cache = device.bitmap_cache.slices[0]
        assert cache.read_hits > 0

    def test_datapath_value(self):
        # The functional count the unit returns (hardware algorithm).
        assert BitmapCountUnit.count([0b100], [0b10000], 64) == 3


class TestCpuSideVariant:
    def test_cpu_side_copy_slower(self):
        config = default_config().with_heap_bytes(HEAP_BYTES)
        times = {}
        for cpu_side in (False, True):
            layout = HeapLayout(config.heap)
            vm = build_vm(config)
            device = CharonDevice(config, HMCSystem(config.hmc), vm,
                                  cpu_side=cpu_side)
            device.initialize(HeapInfo.of(config.heap), vm)
            event = TraceEvent(Primitive.COPY, "evacuate",
                               src=layout.eden.start,
                               dst=layout.old.start,
                               size_bytes=1 << 20)
            times[cpu_side] = device.offload_event(0.0, event, "minor")
        # The external link caps the CPU-side variant (Fig. 16).
        assert times[True] > times[False]
