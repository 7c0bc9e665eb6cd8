"""Tests for the Charon device, units, intrinsics and area model."""

import pytest

from repro.config import default_config
from repro.core import area_power
from repro.core.device import CharonDevice
from repro.core.intrinsics import CharonRuntime
from repro.errors import ConfigError
from repro.gcalgo.trace import Primitive, TraceEvent
from repro.heap.spaces import HeapInfo, HeapLayout
from repro.mem.hmc import HMCSystem
from repro.platform.factory import build_vm

HEAP_BYTES = 8 * 1024 * 1024


def make_kit(cpu_side=False, distributed=False):
    config = default_config().with_heap_bytes(HEAP_BYTES)
    if distributed:
        config = config.with_distributed_charon(True)
    vm = build_vm(config)
    hmc = HMCSystem(config.hmc)
    device = CharonDevice(config, hmc, vm, cpu_side=cpu_side)
    device.initialize(HeapInfo.of(config.heap), vm)
    return device, HeapLayout(config.heap), config


def copy_event(layout, size=4096):
    return TraceEvent(Primitive.COPY, "evacuate",
                      src=layout.eden.start,
                      dst=layout.old.start, size_bytes=size)


class TestDeviceSetup:
    def test_unit_counts_match_table2(self):
        device, _, config = make_kit()
        copy_units = sum(len(units) for (kind, _), units
                         in device.units.items() if kind == "copy_search")
        bc_units = sum(len(units) for (kind, _), units
                       in device.units.items() if kind == "bitmap_count")
        sp_units = sum(len(units) for (kind, _), units
                       in device.units.items() if kind == "scan_push")
        assert copy_units == config.charon.copy_search_units
        assert bc_units == config.charon.bitmap_count_units
        assert sp_units == config.charon.scan_push_units

    def test_scan_push_only_on_central_cube(self):
        device, _, _ = make_kit()
        locations = [cube for (kind, cube) in device.units
                     if kind == "scan_push"]
        assert locations == [device.central]

    def test_initialize_loads_tlb(self):
        device, _, _ = make_kit()
        assert device.tlbs.slices[0].entries

    def test_offload_requires_initialize(self):
        config = default_config().with_heap_bytes(HEAP_BYTES)
        vm = build_vm(config)
        device = CharonDevice(config, HMCSystem(config.hmc), vm)
        with pytest.raises(ConfigError):
            device.offload_event(0.0, copy_event(HeapLayout(config.heap)),
                                 "minor")


class TestOffloadRouting:
    def test_copy_routed_to_source_cube(self):
        device, layout, _ = make_kit()
        event = copy_event(layout)
        cube = device._target_cube(event)
        assert cube == device.context.vm.cube_of(event.src)

    def test_scan_push_routed_to_central(self):
        device, layout, _ = make_kit()
        event = TraceEvent(Primitive.SCAN_PUSH, "mark",
                           src=layout.old.start, refs=4, pushes=2)
        assert device._target_cube(event) == device.central

    def test_bitmap_count_routed_to_bitmap_cube(self):
        device, layout, _ = make_kit()
        event = TraceEvent(Primitive.BITMAP_COUNT, "adjust",
                           src=layout.old.start, bits=128)
        cube = device._target_cube(event)
        bitmap_addr = device._bitmap_addr(layout.old.start)
        assert cube == device.context.vm.cube_of(bitmap_addr)

    def test_least_busy_unit_selected(self):
        device, layout, _ = make_kit()
        event = copy_event(layout, size=65536)
        device.offload_event(0.0, event, "minor")
        cube = device._target_cube(event)
        units = device.units[("copy_search", cube)]
        busy = sorted(unit.busy_until for unit in units)
        assert busy[0] == 0.0  # second unit untouched
        device.offload_event(0.0, event, "minor")
        busy = [unit.busy_until for unit in units]
        assert all(value > 0 for value in busy[:2])


class TestOffloadTiming:
    def test_all_primitives_complete(self):
        device, layout, _ = make_kit()
        events = [
            copy_event(layout),
            TraceEvent(Primitive.SEARCH, "card-search",
                       src=device.heap_info.card_table_base, size_bytes=64),
            TraceEvent(Primitive.SCAN_PUSH, "evacuate",
                       src=layout.eden.start, refs=5, pushes=3),
            TraceEvent(Primitive.BITMAP_COUNT, "adjust",
                       src=layout.old.start, bits=256),
        ]
        for event in events:
            finish = device.offload_event(1e-3, event, "minor")
            assert finish > 1e-3
        assert device.offloads == 4

    def test_bigger_copy_takes_longer(self):
        device, layout, _ = make_kit()
        small = device.offload_event(0.0, copy_event(layout, 256), "minor")
        device.reset_unit_clocks()
        big = device.offload_event(0.0, copy_event(layout, 1 << 20),
                                   "minor")
        assert big > small

    def test_packet_bytes_accounted(self):
        device, layout, _ = make_kit()
        device.offload_event(0.0, copy_event(layout), "minor")
        assert device.request_bytes_sent == 48
        assert device.response_bytes_sent == 16  # copy: no return value
        device.offload_event(0.0, TraceEvent(
            Primitive.SEARCH, "card-search",
            src=device.heap_info.card_table_base, size_bytes=64), "minor")
        assert device.response_bytes_sent == 16 + 32

    def test_mark_scan_touches_bitmap_cache(self):
        device, layout, _ = make_kit()
        event = TraceEvent(Primitive.SCAN_PUSH, "mark",
                           src=layout.old.start, refs=8, pushes=8)
        device.offload_event(0.0, event, "major")
        cache = device.bitmap_cache.slices[0].cache
        assert cache.accesses > 0

    def test_phase_completed_flushes(self):
        device, layout, _ = make_kit()
        event = TraceEvent(Primitive.SCAN_PUSH, "mark",
                           src=layout.old.start, refs=4, pushes=4)
        device.offload_event(0.0, event, "major")
        flushed = device.phase_completed("mark")
        assert flushed >= 0
        assert device.bitmap_cache.slices[0].flushes == 1
        assert device.phase_completed("card-search") == 0

    def test_cpu_side_data_crosses_host_link(self):
        # CPU-side placement: command packets are register writes (no
        # link), but every byte of data crosses the external link --
        # the Fig. 16 bottleneck.
        device, layout, _ = make_kit(cpu_side=True)
        finish = device.offload_event(0.0, copy_event(layout), "minor")
        assert finish > 0
        assert device.hmc.host_link.bytes_served >= 2 * 4096

    def test_memory_side_data_stays_off_host_link(self):
        device, layout, _ = make_kit(cpu_side=False)
        device.offload_event(0.0, copy_event(layout), "minor")
        # Only packets and probes ride the host link, not the copy data.
        assert device.hmc.host_link.bytes_served < 2 * 4096

    def test_distributed_organisation(self):
        device, _, _ = make_kit(distributed=True)
        assert len(device.tlbs.slices) == 4
        assert len(device.bitmap_cache.slices) == 4


class TestRuntimeIntrinsics:
    def make_runtime(self):
        device, layout, config = make_kit()
        runtime = CharonRuntime(device)
        runtime.initialize(HeapInfo.of(config.heap), device.context.vm)
        return runtime, layout

    def test_initialize_required(self):
        device, layout, _ = make_kit()
        runtime = CharonRuntime(device)
        with pytest.raises(ConfigError):
            runtime.offload(0.0, Primitive.COPY, layout.eden.start,
                            layout.old.start, 64)

    def test_offload_copy(self):
        runtime, layout = self.make_runtime()
        finish, response = runtime.offload(
            0.0, Primitive.COPY, layout.eden.start,
            layout.old.start, 4096)
        assert finish > 0
        assert not response.has_value

    def test_offload_search_returns_value(self):
        runtime, layout = self.make_runtime()
        finish, response = runtime.offload(
            0.0, Primitive.SEARCH, runtime.device.heap_info.card_table_base,
            0, 64,
            found=True)
        assert response.has_value
        assert response.value == 1

    def test_offload_event_entry(self):
        runtime, layout = self.make_runtime()
        event = TraceEvent(Primitive.BITMAP_COUNT, "adjust",
                           src=layout.old.start, bits=64)
        assert runtime.offload_event(0.0, event, "major") > 0


class TestAreaPower:
    def test_total_matches_table4(self):
        assert area_power.charon_total_area() == pytest.approx(
            area_power.CHARON_TOTAL_AREA_MM2, abs=1e-3)

    def test_per_cube_matches_table4(self):
        assert area_power.charon_area_per_cube() == pytest.approx(
            area_power.CHARON_AREA_PER_CUBE_MM2, abs=1e-3)

    def test_logic_layer_fraction_small(self):
        # Paper: ~0.49% of a 100 mm^2 logic layer.
        assert area_power.logic_layer_fraction() == pytest.approx(
            0.0049, abs=2e-4)

    def test_power_density_feasible(self):
        # Paper: 45.1 mW/mm^2, below a passive heat sink's limit.
        assert area_power.max_power_density_mw_per_mm2() == \
            pytest.approx(45.1, abs=0.1)
        assert area_power.thermally_feasible()

    def test_report_rows(self):
        rows = area_power.charon_area_report()
        assert rows[-2]["component"] == "Total"
        names = {row["component"] for row in rows}
        assert {"Copy/Search", "Bitmap Count", "Scan&Push",
                "Bitmap Cache", "TLB"} <= names
