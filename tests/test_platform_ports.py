"""Tests for the host memory ports and host cost-model edge cases."""

import pytest

from repro.config import default_config
from repro.gcalgo.trace import Primitive, ResidualWork, TraceEvent
from repro.mem.ddr4 import DDR4System
from repro.mem.hmc import HMCSystem
from repro.mem.vm import VirtualMemory
from repro.platform.ports import DDR4Port, HMCHostPort

from tests.conftest import platform_for

MB = 1 << 20
BASE = 0x1000_0000


def make_hmc_port():
    vm = VirtualMemory(huge_page_bytes=MB, cubes=4)
    vm.map_heap(BASE, 8 * MB)
    return HMCHostPort(HMCSystem(), vm), vm


class TestDDR4Port:
    def test_latency_and_bandwidth(self):
        port = DDR4Port(DDR4System())
        assert port.latency > 0
        assert port.drain_bandwidth == pytest.approx(34e9)

    def test_stream_range_ignores_address(self):
        port = DDR4Port(DDR4System())
        a = port.stream_range(0.0, 0, 4096, 64, 10.0)
        port2 = DDR4Port(DDR4System())
        b = port2.stream_range(0.0, 0xDEAD000, 4096, 64, 10.0)
        assert a == pytest.approx(b)

    def test_anon_defaults_to_priority(self):
        port = DDR4Port(DDR4System())
        port.stream_range(0.0, 0, 10 * MB, 4096, 1e9)  # bulk backlog
        fast = port.stream_anon(0.0, 128, 64, 8.0)
        assert fast < 1e-6


class TestHMCHostPort:
    def test_stream_range_routes_by_page(self):
        port, vm = make_hmc_port()
        port.stream_range(0.0, BASE, 2 * MB, 256, 10.0)
        # Two pages -> two cubes touched.
        touched = [r for r in port.hmc.internal if r.bytes_served > 0]
        assert len(touched) == 2

    def test_unmapped_range_falls_back_to_anon(self):
        port, _ = make_hmc_port()
        finish = port.stream_range(0.0, 0x9000_0000, 4096, 64, 10.0)
        assert finish > 0
        assert port.hmc.tsv_bytes == 4096

    def test_anon_spreads_round_robin(self):
        port, _ = make_hmc_port()
        port.stream_anon(0.0, 4 * 4096, 256, 10.0)
        touched = [r for r in port.hmc.internal if r.bytes_served > 0]
        assert len(touched) == 4

    def test_zero_bytes_noop(self):
        port, _ = make_hmc_port()
        assert port.stream_range(1.0, BASE, 0, 64, 8.0) == 1.0
        assert port.stream_anon(2.0, 0, 64, 8.0) == 2.0

    def test_everything_crosses_host_link(self):
        port, _ = make_hmc_port()
        port.stream_range(0.0, BASE, MB, 256, 10.0)
        assert port.hmc.host_link.bytes_served == MB


class TestAnonCursor:
    def test_anon_share_clamps_to_cache_line(self):
        from repro.units import CACHE_LINE

        port, _ = make_hmc_port()
        # 8 bytes over 4 cubes would be a 2-byte share; the port never
        # streams less than a cache line per cube.
        assert port.anon_share(8) == CACHE_LINE
        assert port.anon_share(4 * MB) == MB

    def test_take_anon_cube_wraps_modulo_cubes(self):
        port, _ = make_hmc_port()
        cubes = port.hmc.config.cubes
        taken = [port.take_anon_cube() for _ in range(2 * cubes + 1)]
        assert taken == (list(range(cubes)) * 3)[:2 * cubes + 1]

    def test_cursor_persists_across_streams(self):
        """Each small anonymous stream lands on the *next* cube, not
        always cube 0 — the cursor is shared state across calls."""
        port, _ = make_hmc_port()
        for expected in (0, 1, 2, 3, 0):
            before = [r.bytes_served for r in port.hmc.internal]
            port.stream_anon(0.0, 64, 64, 8.0)
            after = [r.bytes_served for r in port.hmc.internal]
            grown = [i for i, (a, b) in enumerate(zip(before, after))
                     if b > a]
            assert grown == [expected]

    def test_faulting_range_advances_cursor(self):
        """An unmapped range stream goes through the anon path and
        moves the same cursor the residual path uses."""
        port, _ = make_hmc_port()
        port.stream_range(0.0, 0x9000_0000, 64, 64, 8.0)
        assert port.take_anon_cube() == 1


class TestPartiallyMappedRange:
    def test_straddling_range_falls_back_entirely_to_anon(self):
        """A range that starts mapped but runs off the end of the heap
        faults in split_range_by_cube, so the *whole* stream — not just
        the unmapped tail — is treated as anonymous traffic."""
        port, vm = make_hmc_port()
        straddle = 8 * MB - 4096  # last mapped page, +4KB past the end
        finish = port.stream_range(0.0, BASE + straddle, 8192, 64, 8.0)
        assert finish > 0
        assert port.hmc.tsv_bytes == 8192
        # The mapped half would have gone to a single cube; the anon
        # fallback spreads the whole 8KB round-robin over all four.
        touched = [r for r in port.hmc.internal if r.bytes_served > 0]
        assert len(touched) == 4


class TestDependentBatches:
    def test_dependent_batches_serialize_on_ddr4(self):
        one = DDR4Port(DDR4System()).stream_range(
            0.0, BASE, 64 * 1024, 64, 8.0, dependent_batches=1)
        four = DDR4Port(DDR4System()).stream_range(
            0.0, BASE, 64 * 1024, 64, 8.0, dependent_batches=4)
        # Each dependent batch re-pays the access latency, so the
        # chained stream finishes strictly later.
        assert four > one

    def test_dependent_batches_serialize_on_hmc(self):
        port, _ = make_hmc_port()
        one = port.stream_range(0.0, BASE, 64 * 1024, 64, 8.0,
                                dependent_batches=1)
        port2, _ = make_hmc_port()
        four = port2.stream_range(0.0, BASE, 64 * 1024, 64, 8.0,
                                  dependent_batches=4)
        assert four > one


class TestHostCostEdges:
    def test_zero_byte_copy_has_fixed_cost(self):
        platform, layout, _ = platform_for("cpu-ddr4")
        event = TraceEvent(Primitive.COPY, "evacuate",
                           src=layout.eden.start,
                           dst=layout.old.start, size_bytes=0)
        finish = platform.cost_model.event_finish(0.0, event)
        # The per-object bookkeeping still costs instructions.
        assert finish > 0

    def test_zero_ref_scan_minimal(self):
        platform, layout, _ = platform_for("cpu-ddr4")
        event = TraceEvent(Primitive.SCAN_PUSH, "evacuate",
                           src=layout.eden.start, refs=0)
        assert platform.cost_model.event_finish(0.0, event) < 500e-9

    def test_residual_scales_with_threads(self):
        platform, _, _ = platform_for("cpu-ddr4")
        work = ResidualWork(instructions=1_000_000,
                            bytes_accessed=1 << 20)
        one = platform.cost_model.residual_seconds(0.0, work, 1)
        eight = platform.cost_model.residual_seconds(0.0, work, 8)
        assert eight < one

    def test_unknown_primitive_rejected(self):
        platform, _, _ = platform_for("cpu-ddr4")

        class FakeEvent:
            primitive = "nope"
            phase = "x"

        with pytest.raises(ValueError):
            platform.cost_model.event_finish(0.0, FakeEvent())
