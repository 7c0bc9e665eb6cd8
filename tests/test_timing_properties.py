"""Property tests on the timing models themselves.

The replay results are only as trustworthy as the cost models'
sanity: times must be positive, monotone in work, and bounded by the
physical rates of the configured hardware.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import default_config
from repro.gcalgo.trace import Primitive, TraceEvent

from tests.conftest import platform_for


def copy_event(layout, size):
    return TraceEvent(Primitive.COPY, "evacuate",
                      src=layout.eden.start,
                      dst=layout.old.start, size_bytes=size)


class TestHostModelProperties:
    @given(st.integers(min_value=8, max_value=1 << 21))
    @settings(max_examples=30, deadline=None)
    def test_copy_time_positive_and_rate_bounded(self, size):
        platform, layout, config = platform_for("cpu-ddr4")
        seconds = platform.cost_model.event_finish(
            0.0, copy_event(layout, size))
        assert seconds > 0
        # A copy moves 2x size; it can never beat the DDR4 wire rate.
        assert 2 * size / seconds <= config.ddr4.total_bandwidth * 1.01

    @given(st.integers(min_value=64, max_value=1 << 20),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=25, deadline=None)
    def test_copy_monotone_in_size(self, size, factor):
        platform, layout, _ = platform_for("cpu-ddr4")
        small = platform.cost_model.event_finish(
            0.0, copy_event(layout, size))
        platform2, layout2, _ = platform_for("cpu-ddr4")
        large = platform2.cost_model.event_finish(
            0.0, copy_event(layout2, size * (factor + 1)))
        assert large >= small

    @given(st.integers(min_value=1, max_value=512))
    @settings(max_examples=25, deadline=None)
    def test_scan_monotone_in_refs(self, refs):
        platform, layout, _ = platform_for("cpu-ddr4")
        base = TraceEvent(Primitive.SCAN_PUSH, "mark",
                          src=layout.old.start, refs=refs,
                          pushes=0)
        more = TraceEvent(Primitive.SCAN_PUSH, "mark",
                          src=layout.old.start, refs=refs * 2,
                          pushes=0)
        t_base = platform.cost_model.event_finish(0.0, base)
        platform2, layout2, _ = platform_for("cpu-ddr4")
        t_more = platform2.cost_model.event_finish(0.0, more)
        assert t_more >= t_base

    @given(st.integers(min_value=1, max_value=4096))
    @settings(max_examples=25, deadline=None)
    def test_bitmap_count_linear_in_bits(self, bits):
        platform, layout, _ = platform_for("cpu-ddr4")
        event = TraceEvent(Primitive.BITMAP_COUNT, "adjust",
                           src=layout.old.start, bits=bits)
        seconds = platform.cost_model.event_finish(0.0, event)
        per_bit = platform.config.costs.bitmap_instructions_per_bit \
            / (platform.config.host.gc_ipc
               * platform.config.host.freq_hz)
        # Within 3x of the pure instruction cost (memory adds on top).
        assert seconds >= bits * per_bit * 0.9
        assert seconds <= bits * per_bit * 3 + 2e-6


class TestCharonModelProperties:
    @given(st.integers(min_value=8, max_value=1 << 21))
    @settings(max_examples=20, deadline=None)
    def test_offload_time_positive_and_rate_bounded(self, size):
        platform, layout, config = platform_for("charon")
        seconds = platform.offload_finish(0.0, copy_event(layout, size),
                                          "minor")
        assert seconds > 0
        total_internal = config.hmc.internal_bandwidth_per_cube \
            * config.hmc.cubes
        assert 2 * size / seconds <= total_internal * 1.01

    @given(st.integers(min_value=64, max_value=1 << 19))
    @settings(max_examples=15, deadline=None)
    def test_offload_never_free(self, size):
        """Every offload pays at least the packet round trip."""
        platform, layout, config = platform_for("charon")
        seconds = platform.offload_finish(0.0, copy_event(layout, size),
                                          "minor")
        floor = config.costs.charon_dispatch_overhead_s \
            + 2 * config.hmc.link_latency_s
        assert seconds >= floor
