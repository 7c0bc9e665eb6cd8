"""The host-side intrinsics (Sec. 4.1).

The paper exposes two calls to the JVM:

* ``initialize()`` — once at launch: programs the memory-mapped config
  registers (heap base, bitmap base/OFFSET, card-table base) and pins
  the accelerator TLB entries;
* ``val offload(val type, addr src, addr dst, val arg)`` — builds a
  48-byte request packet, routes it to the destination cube, and blocks
  the calling thread until the response packet returns.

:class:`CharonRuntime` implements both over a :class:`CharonDevice`,
actually encoding/decoding the wire packets so the format is exercised
end to end.  Replacing HotSpot's three primitives with these calls took
the authors 37 lines; the analogous swap here is the trace replayer
choosing ``runtime.offload_event`` over the host cost model.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.device import CharonDevice
from repro.core.packets import OffloadRequest, OffloadResponse
from repro.errors import ConfigError
from repro.gcalgo.trace import Primitive, TraceEvent
from repro.heap.spaces import HeapInfo
from repro.mem.vm import VirtualMemory


class CharonRuntime:
    """What the modified JVM links against."""

    def __init__(self, device: CharonDevice) -> None:
        self.device = device
        self.initialized = False

    def initialize(self, info: HeapInfo, vm: VirtualMemory,
                   pcid: int = 0) -> int:
        """Program the device at application launch."""
        entries = self.device.initialize(info, vm, pcid)
        self.initialized = True
        return entries

    def offload(self, now: float, primitive: Primitive, src: int,
                dst: int, arg: int = 0,
                found: bool = False) -> Tuple[float, OffloadResponse]:
        """The raw intrinsic: one blocking offload.

        ``arg`` carries the primitive-specific operand (size for Copy,
        range length for Search, reference/push counts for Scan&Push,
        bit count for Bitmap Count).  Returns the unblock time and the
        decoded response packet.
        """
        if not self.initialized:
            raise ConfigError("call initialize() before offload()")
        event = self._event_from_call(primitive, src, dst, arg, found)
        cube = self.device._target_cube(event)
        # Exercise the real wire format.
        request = OffloadRequest(primitive=primitive, dest_cube=cube,
                                 src=src, dst=dst, arg=arg,
                                 pcid=self.device.context.pcid)
        decoded = OffloadRequest.decode(request.encode())
        if decoded != request:
            raise ConfigError("request packet round-trip failed")
        finish = self.device.offload_event(now, event, gc_kind="minor")
        has_value = primitive is not Primitive.COPY
        response = OffloadResponse.decode(OffloadResponse(
            source_cube=cube, has_value=has_value,
            value=int(found)).encode())
        return finish, response

    def offload_event(self, now: float, event: TraceEvent,
                      gc_kind: str) -> float:
        """Trace-replay entry: offload one recorded primitive."""
        if not self.initialized:
            raise ConfigError("call initialize() before offload()")
        return self.device.offload_event(now, event, gc_kind)

    @staticmethod
    def _event_from_call(primitive: Primitive, src: int, dst: int,
                         arg: int, found: bool) -> TraceEvent:
        if primitive is Primitive.COPY:
            return TraceEvent(primitive, "intrinsic", src=src, dst=dst,
                              size_bytes=arg)
        if primitive is Primitive.SEARCH:
            return TraceEvent(primitive, "intrinsic", src=src,
                              size_bytes=arg, found=found)
        if primitive is Primitive.SCAN_PUSH:
            refs = arg & 0xFFFF
            pushes = (arg >> 16) & 0xFFFF
            return TraceEvent(primitive, "intrinsic", src=src, refs=refs,
                              pushes=min(pushes, refs))
        if primitive is Primitive.BITMAP_COUNT:
            return TraceEvent(primitive, "intrinsic", src=src, bits=arg)
        raise ConfigError(f"unknown primitive {primitive}")
