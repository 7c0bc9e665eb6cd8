"""System configuration (the paper's Table 2, plus model constants).

Every architectural parameter the paper reports is encoded here as a
dataclass field with its provenance.  Model-only constants (anything the
paper does not state directly, such as per-primitive instruction costs on
the host) are grouped in :class:`CostModelConfig` and documented with the
reasoning used to choose them.
"""

from __future__ import annotations

import os

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from repro.errors import ConfigError
from repro.units import GB, KB, MB, NS, gb_per_s


@dataclass(frozen=True)
class HostCoreConfig:
    """8 x 2.67 GHz Westmere-class OoO cores (Table 2)."""

    num_cores: int = 8
    freq_hz: float = 2.67e9
    issue_width: int = 4
    instruction_window: int = 36  # 36-entry IW (Table 2)
    rob_entries: int = 128
    # Table 2 lists L1 "64-entry per core" and shared L2 "1024-entry" MSHR
    # style entries for zsim; what bounds memory-level parallelism on a
    # real core is the number of outstanding L1 misses (MSHRs).  Westmere
    # supports 10 line-fill buffers per core.
    mshrs_per_core: int = 10
    # Average IPC of GC code on a modern Xeon observed in the paper
    # (Sec. 1: "average IPC ... below 0.5").  Used to cost the
    # non-memory-bound instruction stream of each primitive.
    gc_ipc: float = 0.5


@dataclass(frozen=True)
class CacheLevelConfig:
    """One cache level of the host hierarchy."""

    size_bytes: int
    ways: int
    latency_cycles: int
    line_bytes: int = 64


@dataclass(frozen=True)
class HostCacheConfig:
    """L1I/D 32KB, L2 256KB, shared L3 8MB (Table 2)."""

    l1d: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(32 * KB, 8, 4))
    l1i: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(32 * KB, 4, 3))
    l2: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(256 * KB, 8, 12))
    l3: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(8 * MB, 16, 28))


@dataclass(frozen=True)
class DDR4Config:
    """32GB, 2 channels, 34 GB/s aggregate, 35 pJ/bit (Table 2)."""

    capacity_bytes: int = 32 * GB
    channels: int = 2
    ranks_per_channel: int = 4
    banks_per_rank: int = 8
    bandwidth_per_channel: float = gb_per_s(17.0)
    tck_s: float = 0.937 * NS
    tras_s: float = 35.0 * NS
    trcd_s: float = 13.50 * NS
    tcas_s: float = 13.50 * NS
    twr_s: float = 15.0 * NS
    trp_s: float = 13.50 * NS
    energy_pj_per_bit: float = 35.0
    # Queueing/controller overhead on top of the device access time
    # (loaded round-trip latency of a Westmere-class system is in the
    # 70-100 ns range; tRCD+tCAS alone understate it).
    controller_latency_s: float = 40.0 * NS

    @property
    def total_bandwidth(self) -> float:
        return self.bandwidth_per_channel * self.channels

    @property
    def access_latency_s(self) -> float:
        """Row-activate + CAS + controller (closed-page approximation)."""
        return self.trcd_s + self.tcas_s + self.controller_latency_s


@dataclass(frozen=True)
class HMCConfig:
    """32GB, 4 cubes, 32 vaults/cube, 320 GB/s internal per cube,
    80 GB/s per external link with 3 ns latency (Table 2)."""

    capacity_bytes: int = 32 * GB
    cubes: int = 4
    vaults_per_cube: int = 32
    internal_bandwidth_per_cube: float = gb_per_s(320.0)
    link_bandwidth: float = gb_per_s(80.0)
    link_latency_s: float = 3.0 * NS
    tck_s: float = 1.6 * NS
    tras_s: float = 22.4 * NS
    trcd_s: float = 11.2 * NS
    tcas_s: float = 11.2 * NS
    twr_s: float = 14.4 * NS
    trp_s: float = 11.2 * NS
    energy_pj_per_bit: float = 21.0
    # Vault-controller + TSV overhead.  Kept tight (total vault round
    # trip ~34 ns): the 32-entry MAI holds 8 KB in flight, which covers
    # latency x bandwidth (34 ns x 320 GB/s ~ 11 KB) closely enough for
    # the streaming units to approach the internal bandwidth, as the
    # paper's design intends.
    controller_latency_s: float = 12.0 * NS
    central_cube: int = 0  # the cube wired to the host (Fig. 5a)
    # Inter-cube topology.  The paper evaluates a star around the
    # central cube and cites bandwidth-scalable alternatives ([71],
    # Sec. 4.6/5.2) as future work; "fully-connected" gives every cube
    # pair a direct link so spoke-to-spoke traffic takes one hop and
    # stops contending at the centre.
    topology: str = "star"  # "star" | "fully-connected"

    @property
    def capacity_per_cube(self) -> int:
        return self.capacity_bytes // self.cubes

    @property
    def vault_bandwidth(self) -> float:
        return self.internal_bandwidth_per_cube / self.vaults_per_cube

    @property
    def access_latency_s(self) -> float:
        return self.trcd_s + self.tcas_s + self.controller_latency_s


@dataclass(frozen=True)
class CharonConfig:
    """Charon device configuration (Table 2, 'Charon Configuration')."""

    copy_search_units: int = 8  # 2 per cube
    bitmap_count_units: int = 8  # 2 per cube
    scan_push_units: int = 8  # 8 on the central cube
    unit_freq_hz: float = 1.0e9  # logic-layer clock; one request per cycle
    request_granularity: int = 256  # max HMC access granularity (Sec. 4.2)
    bitmap_cache_bytes: int = 8 * KB
    bitmap_cache_ways: int = 8
    bitmap_cache_line: int = 32
    mai_entries_per_cube: int = 32  # request buffer, Table 2
    tlb_entries_per_cube: int = 32
    command_queue_depth: int = 16
    request_packet_bytes: int = 48  # Sec. 4.1
    response_packet_bytes: int = 32  # with a return value
    response_packet_bytes_noval: int = 16
    # 'distributed' slices the bitmap cache and TLB per cube (Sec. 4.6,
    # Fig. 15); 'unified' keeps single shared structures on the central
    # cube.
    distributed: bool = False
    # Ablation knobs (not part of the paper's proposed design):
    # disable the Sec. 4.5 bitmap cache so every bitmap access pays the
    # vault round trip...
    bitmap_cache_enabled: bool = True
    # ...or schedule Scan&Push to the scanned object's cube instead of
    # the central cube (the placement the paper argues *against* in
    # Sec. 4.4 because referee loads scatter anyway).
    scan_push_local: bool = False


@dataclass(frozen=True)
class HeapConfig:
    """Managed-heap geometry (HotSpot defaults used in the paper)."""

    heap_bytes: int = 16 * MB
    # Default HotSpot sizing policy: Young:Old = 1:2 (Sec. 5.1).
    young_fraction: float = 1.0 / 3.0
    # Default SurvivorRatio=8 -> Eden:Survivor:Survivor = 8:1:1.
    survivor_ratio: int = 8
    # Objects are promoted after surviving this many MinorGCs
    # (MaxTenuringThreshold; HotSpot adapts it, we keep a fixed value).
    tenuring_threshold: int = 4
    base_address: int = 0x1000_0000
    card_bytes: int = 512  # HotSpot card size
    alignment: int = 8

    @property
    def young_bytes(self) -> int:
        return int(self.heap_bytes * self.young_fraction) // 8 * 8

    @property
    def old_bytes(self) -> int:
        return self.heap_bytes - self.young_bytes


@dataclass(frozen=True)
class VMConfig:
    """Virtual-memory configuration (Sec. 4.6).

    The paper pins 1 GB huge pages over a multi-GB heap; we keep the
    same page:heap ratio at our scaled heap sizes.
    """

    huge_page_bytes: int = 1 * MB
    small_page_bytes: int = 4 * KB
    # GC metadata (card table, mark bitmaps) pins on finer pages: at
    # paper scale the metadata alone spans many 1 GB pages and thus
    # interleaves over cubes, so the scaled system stripes it too.
    metadata_page_bytes: int = 16 * KB


@dataclass(frozen=True)
class CostModelConfig:
    """Constants the paper implies but does not tabulate.

    These govern host-side primitive costs.  Each is chosen so the
    published per-primitive speedups (Fig. 14) and platform ordering
    (Fig. 12) emerge from the model rather than being hard-coded.
    """

    # Instructions retired per reference slot scanned by the software
    # Scan&Push loop (load, null/mark check, push or card update).
    scan_push_instructions_per_ref: float = 28.0
    # Instructions per byte for the software copy loop (word-at-a-time
    # rep-movs style copy, amortized).
    copy_instructions_per_byte: float = 0.25
    # Fixed per-object copy bookkeeping in the scavenger: claim the
    # object (CAS on the mark word), bump-allocate the destination,
    # install the forwarding pointer, re-derive the copy's header.
    copy_object_overhead_instructions: float = 40.0
    # Instructions per card inspected by the software Search loop.
    # The Fig. 7 inner comparison is ~4 instructions, but HotSpot's
    # card scanning also maintains the block-offset cursor and stripe
    # bounds per card examined.
    search_instructions_per_card: float = 10.0
    # The naive live_words_in_range iterates *bits* (Fig. 8): several
    # instructions per bitmap bit examined.
    bitmap_instructions_per_bit: float = 4.0
    # Residual (non-offloaded) GC work: pop, allocate, check-mark,
    # linked-list traversal... per trace-reported residual instruction.
    residual_cpi: float = 2.0
    # Host cache hit fractions per primitive stream.  Copy streams large
    # regions with no reuse; Search touches the compact card table with
    # decent locality; Scan&Push is pointer chasing over a huge heap;
    # the software bitmap loop enjoys the LLC for the (small) bitmap.
    copy_hit_fraction: float = 0.05
    search_hit_fraction: float = 0.60
    # Scan&Push locality is phase-dependent: in MinorGC the scanned
    # object was *just copied* by this thread (hot in its L1/L2), so
    # only the referee probes miss; in the MajorGC marking phase the
    # popped object is cold too.
    scan_push_hit_minor: float = 0.50
    scan_push_hit_major: float = 0.10
    bitmap_hit_fraction: float = 0.85
    residual_hit_fraction: float = 0.70
    # Average L2/L3 hit service latency (seconds) charged to cache hits.
    cache_hit_latency_s: float = 10.0e-9
    # Charon-side constants.
    charon_dispatch_overhead_s: float = 20.0e-9  # intrinsic call + queue
    scan_push_dependent_ops: int = 2  # mark/push accesses per reference
    # Host power proxy (McPAT stand-in): Westmere-class 8-core package.
    host_active_power_w: float = 95.0
    host_idle_power_w: float = 25.0  # host blocked while Charon runs
    charon_avg_power_w: float = 2.98  # Sec. 5.3 measured average
    # Per-unit active power and device static floor, chosen so the
    # workload-average device power lands near the paper's 2.98 W.
    charon_unit_active_power_w: float = 1.2
    charon_static_power_w: float = 0.5
    # Dirty LLC footprint drained at GC start before offloading
    # (Sec. 4.6).  The paper flushes a 24 MB LLC against multi-GB heaps
    # (~0.1% of a GC); our heaps are scaled by ~256x, so the flushed
    # footprint scales identically to preserve the flush:GC ratio.
    llc_flush_bytes: int = 32 * KB


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs for the differential GC fuzzer (:mod:`repro.fuzz`).

    The defaults are sized so a schedule exercises every interesting
    heap mechanism — survivor aging, promotion, humongous allocation,
    cross-generational edges, cycles — while staying comfortably inside
    an 8 MB heap under *all four* collector modes (the worst case is
    G1's humongous path, which needs contiguous free regions).
    """

    heap_bytes: int = 8 * MB
    #: root-table slots the schedule mutates (the fuzzer's "locals").
    slots: int = 48
    #: operations per generated schedule.
    ops: int = 160
    #: soft cap on slot-held live bytes; above it the generator skews
    #: towards releases so schedules never exhaust the old generation.
    live_byte_budget: int = 768 * KB
    #: payload size of a "large" type array.  Chosen above Eden/4 at the
    #: default heap so the driver's humongous path (straight-to-Old)
    #: triggers, and below ~10 G1 regions so the humongous region
    #: search still succeeds.
    large_object_bytes: int = 600_000
    #: at most this many large objects live at once.
    max_live_large: int = 1
    #: objArray lengths are drawn from [1, max_array_refs].
    max_array_refs: int = 24
    #: typeArray payloads are drawn from [1, max_payload_bytes].
    max_payload_bytes: int = 256
    #: probability an op is an explicit collection.
    gc_probability: float = 0.05
    #: probability an op is a ``mark_step`` — one bounded increment of
    #: the concurrent collector's marking, interleaved mid-schedule.
    #: Stop-the-world backends treat it as a no-op, so the same
    #: schedule stays valid (and shrinkable) under every collector.
    mark_step_probability: float = 0.08
    #: objects one fuzz ``mark_step`` scans before yielding.  Kept
    #: well below the typical fuzz live set (~30 objects) so marking
    #: stays *incremental*: most of the graph is still unscanned when
    #: the mutation ops between pauses run, which is the window the
    #: hidden-pointer (``move`` + ``unlink``) races need.  At 24 a
    #: single pause swallowed the whole graph and a collector with its
    #: write barrier deleted outright still fuzzed clean.
    mark_step_budget: int = 6
    #: collector modes the differential runner cross-checks.
    collectors: Tuple[str, ...] = ("minor", "major", "sweep", "g1",
                                   "concurrent")
    #: greedy passes of the schedule shrinker after prefix bisection.
    shrink_rounds: int = 4

    def validate(self) -> None:
        if self.slots < 2:
            raise ConfigError("fuzzer needs at least 2 root slots")
        if self.ops < 1:
            raise ConfigError("fuzz schedules need at least one op")
        if self.live_byte_budget >= self.heap_bytes:
            raise ConfigError("live-byte budget must be below the heap "
                              "size")
        if not 0 <= self.gc_probability + self.mark_step_probability \
                <= 0.19:
            raise ConfigError("gc + mark_step probability must leave "
                              "room for the other op classes")
        if self.mark_step_budget < 1:
            raise ConfigError("mark_step budget must be positive")
        for name in self.collectors:
            if name not in ("minor", "major", "sweep", "g1",
                            "concurrent"):
                raise ConfigError(f"unknown fuzz collector {name!r}")

    def with_heap_bytes(self, heap_bytes: int) -> "FuzzConfig":
        return replace(self, heap_bytes=heap_bytes)

    def with_ops(self, ops: int) -> "FuzzConfig":
        return replace(self, ops=ops)


def default_fuzz_config() -> FuzzConfig:
    config = FuzzConfig()
    config.validate()
    return config


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration bundle."""

    host: HostCoreConfig = field(default_factory=HostCoreConfig)
    caches: HostCacheConfig = field(default_factory=HostCacheConfig)
    ddr4: DDR4Config = field(default_factory=DDR4Config)
    hmc: HMCConfig = field(default_factory=HMCConfig)
    charon: CharonConfig = field(default_factory=CharonConfig)
    heap: HeapConfig = field(default_factory=HeapConfig)
    vm: VMConfig = field(default_factory=VMConfig)
    costs: CostModelConfig = field(default_factory=CostModelConfig)
    gc_threads: int = 8

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent parameters."""
        if self.gc_threads < 1:
            raise ConfigError("gc_threads must be >= 1")
        if self.heap.heap_bytes <= 0:
            raise ConfigError("heap size must be positive")
        if self.heap.young_bytes <= 0 or self.heap.old_bytes <= 0:
            raise ConfigError("young/old split leaves an empty generation")
        survivor = self.heap.young_bytes // (self.heap.survivor_ratio + 2)
        if survivor < 4 * KB:
            raise ConfigError(
                f"survivor space too small ({survivor} bytes); "
                "increase heap size")
        if self.hmc.cubes < 1:
            raise ConfigError("need at least one HMC cube")
        if not 0 <= self.hmc.central_cube < self.hmc.cubes:
            raise ConfigError("central cube index out of range")
        if self.charon.copy_search_units % self.hmc.cubes:
            raise ConfigError("copy/search units must divide evenly by cube")
        for name in ("copy_hit_fraction", "search_hit_fraction",
                     "scan_push_hit_minor", "scan_push_hit_major",
                     "bitmap_hit_fraction", "residual_hit_fraction"):
            value = getattr(self.costs, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be within [0, 1]")

    def with_heap_bytes(self, heap_bytes: int) -> "SystemConfig":
        """A copy of this configuration with a different heap size."""
        return replace(self, heap=replace(self.heap, heap_bytes=heap_bytes))

    def with_gc_threads(self, gc_threads: int) -> "SystemConfig":
        """A copy with a different GC thread count (Fig. 15 sweeps)."""
        return replace(self, gc_threads=gc_threads)

    def with_distributed_charon(self, distributed: bool) -> "SystemConfig":
        """A copy toggling the distributed bitmap-cache/TLB design."""
        return replace(self, charon=replace(self.charon,
                                            distributed=distributed))

    def with_bitmap_cache(self, enabled: bool) -> "SystemConfig":
        """A copy toggling the Sec. 4.5 bitmap cache (ablation)."""
        return replace(self, charon=replace(
            self.charon, bitmap_cache_enabled=enabled))

    def with_scan_push_local(self, local: bool) -> "SystemConfig":
        """A copy toggling Scan&Push placement (ablation: object's cube
        instead of the central cube)."""
        return replace(self, charon=replace(self.charon,
                                            scan_push_local=local))

    def with_dispatch_overhead(self, seconds: float) -> "SystemConfig":
        """A copy with a different host-side offload dispatch cost."""
        return replace(self, costs=replace(
            self.costs, charon_dispatch_overhead_s=seconds))

    def with_topology(self, topology: str) -> "SystemConfig":
        """A copy with a different inter-cube topology
        ("star" | "fully-connected")."""
        return replace(self, hmc=replace(self.hmc, topology=topology))

    def scaled_charon_units(self, factor: float) -> "SystemConfig":
        """A copy scaling the number of Charon units (Fig. 15 sweeps)."""
        charon = self.charon
        def scale(count: int) -> int:
            return max(self.hmc.cubes, int(round(count * factor)))
        return replace(self, charon=replace(
            charon,
            copy_search_units=scale(charon.copy_search_units),
            bitmap_count_units=scale(charon.bitmap_count_units),
            scan_push_units=max(1, int(round(charon.scan_push_units * factor))),
        ))


def default_config() -> SystemConfig:
    """The Table 2 configuration with the default scaled heap."""
    config = SystemConfig()
    config.validate()
    return config


#: Paper heap sizes (Table 3) and the 1/256 scale used in this repo.
PAPER_HEAP_SCALE = 256

PAPER_HEAP_BYTES: Dict[str, int] = {
    "spark-bs": 10 * GB,
    "spark-km": 8 * GB,
    "spark-lr": 12 * GB,
    "graphchi-cc": 4 * GB,
    "graphchi-pr": 4 * GB,
    "graphchi-als": 4 * GB,
}


def scaled_heap_bytes(workload: str) -> int:
    """Heap size for ``workload`` scaled down by :data:`PAPER_HEAP_SCALE`."""
    try:
        paper_bytes = PAPER_HEAP_BYTES[workload]
    except KeyError:
        raise ConfigError(f"unknown workload {workload!r}") from None
    return paper_bytes // PAPER_HEAP_SCALE


# ---------------------------------------------------------------------------
# Replay pipeline configuration (the compiled-trace/capture-once layer)
# ---------------------------------------------------------------------------

#: Environment variables steering the experiment replay pipeline.
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"          #: trace + stage-1 cache
TRACE_CACHE_REQUIRE_ENV = "REPRO_TRACE_CACHE_REQUIRE"  #: miss = error
REPLAY_JOBS_ENV = "REPRO_JOBS"                 #: replay_grid processes
WORKLOADS_ENV = "REPRO_WORKLOADS"              #: comma-separated subset
TRACE_OUT_ENV = "REPRO_TRACE_OUT"              #: Chrome trace at exit
METRICS_OUT_ENV = "REPRO_METRICS_OUT"          #: metric snapshot at exit
HEAP_KERNELS_ENV = "REPRO_HEAP_KERNELS"        #: scalar | fast
HEAP_BACKEND_ENV = "REPRO_HEAP_BACKEND"        #: ram | mmap
SHARD_JOURNAL_ENV = "REPRO_SHARD_JOURNAL"      #: sweep-shard directory
METRICS_PORT_ENV = "REPRO_METRICS_PORT"        #: live /metrics endpoint
EVENTLOG_ENV = "REPRO_EVENTLOG"                #: JSONL run-event log

#: ``repro replay --mode`` / :func:`repro.platform.make_replayer`:
#: ``fast`` (kernel-driven, the default) or ``event`` (the
#: event-by-event golden oracle).
REPLAY_MODES = ("fast", "event")

#: Heap-buffer backends (see :mod:`repro.heap.backing`): ``ram``
#: (default) allocates ``np.zeros`` pages up front, ``mmap`` backs the
#: heap and mark bitmaps with sparse memory-mapped temporary files so
#: paper-scale heaps allocate lazily and stay out of RSS until touched.
HEAP_BACKENDS = ("ram", "mmap")

#: Default events per chunk of the chunked binary trace layout.  Small
#: enough that a writer/reader holds only a bounded slab per trace in
#: addition to the trace being assembled, large enough that the zip
#: member overhead stays negligible.
DEFAULT_TRACE_CHUNK_EVENTS = 65536

#: Default size at which the JSONL run-event log rotates (the current
#: file moves to ``<path>.1`` and a fresh one starts).  Generous for a
#: paper-scale sweep (a record is ~150 bytes) while bounding what a
#: runaway run can leave behind.
DEFAULT_EVENTLOG_MAX_BYTES = 16 * MB


def default_heap_backend() -> str:
    """The environment-selected heap-buffer backend."""
    backend = os.environ.get(HEAP_BACKEND_ENV) or "ram"
    if backend not in HEAP_BACKENDS:
        raise ConfigError(
            f"{HEAP_BACKEND_ENV} must be one of {HEAP_BACKENDS}, "
            f"got {backend!r}")
    return backend


#: Functional-layer kernel selection (see
#: :mod:`repro.heap.fast_kernels`): ``fast`` (default) runs the
#: collectors on the vectorized heap primitives, ``scalar`` keeps the
#: reference object-at-a-time paths — the oracle the differential
#: fuzzer compares against.
HEAP_KERNEL_MODES = ("scalar", "fast")


def default_replay_jobs() -> int:
    """The default process count of
    :func:`repro.experiments.runner.replay_grid`: ``REPRO_JOBS``, or 1."""
    raw = os.environ.get(REPLAY_JOBS_ENV)
    try:
        jobs = int(raw) if raw else 1
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ConfigError(
            f"{REPLAY_JOBS_ENV} must be a positive process count, "
            f"got {raw!r}")
    return jobs
