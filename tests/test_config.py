"""Tests for the system configuration (Table 2 encoding) and the
environment knobs (:func:`repro.config.settings`)."""

import ast
import dataclasses
import json
from pathlib import Path

import pytest

from repro import config as config_module
from repro.config import (HEAP_KERNELS_ENV, METRICS_PORT_ENV,
                          OBS_OUT_ENV, REPLAY_JOBS_ENV, SHARD_JOURNAL_ENV,
                          TRACE_CACHE_ENV, CostModelConfig, HeapConfig,
                          Settings, SystemConfig, default_config,
                          scaled_heap_bytes, settings, PAPER_HEAP_SCALE)
from repro.errors import ConfigError

SRC = Path(config_module.__file__).resolve().parent


class TestTable2Values:
    def test_host(self):
        config = default_config()
        assert config.host.num_cores == 8
        assert config.host.freq_hz == pytest.approx(2.67e9)
        assert config.host.instruction_window == 36
        assert config.host.rob_entries == 128
        assert config.host.issue_width == 4

    def test_caches(self):
        caches = default_config().caches
        assert caches.l1d.size_bytes == 32 * 1024
        assert caches.l2.size_bytes == 256 * 1024
        assert caches.l3.size_bytes == 8 * 1024 * 1024

    def test_ddr4(self):
        ddr4 = default_config().ddr4
        assert ddr4.channels == 2
        assert ddr4.total_bandwidth == pytest.approx(34e9)
        assert ddr4.energy_pj_per_bit == 35.0
        assert ddr4.tck_s == pytest.approx(0.937e-9)

    def test_hmc(self):
        hmc = default_config().hmc
        assert hmc.cubes == 4
        assert hmc.vaults_per_cube == 32
        assert hmc.internal_bandwidth_per_cube == pytest.approx(320e9)
        assert hmc.link_bandwidth == pytest.approx(80e9)
        assert hmc.link_latency_s == pytest.approx(3e-9)
        assert hmc.energy_pj_per_bit == 21.0

    def test_charon_units(self):
        charon = default_config().charon
        assert charon.copy_search_units == 8
        assert charon.bitmap_count_units == 8
        assert charon.scan_push_units == 8
        assert charon.bitmap_cache_bytes == 8 * 1024
        assert charon.bitmap_cache_ways == 8
        assert charon.bitmap_cache_line == 32
        assert charon.mai_entries_per_cube == 32
        assert charon.request_packet_bytes == 48
        assert charon.response_packet_bytes == 32
        assert charon.response_packet_bytes_noval == 16

    def test_heap_defaults(self):
        heap = HeapConfig(heap_bytes=24 << 20)
        assert heap.young_bytes == pytest.approx(8 << 20, rel=0.01)
        assert heap.old_bytes == pytest.approx(16 << 20, rel=0.01)


class TestValidation:
    def test_default_valid(self):
        default_config().validate()

    def test_bad_threads(self):
        config = dataclasses.replace(default_config(), gc_threads=0)
        with pytest.raises(ConfigError):
            config.validate()

    def test_tiny_heap_rejected(self):
        with pytest.raises(ConfigError):
            default_config().with_heap_bytes(32 * 1024).validate()

    def test_bad_hit_fraction(self):
        costs = dataclasses.replace(CostModelConfig(),
                                    copy_hit_fraction=1.5)
        config = dataclasses.replace(default_config(), costs=costs)
        with pytest.raises(ConfigError):
            config.validate()


class TestDerivedConfigs:
    def test_with_heap_bytes(self):
        config = default_config().with_heap_bytes(64 << 20)
        assert config.heap.heap_bytes == 64 << 20
        assert default_config().heap.heap_bytes != 64 << 20

    def test_with_gc_threads(self):
        assert default_config().with_gc_threads(4).gc_threads == 4

    def test_with_distributed(self):
        config = default_config().with_distributed_charon(True)
        assert config.charon.distributed

    def test_scaled_units(self):
        config = default_config().scaled_charon_units(2.0)
        assert config.charon.copy_search_units == 16
        assert config.charon.scan_push_units == 16

    def test_scaled_units_floor(self):
        config = default_config().scaled_charon_units(0.01)
        assert config.charon.copy_search_units >= config.hmc.cubes
        assert config.charon.scan_push_units >= 1

    def test_scaled_heap_bytes(self):
        assert scaled_heap_bytes("spark-bs") == \
            (10 << 30) // PAPER_HEAP_SCALE

    def test_scaled_heap_unknown(self):
        with pytest.raises(ConfigError):
            scaled_heap_bytes("nope")

    def test_with_bitmap_cache(self):
        config = default_config().with_bitmap_cache(False)
        assert not config.charon.bitmap_cache_enabled
        assert default_config().charon.bitmap_cache_enabled

    def test_with_scan_push_local(self):
        assert default_config().with_scan_push_local(True) \
            .charon.scan_push_local

    def test_with_dispatch_overhead(self):
        config = default_config().with_dispatch_overhead(1e-7)
        assert config.costs.charon_dispatch_overhead_s == 1e-7

    def test_with_topology(self):
        config = default_config().with_topology("fully-connected")
        assert config.hmc.topology == "fully-connected"
        assert default_config().hmc.topology == "star"


class TestSettings:
    def test_six_knobs(self):
        names = sorted(value for value in vars(config_module).values()
                       if isinstance(value, str)
                       and value.startswith("REPRO_"))
        assert names == sorted([TRACE_CACHE_ENV, REPLAY_JOBS_ENV,
                                OBS_OUT_ENV, HEAP_KERNELS_ENV,
                                SHARD_JOURNAL_ENV, METRICS_PORT_ENV])

    def test_defaults(self):
        assert settings({}) == Settings()
        assert settings({}).to_dict() == {
            "trace_cache": None, "jobs": 1, "obs_out": None,
            "heap_kernels": "fast", "shard_journal": None,
            "metrics_port": None, "cc": "gcc"}

    @pytest.mark.parametrize("knob, value", [
        (REPLAY_JOBS_ENV, "0"), (REPLAY_JOBS_ENV, "-3"),
        (REPLAY_JOBS_ENV, "two"),
        (HEAP_KERNELS_ENV, "bogus"),
        (METRICS_PORT_ENV, "x"), (METRICS_PORT_ENV, "70000"),
        (METRICS_PORT_ENV, "-1"),
    ])
    def test_invalid_value_names_the_knob(self, knob, value):
        with pytest.raises(ConfigError, match=knob):
            settings({knob: value})

    @pytest.mark.parametrize("knob, field", [
        (TRACE_CACHE_ENV, "trace_cache"), (OBS_OUT_ENV, "obs_out"),
        (SHARD_JOURNAL_ENV, "shard_journal")])
    def test_directory_knobs_take_any_path(self, knob, field):
        """A directory knob has no invalid value: any non-empty string
        is a path, and empty means the store or export is off."""
        assert getattr(settings({knob: "some dir"}), field) == "some dir"
        assert getattr(settings({knob: ""}), field) is None

    def test_parsed_values(self):
        parsed = settings({REPLAY_JOBS_ENV: "3", HEAP_KERNELS_ENV: "scalar",
                           METRICS_PORT_ENV: "0", "CC": "clang"})
        assert (parsed.jobs, parsed.heap_kernels, parsed.metrics_port,
                parsed.cc) == (3, "scalar", 0, "clang")
        assert settings({"CC": ""}).cc == "gcc"

    def test_unknown_repro_names_are_ignored(self):
        assert settings({"REPRO_STAGE1_CACHE": "x"}) == settings({})

    def test_to_dict_survives_json(self):
        knobs = settings({TRACE_CACHE_ENV: "/c", REPLAY_JOBS_ENV: "2",
                          OBS_OUT_ENV: "o", HEAP_KERNELS_ENV: "scalar",
                          SHARD_JOURNAL_ENV: "j", METRICS_PORT_ENV: "9",
                          "CC": "cc"})
        record = knobs.to_dict()
        assert json.loads(json.dumps(record)) == record
        assert Settings(**record) == knobs

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            settings({}).jobs = 2

    def test_read_on_every_call(self, monkeypatch):
        monkeypatch.setenv(REPLAY_JOBS_ENV, "2")
        assert settings().jobs == 2
        monkeypatch.setenv(REPLAY_JOBS_ENV, "5")
        assert settings().jobs == 5

    def test_readers_take_their_field(self, monkeypatch, tmp_path):
        from repro.experiments import shard_journal, store
        from repro.heap import fast_kernels

        monkeypatch.setenv(HEAP_KERNELS_ENV, "scalar")
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "cache"))
        monkeypatch.setenv(SHARD_JOURNAL_ENV, str(tmp_path / "journal"))
        assert fast_kernels.kernel_mode() == "scalar"
        with fast_kernels.use_kernel_mode("fast"):  # the override wins
            assert fast_kernels.kernel_mode() == "fast"
        assert store.resolve() == tmp_path / "cache"
        assert shard_journal.journal_dir() == tmp_path / "journal"
        monkeypatch.setenv(HEAP_KERNELS_ENV, "bogus")
        with pytest.raises(ConfigError, match=HEAP_KERNELS_ENV):
            fast_kernels.kernel_mode()


_ENVIRONMENT_READS = {"environ", "environb", "getenv"}


def environment_reads(source: str) -> list:
    """Line numbers where ``source`` reads the process environment
    through the ``os`` module."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) \
                and node.attr in _ENVIRONMENT_READS \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "os":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" \
                and {alias.name for alias in node.names} \
                & _ENVIRONMENT_READS:
            lines.append(node.lineno)
    return sorted(lines)


def test_environment_scan_finds_reads():
    assert environment_reads("import os\nx = os.environ.get('A')\n"
                             "y = os.getenv('B')\n") == [2, 3]
    assert environment_reads("from os import environb\n") == [1]
    assert environment_reads("import os\nos.getpid()\n") == []


def test_only_config_reads_the_environment():
    """``repro.config.settings`` is the one reader of the environment
    under ``src/repro``; every other module takes its knob from it."""
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = environment_reads(path.read_text())
        if lines and path != SRC / "config.py":
            offenders[str(path.relative_to(SRC))] = lines
    assert offenders == {}
    assert environment_reads((SRC / "config.py").read_text())
