"""Tests for the CLI and the ablation studies (fast workload only)."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro import cli
from repro.cli import ABLATIONS, FIGURES, TABLES, build_parser, main
from repro.experiments import ablations
from repro.experiments.runner import clear_cache

from tests.conftest import cli_error


@pytest.fixture(scope="module", autouse=True)
def fresh_cache():
    clear_cache()
    yield


FAST = ["graphchi-als"]


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "spark-bs" in out
        assert "charon" in out

    def test_run(self, capsys):
        assert main(["run", "graphchi-als", "--platform",
                     "cpu-ddr4"]) == 0
        out = capsys.readouterr().out
        assert "minor" in out
        assert "GC wall" in out

    def test_run_with_heap_and_threads(self, capsys):
        assert main(["run", "graphchi-als", "--platform", "charon",
                     "--heap-mb", "24", "--threads", "4"]) == 0
        assert "charon" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "graphchi-als"]) == 0
        out = capsys.readouterr().out
        for platform in ("cpu-ddr4", "cpu-hmc", "charon", "ideal"):
            assert platform in out

    def test_table(self, capsys):
        assert main(["table", "4"]) == 0
        assert "Bitmap Cache" in capsys.readouterr().out

    def test_figure_with_workload_subset(self, capsys):
        assert main(["figure", "12", "--workloads",
                     "graphchi-als"]) == 0
        out = capsys.readouterr().out
        assert "geomean" in out

    def test_ablation(self, capsys):
        assert main(["ablation", "unit-count", "--workloads",
                     "graphchi-als"]) == 0
        assert "units_" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert main(["sweep", "--platforms", "ideal,charon",
                     "--workloads", "graphchi-als", "--jobs", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        cells = [line.split()[:2] for line in lines
                 if line.endswith(" mJ")]
        assert cells == [["ideal", "graphchi-als"],
                         ["charon", "graphchi-als"]]
        assert any(line.startswith("trace cache: ") for line in lines)

    @pytest.mark.parametrize("argv", [
        ["top"], ["sweep", "status"], ["sweep", "run"],
        ["sweep", "--journal", "journal"], ["sweep", "--watch"]],
        ids=["top", "sweep-status", "sweep-run", "sweep-journal",
             "sweep-watch"])
    def test_retired_sweep_monitor_arguments_are_rejected(self, argv):
        """The progress monitor and the one-choice ``sweep`` action are
        gone: their arguments are usage errors, not silent no-ops."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nope"])

    def test_registries_complete(self):
        assert set(FIGURES) == {"2", "4", "12", "13", "14", "15", "16",
                                "17"}
        assert set(TABLES) == {"1", "2", "3", "4"}
        assert len(ABLATIONS) == 5

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trace_and_replay(self, tmp_path, capsys):
        path = tmp_path / "als.gctrace.npz"
        assert main(["trace", "graphchi-als", str(path)]) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["replay", str(path), "--platform",
                     "cpu-ddr4"]) == 0
        out = capsys.readouterr().out
        assert "replayed" in out
        assert "ms" in out

    @pytest.mark.parametrize("argv", [["trace", "graphchi-als"],
                                      ["replay"]])
    def test_trace_file_must_be_npz(self, tmp_path, capsys, argv,
                                    monkeypatch):
        """A non-.npz name is refused before any capture or read."""
        monkeypatch.setattr(cli, "collect_run", None)
        path = tmp_path / "als.gctrace.json"
        path.write_text("{}")
        assert ".npz" in cli_error(capsys, [*argv, str(path)])

    def test_replay_fast_mode_distributed_supported(self, tmp_path,
                                                    capsys):
        """--distributed no longer refuses --mode fast: the batched
        kernel resolves the per-cube TLB/bitmap-cache slices."""
        path = tmp_path / "als.gctrace.npz"
        assert main(["trace", "graphchi-als", str(path)]) == 0
        capsys.readouterr()
        assert main(["replay", str(path), "--platform", "charon",
                     "--distributed", "--mode", "fast"]) == 0
        assert "replayed" in capsys.readouterr().out

    def test_replay_fast_mode_supported(self, tmp_path, capsys):
        path = tmp_path / "als.gctrace.npz"
        assert main(["trace", "graphchi-als", str(path)]) == 0
        capsys.readouterr()
        assert main(["replay", str(path), "--platform", "charon",
                     "--mode", "fast"]) == 0
        assert "replayed" in capsys.readouterr().out

    def test_report(self, capsys):
        assert main(["report", "graphchi-als"]) == 0
        out = capsys.readouterr().out
        assert "offloads" in out
        assert "copy_search#0" in out


SRC = pathlib.Path(__file__).parent.parent / "src"


@pytest.mark.parametrize("argv,message", [
    (["trace", "spark-lr", "x.json"], "trace files are .npz"),
    (["sweep", "--heap-mb", "160"], "ran no collection in a 160 MiB heap"),
], ids=["trace-json", "sweep-no-collection"])
def test_library_error_is_one_line(tmp_path, argv, message):
    """``python -m repro`` reports a library error as one stderr line and
    exit status 2, with no traceback."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    process = subprocess.run([sys.executable, "-m", "repro", *argv],
                             cwd=tmp_path, env=env, text=True,
                             capture_output=True, timeout=300)
    assert process.returncode == 2
    assert "Traceback" not in process.stderr
    (line,) = process.stderr.splitlines()
    assert line.startswith("repro: error: ") and message in line


class TestAblations:
    def test_bitmap_cache_rows(self):
        rows = ablations.bitmap_cache_ablation(FAST)
        row = rows[0]
        assert row["gc_slowdown_without"] >= 0.95
        assert 0 <= row["hit_rate_pct"] <= 100

    def test_scan_push_placement_rows(self):
        rows = ablations.scan_push_placement_ablation(FAST)
        row = rows[0]
        assert row["scan_push_central_ms"] >= 0
        assert row["scan_push_local_ms"] >= 0

    def test_unit_count_monotonicity(self):
        rows = ablations.unit_count_sweep(FAST, factors=(0.5, 4.0))
        row = rows[0]
        keys = sorted((k for k in row if k.startswith("units_")),
                      key=lambda k: int(k.split("_")[1]))
        assert row[keys[-1]] >= row[keys[0]] * 0.95

    def test_dispatch_overhead_monotone(self):
        rows = ablations.dispatch_overhead_sweep(
            FAST, overheads_ns=(0.0, 400.0))
        row = rows[0]
        assert row["0ns"] >= row["400ns"]

    def test_topology_rows(self):
        rows = ablations.topology_ablation(FAST)
        row = rows[0]
        assert row["speedup"] >= 0.99
        assert 0 <= row["remote_pct"] <= 100
