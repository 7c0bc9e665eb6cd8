"""The lazy heap: RSS tracks the bytes touched, not the configured
capacity.

``JavaHeap`` and ``MarkBitmaps`` allocate with ``np.zeros``, which is
``calloc``: pages are committed on first touch.  A fresh-interpreter
RSS measurement pins that at a 10x-scaled heap; a change that eagerly
fills or copies the heap buffer or the mark bitmaps fails here.  A
replay allocates no heap at all: a second child replays a workload
trace file with a heap configured several times larger than its hard
address-space cap.

RSS is the child's current ``VmRSS`` while the buffers are live, never
``ru_maxrss``: a forked child's ``ru_maxrss`` inherits the parent's
peak at fork time, which would track the test runner's size instead
of the heap's.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.experiments import figures, primitive_selection, runner
from repro.experiments.runner import collect_run
from repro.gcalgo.trace_io import save_traces_npz
from repro.heap.heap import JavaHeap
from repro.platform import PLATFORM_NAMES

REPO = Path(__file__).resolve().parent.parent

#: The child's RSS in bytes, printed as the last line of a script.
_PRINT_RSS = (
    "status = open('/proc/self/status').read()\n"
    "report['rss_bytes'] = "
    "int(status.split('VmRSS:')[1].split()[0]) * 1024\n"
    "print(json.dumps(report))\n")

#: Replays a trace file (argv[1]) on charon at 8 GC threads with a
#: heap of argv[2] bytes, under an address-space cap of argv[3] bytes
#: (an allocation past the cap dies with MemoryError).
_SCALED_REPLAY = (
    "import json, resource, sys\n"
    "cap = int(sys.argv[3])\n"
    "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
    "from repro.config import default_config\n"
    "from repro.gcalgo.trace_io import load_compiled\n"
    "from repro.platform import build_platform\n"
    "from repro.platform.fast_replay import make_replayer\n"
    "config = default_config().with_heap_bytes(int(sys.argv[2]))\n"
    "replayer = make_replayer(build_platform('charon', config),\n"
    "                         threads=8, mode='fast')\n"
    "traces, _ = load_compiled(sys.argv[1])\n"
    "result = replayer.replay_all(traces)\n"
    "report = {'events': sum(len(trace.events) for trace in traces),\n"
    "          'replay_kernel': result.replay_kernel}\n"
    + _PRINT_RSS)


def run_child(script, *args):
    """Run ``script`` in a fresh interpreter; returns its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    process = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        cwd=REPO, text=True, capture_output=True, env=env)
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


class TestPeakRss:
    def test_scaled_heap_rss_stays_below_capacity(self):
        """Building the heap and bitmaps commits only the pages actually
        touched."""
        scale_bytes = 10 * 16 * (1 << 20)
        rss = run_child(
            "import json\n"
            "from repro.config import default_config\n"
            "from repro.heap.heap import JavaHeap\n"
            f"config = default_config().with_heap_bytes({scale_bytes})\n"
            "heap = JavaHeap(config.heap)\n"
            "heap.buffer[:1 << 20] = 1  # touch only the first MiB\n"
            "report = {}\n" + _PRINT_RSS)["rss_bytes"]
        # half the heap is generous headroom for interpreter + numpy,
        # yet fails hard if anything commits the whole buffer
        assert rss < scale_bytes / 2, (
            f"RSS {rss / (1 << 20):.0f} MiB not decoupled from "
            f"the {scale_bytes / (1 << 20):.0f} MiB heap")

    def test_replay_at_10x_heap_stays_below_capacity(self, tmp_path):
        """graphchi-als and spark-km, captured at their default heaps
        and written to one trace file, replay through the batched
        Charon kernel under a 1 GiB address-space cap with a 4 GiB
        heap configured: a replay takes the heap's layout, so building
        the heap would die with MemoryError (RSS is about 46 MiB)."""
        workloads = ("graphchi-als", "spark-km")
        trace_path = tmp_path / "scale.gctrace.npz"
        events = save_traces_npz(
            (trace for name in workloads
             for trace in collect_run(name).traces),
            trace_path)
        assert events
        cap = 1 << 30
        heap_bytes = 4 * cap
        report = run_child(_SCALED_REPLAY, trace_path, heap_bytes, cap)
        assert report["events"] == events
        assert report["replay_kernel"] == "charon-batched"
        assert report["rss_bytes"] < cap / 4, (
            f"RSS {report['rss_bytes'] / (1 << 20):.0f} MiB is not "
            f"below a quarter of the {cap >> 20} MiB cap")


class TestReplayBuildsNoHeap:
    def test_production_replays_build_no_heap(self, monkeypatch, capsys):
        """The production replay paths -- ``replay_platform`` on every
        platform, Fig. 4, the Sec. 3.3 studies and the ``report`` and
        ``stats`` commands -- build their platforms from the layout
        alone: once the run is captured, no ``JavaHeap`` is built."""
        from repro.cli import main

        name = "graphchi-als"
        collect_run(name)

        def refuse(self, *args, **kwargs):
            raise AssertionError("a replay built a JavaHeap")

        monkeypatch.setattr(JavaHeap, "__init__", refuse)
        monkeypatch.setattr(runner, "_REPLAY_CACHE", {})
        for platform in PLATFORM_NAMES:
            assert runner.replay_platform(platform, name).wall_seconds > 0
        assert figures.figure4([name])
        assert primitive_selection.selection_summary()
        assert main(["report", name]) == 0
        assert main(["stats", name, "--platform", "charon"]) == 0
        capsys.readouterr()
