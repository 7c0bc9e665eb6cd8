"""The benchmark's contract with the library.

``bench/spans.py`` wraps library functions by name, and
``bench/passes.py`` calls others; a renamed function breaks only the
benchmark's traced pass.  This runs ``spans.install`` against the real
library in a fresh interpreter and checks that every name the passes
look up still resolves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_INSTALL = """
import json, sys
sys.path.insert(0, "bench")
import spans
spans.install(spans.SpanRecorder())
from repro.experiments import runner, stage1_cache, trace_cache
from repro.gcalgo import trace_io
names = {
    "runner.replay_grid": runner.replay_grid,
    "runner.replay_platform": runner.replay_platform,
    "runner.workload_config": runner.workload_config,
    "trace_cache.STATS.snapshot": trace_cache.STATS.snapshot,
    "stage1_cache.STATS.snapshot": stage1_cache.STATS.snapshot,
}
print(json.dumps({
    "callable": sorted(name for name, value in names.items()
                       if callable(value)),
    "wrapped": sorted(name for name, value in (
        ("trace_io.save_traces_npz", trace_io.save_traces_npz),
        ("trace_io.load_compiled", trace_io.load_compiled),
        ("runner.replay_grid", runner.replay_grid),
        ("runner.replay_platform", runner.replay_platform))
        if hasattr(value, "__wrapped__")),
}))
"""


def test_spans_install_against_the_library():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    process = subprocess.run([sys.executable, "-c", _INSTALL], cwd=REPO,
                             env=env, text=True, capture_output=True)
    assert process.returncode == 0, process.stderr
    report = json.loads(process.stdout.strip().splitlines()[-1])
    assert report["callable"] == sorted([
        "runner.replay_grid", "runner.replay_platform",
        "runner.workload_config", "trace_cache.STATS.snapshot",
        "stage1_cache.STATS.snapshot"])
    assert report["wrapped"] == sorted([
        "trace_io.save_traces_npz", "trace_io.load_compiled",
        "runner.replay_grid", "runner.replay_platform"])
