"""The heap buffer stays lazy: RSS tracks the bytes touched, not the
configured capacity.

``JavaHeap`` and ``MarkBitmaps`` allocate with ``np.zeros``, which is
``calloc``: pages are committed on first touch.  This pins that with a
fresh-interpreter RSS measurement at a 10x-scaled heap, so a change
that eagerly fills or copies the heap buffer fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


class TestPeakRss:
    def test_scaled_heap_rss_stays_below_capacity(self):
        """Peak RSS at a 10x-scaled heap must not track the configured
        capacity (the bench_scale regression, in miniature): building
        the heap and bitmaps commits only the pages actually touched."""
        scale_bytes = 10 * 16 * (1 << 20)
        # current VmRSS while the buffers are live, NOT ru_maxrss: a
        # forked child's ru_maxrss inherits the parent's peak at fork
        # time, which would make this measurement track the test
        # runner's size instead of the heap's
        script = (
            "import json\n"
            "from repro.config import default_config\n"
            "from repro.heap.heap import JavaHeap\n"
            f"config = default_config().with_heap_bytes({scale_bytes})\n"
            "heap = JavaHeap(config.heap)\n"
            "heap.buffer[:1 << 20] = 1  # touch only the first MiB\n"
            "status = open('/proc/self/status').read()\n"
            "rss = int(status.split('VmRSS:')[1].split()[0])\n"
            "print(json.dumps({'peak_rss_bytes': rss * 1024}))\n")
        process = subprocess.run(
            [sys.executable, "-c", script],
            cwd=REPO, text=True, capture_output=True,
            env={"PYTHONPATH": str(REPO / "src")})
        assert process.returncode == 0, process.stderr
        peak = json.loads(process.stdout)["peak_rss_bytes"]
        # half the heap is generous headroom for interpreter + numpy,
        # yet fails hard if anything commits the whole buffer
        assert peak < scale_bytes / 2, (
            f"peak RSS {peak / (1 << 20):.0f} MiB not decoupled from "
            f"the {scale_bytes / (1 << 20):.0f} MiB heap")
