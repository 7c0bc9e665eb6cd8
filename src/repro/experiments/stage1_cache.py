"""Per-process memo of the trace-pure stage-1 replay products.

The batched replay kernels (:mod:`repro.platform.batched`) split every
replay into a trace-pure numpy precompute (**stage 1**) and the
order-dependent recurrence (**stage 2**).  Two stage-1 products are
pure functions of a trace's event columns and a small, hashable
parameter key: the host cost columns (``host_cols``) and the primitive
index (``prim_index``).  :func:`fetch` computes each once per trace and
key, in the trace's :func:`~repro.platform.batched._kernel_memo`, and
hands every later caller the same read-only arrays.  Nothing is kept
on disk: recomputing a product costs less than keying and reading a
stored one, so a new process, or a pool worker holding its own copy
of a trace, computes them again.

:data:`STATS` counts the memo's outcomes (``stage1_cache.hits`` and
``stage1_cache.misses`` in the global metrics registry).
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence, Tuple

import numpy as np

from repro.experiments import store
from repro.gcalgo.trace import GCTrace
from repro.platform.batched import _kernel_memo

#: Cumulative memo behaviour for this process tree.
STATS = store.Tally("stage1_cache", ("hits", "misses"))


def fetch(compiled: GCTrace, key: Hashable,
          produce: Callable[[], Sequence]) -> Tuple:
    """``compiled``'s product under ``key``: from the trace's memo, or
    computed by ``produce()`` on the first call, with its arrays
    frozen read-only (kernels index them but never write)."""
    memo = _kernel_memo(compiled)
    value = memo.get(key)
    if value is not None:
        STATS.add("hits")
        return value
    STATS.add("misses")
    value = memo[key] = tuple(produce())
    for item in value:
        if isinstance(item, np.ndarray):
            item.flags.writeable = False
    return value
