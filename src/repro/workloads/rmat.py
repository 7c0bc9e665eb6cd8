"""R-MAT graph generation (Chakrabarti et al.), the paper's CC/PR input.

The paper uses R-MAT scale 22 (~4M vertices); we generate the same
distribution at a scale matched to the 1/256 heap scaling.  The
recursive quadrant descent uses the GraphChallenge defaults
(a, b, c, d) = (0.57, 0.19, 0.19, 0.05), yielding the usual skewed
power-law-ish degree distribution that makes PageRank/CC traversal
irregular.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigError


def generate_rmat(scale: int, edge_factor: int = 6,
                  a: float = 0.57, b: float = 0.19, c: float = 0.19,
                  seed: int = 42,
                  deduplicate: bool = True) -> List[Tuple[int, int]]:
    """Generate ``edge_factor * 2**scale`` R-MAT edges.

    Returns (src, dst) pairs over ``2**scale`` vertices; self-loops are
    dropped and duplicates removed when ``deduplicate``.
    """
    if scale < 1 or scale > 26:
        raise ConfigError("scale out of supported range")
    if not 0 < a + b + c < 1:
        raise ConfigError("quadrant probabilities must leave room for d")
    n_vertices = 1 << scale
    n_edges = edge_factor * n_vertices
    max_attempts = n_edges * 4
    # numpy's MT19937 continues the exact stream random.Random(seed)
    # draws (same state, same 53-bit doubles), so whole batches of
    # attempts descend the quadrants at once.
    words = random.Random(seed).getstate()[1]
    stream = np.random.RandomState()
    stream.set_state(("MT19937", np.array(words[:-1], dtype=np.uint32),
                      words[-1]))
    weights = np.left_shift(1, np.arange(scale - 1, -1, -1))
    keys = np.empty(0, dtype=np.int64)
    attempts = 0
    while len(keys) < n_edges and attempts < max_attempts:
        batch = min(n_edges, max_attempts - attempts)
        attempts += batch
        draws = stream.random_sample((batch, scale))
        src = (draws >= a + b) @ weights
        dst = (((draws >= a) & (draws < a + b)) | (draws >= a + b + c)) \
            @ weights
        fresh = (src << scale | dst)[src != dst]
        if deduplicate:
            _, first = np.unique(fresh, return_index=True)
            fresh = fresh[np.sort(first)]
            fresh = fresh[~np.isin(fresh, keys)]
        keys = np.concatenate((keys, fresh))
    keys = keys[:n_edges]
    return list(zip((keys >> scale).tolist(),
                    (keys & (n_vertices - 1)).tolist()))


def adjacency_arrays(edges: List[Tuple[int, int]], n_vertices: int,
                     max_degree: int = 64
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Out-adjacency as arrays, each vertex's first ``max_degree`` edges
    in edge order: the vertices with out-edges (ascending), their
    degrees, and their neighbours concatenated in that order.

    The cap bounds the worst hub objects so scaled heaps stay
    proportionate; R-MAT hubs at full scale would dwarf the scaled
    survivor spaces.
    """
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    if (pairs >= n_vertices).any():
        raise ConfigError("edge endpoint out of range")
    pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
    owners, first, counts = np.unique(pairs[:, 0], return_index=True,
                                      return_counts=True)
    rank = np.arange(len(pairs)) - np.repeat(first, counts)
    return (owners, np.minimum(counts, max_degree),
            pairs[rank < max_degree, 1])


def adjacency_lists(edges: List[Tuple[int, int]],
                    n_vertices: int,
                    max_degree: int = 64) -> Dict[int, List[int]]:
    """:func:`adjacency_arrays` as a vertex -> neighbour-list dict."""
    owners, degree, neighbors = adjacency_arrays(edges, n_vertices,
                                                 max_degree)
    return dict(zip(owners.tolist(),
                    (part.tolist() for part in
                     np.split(neighbors, np.cumsum(degree)[:-1]))))


def degree_histogram(adjacency: Dict[int, List[int]]) -> Dict[int, int]:
    """Degree -> vertex count (used by tests to sanity-check skew)."""
    histogram: Dict[int, int] = {}
    for neighbors in adjacency.values():
        degree = len(neighbors)
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram
