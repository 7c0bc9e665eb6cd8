"""GraphChi workloads: connected components, PageRank, ALS.

The paper characterises CC/PR as allocating *many long-lived objects
with many references* (Sec. 5.2): the vertex graph lives in the old
generation for the whole run and its dense reference structure is what
makes Scan&Push and Bitmap Count heavy in MajorGC (Fig. 4b).  ALS is
the outlier: "it takes a very large matrix data as a single object,
which results in a huge copy".

The CC/PR graph is R-MAT (the paper uses scale 22; we use a scale
matched to the 1/256 heap scaling).  Every vertex is a ``Vertex``
instance pointing at a boxed value and an adjacency ``objArray`` whose
elements reference other vertices, plus a primitive edge-weight array —
the long-lived, pointer-rich old generation the paper describes.
"""

from __future__ import annotations

import numpy as np

from repro.units import KB
from repro.workloads.base import Workload
from repro.workloads.mutator import MutatorDriver
from repro.workloads.rmat import adjacency_arrays, generate_rmat


class GraphWorkload(Workload):
    """Shared R-MAT graph construction and shard machinery."""

    framework = "graphchi"
    dataset = "R-MAT Scale 22"
    rmat_scale = 12
    edge_factor = 16
    max_degree = 64
    shards = 5
    shard_buffer_bytes = 256 * KB
    #: primitive edge-data chunks streamed per shard (GraphChi's
    #: sliding-window edge values are large primitive arrays).
    edge_chunks_per_shard = 12
    edge_chunk_bytes = 16 * KB
    messages_per_shard = 512
    iterations = 16
    #: iterations of per-vertex results kept alive (forces promotion
    #: pressure through survivor overflow, as real GraphChi runs show).
    history_iterations = 3
    #: shards of in-flight messages kept alive (cross-shard messaging):
    #: messages survive scavenges and get promoted, filling the old
    #: generation with short-lived junk -- the big-data GC pathology.
    message_windows = 4
    compute_seconds_per_iteration = 0.0006

    @property
    def n_vertices(self) -> int:
        return 1 << self.rmat_scale

    def setup(self, driver: MutatorDriver) -> None:
        heap = driver.heap
        edges = generate_rmat(self.rmat_scale, self.edge_factor,
                              seed=hash(self.name) & 0xFFFF)
        owners, degree, neighbors = adjacency_arrays(
            edges, self.n_vertices, self.max_degree)
        n = self.n_vertices
        kid = {name: heap.klasses.by_name(name).klass_id
               for name in ("Vertex", "Box", "objArray", "typeArray")}

        self.vertex_table = driver.handle(
            driver.allocate("objArray", n).addr)
        # Pass 1: the vertices and their boxed values, interleaved.
        def store_vertices(first: int, addrs: np.ndarray) -> None:
            ids = np.arange(first, first + len(addrs))
            table = self.vertex_table.addr
            vertex = ids % 2 == 0
            heap.store_refs(table, ids[vertex] // 2, addrs[vertex])
            box = ~vertex
            heap.store_refs(heap.load_refs(table, ids[box] // 2), 0,
                            addrs[box])

        driver.allocate_batch(np.tile([kid["Vertex"], kid["Box"]], n),
                              np.zeros(2 * n, dtype=np.int64),
                              store_vertices)
        # Pass 2: per vertex with neighbours, an adjacency objArray
        # (references into the vertex table), a primitive edge-weight
        # array and a payload.
        neighbor_start = np.cumsum(degree) - degree

        def store_edges(first: int, addrs: np.ndarray) -> None:
            ids = np.arange(first, first + len(addrs))
            role, owner = ids % 3, ids // 3
            table = self.vertex_table.addr
            adj = role == 0
            heap.store_refs(heap.load_refs(table, owners[owner[adj]]), 1,
                            addrs[adj])
            # Weights hang off the value box to stay reachable.
            weights = role == 1
            boxes = heap.load_refs(
                heap.load_refs(table, owners[owner[weights]]), 0)
            heap.store_refs(boxes, 0, addrs[weights])
            payload = role == 2
            vertices = heap.load_refs(table, owners[owner[payload]])
            heap.store_refs(vertices, 2, addrs[payload])
            # The payload's allocation is the last before the adjacency
            # array gets filled.
            done = owner[payload]
            counts = degree[done]
            slot = (np.arange(counts.sum())
                    - np.repeat(np.cumsum(counts) - counts, counts))
            targets = heap.load_refs(table, neighbors[
                np.repeat(neighbor_start[done], counts) + slot])
            heap.store_refs(np.repeat(heap.load_refs(vertices, 1), counts),
                            slot, targets)

        driver.allocate_batch(
            np.tile([kid["objArray"], kid["typeArray"], kid["typeArray"]],
                    len(owners)),
            np.stack([degree, degree * 8,
                      np.full(len(owners), 160)], axis=1).ravel(),
            store_edges)
        self._message_windows = []
        # Result history ring: one objArray per remembered iteration.
        self.history = [
            driver.handle(driver.allocate(
                "objArray", self.n_vertices).addr)
            for _ in range(self.history_iterations)
        ]

    # -- per-iteration building blocks --------------------------------------

    def process_shards(self, driver: MutatorDriver,
                       touched_fraction: float) -> None:
        """Stream the shards: buffers plus update messages referencing
        vertices (the GraphChi sliding-window I/O pattern)."""
        heap = driver.heap
        step = max(1, int(1.0 / max(touched_fraction, 0.01)))
        data_kid = heap.klasses.by_name("typeArray").klass_id
        message_kid = heap.klasses.by_name("Message").klass_id
        chunks, messages = self.edge_chunks_per_shard, self.messages_per_shard
        kids = np.repeat([data_kid, message_kid], [chunks, messages])
        lengths = np.repeat([self.edge_chunk_bytes, 0], [chunks, messages])
        for shard in range(self.shards):
            buffer_handle = driver.handle(driver.allocate(
                "typeArray", self.shard_buffer_bytes).addr)
            message_table = driver.handle(driver.allocate(
                "objArray", self.messages_per_shard).addr)
            base = shard * (self.n_vertices // self.shards)
            # The bulk of shard traffic is primitive edge data (the
            # sliding-window chunks); a smaller stream of Message
            # objects carries vertex-targeted updates and produces the
            # old-to-young card traffic.
            chunk_ring = driver.handle(driver.allocate(
                "objArray", self.edge_chunks_per_shard).addr)

            def store_shard(first: int, addrs: np.ndarray) -> None:
                ids = np.arange(first, first + len(addrs))
                data = ids < chunks
                heap.store_refs(chunk_ring.addr, ids[data], addrs[data])
                slots = ids[~data] - chunks
                targets = heap.load_refs(
                    self.vertex_table.addr,
                    (base + slots * step) % self.n_vertices)
                heap.store_refs(addrs[~data], 0, targets)
                heap.store_refs(message_table.addr, slots, addrs[~data])

            driver.allocate_batch(kids, lengths, store_shard)
            # Messages and edge chunks stay in flight for a window of
            # shards (the sliding window), surviving scavenges and
            # feeding the premature-promotion churn real GraphChi runs
            # exhibit.
            self._message_windows.append(message_table)
            self._message_windows.append(chunk_ring)
            while len(self._message_windows) > 2 * self.message_windows:
                driver.release(self._message_windows.pop(0))
            driver.release(buffer_handle)

    def publish_results(self, driver: MutatorDriver, iteration: int,
                        fraction: float = 1.0) -> None:
        """Allocate fresh per-vertex results into the history ring.

        Stores into the (old) history array dirty cards, and keeping
        ``history_iterations`` of results alive drives promotions.
        """
        heap = driver.heap
        ring = self.history[iteration % self.history_iterations]

        def store_results(first: int, addrs: np.ndarray) -> None:
            ids = np.arange(first, first + len(addrs))
            heap.store_refs(addrs, 0,
                            heap.load_refs(self.vertex_table.addr, ids))
            heap.store_refs(ring.addr, ids, addrs)

        driver.allocate_batch(
            *driver.shapes("Record", int(self.n_vertices * fraction)),
            store_results)


class ConnectedComponents(GraphWorkload):
    """Label propagation: message-heavy, touching fewer vertices as the
    labels converge (Table 3: 4 GB heap)."""

    name = "graphchi-cc"
    messages_per_shard = 768
    iterations = 16

    def iteration(self, driver: MutatorDriver, index: int) -> None:
        # Convergence: later iterations touch fewer vertices.
        active = max(0.15, 1.0 - 0.12 * index)
        self.process_shards(driver, touched_fraction=active)
        self.publish_results(driver, index, fraction=active * 0.5)


class PageRank(GraphWorkload):
    """Power iteration: every vertex gets a fresh rank every iteration
    (Table 3: 4 GB heap)."""

    name = "graphchi-pr"
    messages_per_shard = 512
    history_iterations = 4
    iterations = 16

    def iteration(self, driver: MutatorDriver, index: int) -> None:
        self.process_shards(driver, touched_fraction=0.6)
        self.publish_results(driver, index, fraction=1.0)


class AlternatingLeastSquares(Workload):
    """ALS over a Matrix Market 15000x15000 matrix (Table 3: 4 GB heap).

    "ALS ... takes a very large matrix data as a single object, which
    results in a huge copy" (Sec. 3.2) — the ratings matrix and the
    per-iteration factor matrices are single multi-hundred-KB arrays,
    so nearly all GC time is bulk Copy.
    """

    name = "graphchi-als"
    framework = "graphchi"
    dataset = "Matrix Market (15000x15000)"
    iterations = 8
    ratings_bytes = 1280 * KB
    factor_bytes = 1024 * KB
    solver_temp_bytes = 128 * KB
    solver_temps = 8
    compute_seconds_per_iteration = 0.0008

    def setup(self, driver: MutatorDriver) -> None:
        heap = driver.heap
        self.holder = driver.handle(
            driver.allocate("objArray", 4).addr)
        ratings = driver.allocate("typeArray", self.ratings_bytes)
        heap.array_store(self.holder.addr, 0, ratings.addr)
        ratings_t = driver.allocate("typeArray", self.ratings_bytes)
        heap.array_store(self.holder.addr, 1, ratings_t.addr)

    def iteration(self, driver: MutatorDriver, index: int) -> None:
        heap = driver.heap
        # New factor matrices replace the previous iteration's (which
        # become garbage only after surviving at least one scavenge).
        users = driver.allocate("typeArray", self.factor_bytes)
        heap.array_store(self.holder.addr, 2, users.addr)
        items = driver.allocate("typeArray", self.factor_bytes)
        heap.array_store(self.holder.addr, 3, items.addr)
        for _ in range(self.solver_temps):
            temp = driver.handle(driver.allocate(
                "typeArray", self.solver_temp_bytes).addr)
            driver.release(temp)
