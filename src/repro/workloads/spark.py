"""Spark ML workloads: Bayesian classifier, k-means, logistic regression.

The paper characterises these as allocating *a small number of large
objects with few references and short lifetimes* (Sec. 5.2): RDD
partitions are big primitive arrays; per-iteration batches are consumed
and dropped; a cache of partitions lives across iterations (RDD
caching) and slowly churns, which is what gives MajorGC work and the
old-to-young references that make the card-table *Search* matter in
MinorGC (Fig. 4a shows Search+Copy dominating Spark's MinorGC).

Concretely each iteration:

1. allocates ``batches_per_iteration`` primitive batch arrays plus a
   stream of small ``Record`` sample objects referencing them;
2. appends a slice of records to an old-generation-resident model table
   (dirtying cards);
3. replaces ``cache_replacements`` cached partitions with fresh arrays
   (the old ones become MajorGC garbage);
4. drops everything else.
"""

from __future__ import annotations

import numpy as np

from repro.units import KB
from repro.workloads.base import Workload
from repro.workloads.mutator import MutatorDriver


class SparkWorkload(Workload):
    """Shared partition/batch/record machinery."""

    framework = "spark"
    partition_bytes = 256 * KB
    cached_partitions = 48
    batches_per_iteration = 24
    batch_bytes = 128 * KB
    records_per_iteration = 2500
    cache_replacements = 4
    model_capacity = 512
    iterations = 10
    compute_seconds_per_iteration = 0.0008

    def setup(self, driver: MutatorDriver) -> None:
        heap = driver.heap
        self.cache = driver.handle(
            driver.allocate("objArray", self.cached_partitions).addr)

        def store_partitions(first: int, addrs: np.ndarray) -> None:
            # Anchor each chunk into the cache before the next chunk
            # can trigger a (moving) collection.
            heap.store_refs(self.cache.addr,
                            np.arange(first, first + len(addrs)), addrs)

        driver.allocate_batch(
            *driver.shapes("typeArray", self.cached_partitions,
                           self.partition_bytes),
            store_partitions)
        self.model = driver.handle(
            driver.allocate("objArray", self.model_capacity).addr)
        self._model_cursor = 0

    def iteration(self, driver: MutatorDriver, index: int) -> None:
        heap = driver.heap
        records_per_batch = max(
            1, self.records_per_iteration // self.batches_per_iteration)
        keep_every = max(1, records_per_batch // 4)
        # Each sample allocates a Record pointing at its batch, and
        # every keep_every-th one also a summary Record.
        kept = np.arange(records_per_batch) % keep_every == 0
        per_sample = 1 + kept
        summary = np.zeros(per_sample.sum(), dtype=bool)
        summary[(np.cumsum(per_sample) - per_sample)[kept] + 1] = True
        records = driver.shapes("Record", len(summary))
        # Batches are consumed streaming-style: each batch array lives
        # only while its records are processed (short lifetimes, the
        # Sec. 5.2 Spark demographic).
        for batch in range(self.batches_per_iteration):
            data = driver.handle(
                driver.allocate("typeArray", self.batch_bytes).addr)

            def store_records(first: int, addrs: np.ndarray) -> None:
                summaries = summary[first:first + len(addrs)]
                heap.store_refs(addrs[~summaries], 0, data.addr)
                # Model summaries carry aggregated primitives only;
                # the store into the old model table dirties cards.
                slots = self._model_cursor + np.arange(
                    np.count_nonzero(summaries))
                heap.store_refs(self.model.addr,
                                slots % self.model_capacity,
                                addrs[summaries])
                self._model_cursor += len(slots)

            driver.allocate_batch(*records, store_records)
            driver.release(data)

        # RDD cache churn: replace a few partitions with new data.
        victims = (index * self.cache_replacements
                   + np.arange(self.cache_replacements)) \
            % self.cached_partitions

        def store_fresh(first: int, addrs: np.ndarray) -> None:
            heap.store_refs(self.cache.addr,
                            victims[first:first + len(addrs)], addrs)

        driver.allocate_batch(
            *driver.shapes("typeArray", self.cache_replacements,
                           self.partition_bytes),
            store_fresh)


class BayesianClassifier(SparkWorkload):
    """Naive Bayes over KDD 2010 (Table 3: 10 GB heap)."""

    name = "spark-bs"
    dataset = "KDD 2010"
    partition_bytes = 256 * KB
    cached_partitions = 44
    batches_per_iteration = 28
    records_per_iteration = 2500
    cache_replacements = 4


class KMeansClustering(SparkWorkload):
    """k-means over KDD 2010 (Table 3: 8 GB heap).

    Smaller partitions, more record churn (point assignments).
    """

    name = "spark-km"
    dataset = "KDD 2010"
    partition_bytes = 128 * KB
    cached_partitions = 64
    batches_per_iteration = 24
    batch_bytes = 128 * KB
    records_per_iteration = 4500
    cache_replacements = 6


class LogisticRegression(SparkWorkload):
    """Logistic regression over URL Reputation (Table 3: 12 GB heap).

    The heaviest allocator: larger batches and aggressive cache churn
    (gradient snapshots), driving more MajorGC activity.
    """

    name = "spark-lr"
    dataset = "URL Reputation"
    partition_bytes = 256 * KB
    cached_partitions = 56
    batches_per_iteration = 30
    batch_bytes = 192 * KB
    records_per_iteration = 3000
    cache_replacements = 8
