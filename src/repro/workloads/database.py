"""In-memory database workloads: redis, memcached, hyrise.

* ``redis`` and ``memcached`` serve memtier-generated all-write key-value
  requests with a Gaussian key-popularity distribution.  Keys land on random
  pages (poor page-level locality -- these are the stealth-cache outliers of
  Figure 7 at 67 % and 85 % hit rate), but each request writes a small run of
  blocks within the key's page, so pages still stay overwhelmingly flat.
* ``hyrise`` runs TPC-C-style transactions: scans and point reads over column
  segments with bursts of commit-time writes, yielding ~4 % uneven pages.
"""

from __future__ import annotations

from typing import List

from repro.core.config import GIB
from repro.workloads.base import Workload, WorkloadCharacteristics, WorkloadPhase
from repro.workloads.patterns import (
    gaussian_kv_writes,
    random_reads,
    sequential_write_sweep,
    streaming_reads,
    transactional_writes,
)


class RedisKeyValueStore(Workload):
    """redis: mostly single-threaded key-value store under memtier SETs."""

    name = "redis"
    characteristics = WorkloadCharacteristics(
        rss_bytes=int(11.8 * GIB),
        llc_mpki=0.76,
        category="database",
        write_fraction=0.60,
        instructions_per_access=4.0,
    )

    def region_plan(self):
        return [("keyspace", 0.85), ("dict_index", 0.15)]

    def build_phases(self) -> List[WorkloadPhase]:
        return [
            WorkloadPhase("warm-keyspace", 0.10, sequential_write_sweep("keyspace")),
            WorkloadPhase("set-requests", 0.70, gaussian_kv_writes("keyspace", write_fraction=1.0, sigma_fraction=0.20)),
            WorkloadPhase("index-lookups", 0.20, random_reads("dict_index")),
        ]


class MemcachedKeyValueStore(Workload):
    """memcached: slab-allocated key-value cache under memtier SETs."""

    name = "memcached"
    characteristics = WorkloadCharacteristics(
        rss_bytes=int(11.8 * GIB),
        llc_mpki=3.14,
        category="database",
        write_fraction=0.55,
        instructions_per_access=3.0,
    )

    def region_plan(self):
        return [("slabs", 0.80), ("hash_index", 0.20)]

    def build_phases(self) -> List[WorkloadPhase]:
        return [
            WorkloadPhase("warm-slabs", 0.10, sequential_write_sweep("slabs")),
            WorkloadPhase("set-requests", 0.65, gaussian_kv_writes("slabs", write_fraction=1.0, sigma_fraction=0.15)),
            WorkloadPhase("index-lookups", 0.25, random_reads("hash_index", hot_fraction=0.1, hot_weight=0.3)),
        ]


class HyriseOltp(Workload):
    """hyrise: in-memory SQL database running TPC-C-style transactions."""

    name = "hyrise"
    characteristics = WorkloadCharacteristics(
        rss_bytes=int(6.96 * GIB),
        llc_mpki=3.14,
        category="database",
        write_fraction=0.30,
        instructions_per_access=3.0,
    )

    def region_plan(self):
        return [("columns", 0.70), ("indexes", 0.20), ("log", 0.10)]

    def build_phases(self) -> List[WorkloadPhase]:
        return [
            WorkloadPhase("load-tables", 0.15, sequential_write_sweep("columns")),
            WorkloadPhase("scans", 0.40, streaming_reads("columns")),
            WorkloadPhase("transactions", 0.35, transactional_writes("columns", txn_span_blocks=8, write_fraction=0.2)),
            WorkloadPhase("log-append", 0.10, sequential_write_sweep("log")),
        ]


DATABASE_WORKLOADS = {
    "redis": RedisKeyValueStore,
    "memcached": MemcachedKeyValueStore,
    "hyrise": HyriseOltp,
}

__all__ = [
    "RedisKeyValueStore",
    "MemcachedKeyValueStore",
    "HyriseOltp",
    "DATABASE_WORKLOADS",
]
