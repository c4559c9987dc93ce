"""Synthetic workload trace generators for the paper's twelve benchmarks.

The paper evaluates Toleo with privacy-sensitive big-data applications from
GenomicsBench (bsw, chain, dbg, fmi, pileup), the GAP graph suite (bfs, pr,
sssp), llama2.c generative inference, and in-memory databases (redis,
memcached, hyrise).  This package substitutes synthetic trace generators that
reproduce each kernel's qualitative memory behaviour -- footprint, read/write
mix, spatial write locality (the source of version locality) and page-access
distribution -- at a configurable scale so the trace-driven simulator runs in
seconds.
"""

from repro.workloads.base import MemoryRegion, Workload, WorkloadPhase
from repro.workloads.registry import (
    BenchmarkInfo,
    BENCHMARKS,
    WORKLOAD_NAMES,
    get_workload,
    benchmark_info,
)
from repro.workloads.synthetic import SyntheticWorkload

__all__ = [
    "MemoryRegion",
    "Workload",
    "WorkloadPhase",
    "BenchmarkInfo",
    "BENCHMARKS",
    "WORKLOAD_NAMES",
    "get_workload",
    "benchmark_info",
    "SyntheticWorkload",
]
