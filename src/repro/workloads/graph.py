"""GAP Benchmark Suite graph workloads: bfs, pr, sssp.

Graph kernels stream a read-only edge list while irregularly reading and
writing per-vertex arrays (frontier flags, ranks, distances).  Vertex degrees
follow a power law, so a minority of vertices are written far more often than
their page neighbours -- which is why 7-15 % of graph pages end up in the
uneven/full Trip formats (Figure 10) and why pr has by far the highest LLC
MPKI (Table 2).
"""

from __future__ import annotations

from typing import List

from repro.core.config import GIB
from repro.workloads.base import Workload, WorkloadCharacteristics, WorkloadPhase
from repro.workloads.patterns import (
    random_block_writes,
    random_reads,
    sequential_write_sweep,
    streaming_reads,
    zipf_writes,
)


class BreadthFirstSearch(Workload):
    """bfs: frontier expansion with irregular visited/parent updates."""

    name = "bfs"
    characteristics = WorkloadCharacteristics(
        rss_bytes=int(12.9 * GIB),
        llc_mpki=22.57,
        category="graph",
        write_fraction=0.30,
        instructions_per_access=1.5,
    )

    def region_plan(self):
        return [("edges", 0.70), ("frontier", 0.10), ("parents", 0.20)]

    def build_phases(self) -> List[WorkloadPhase]:
        return [
            WorkloadPhase("init-parents", 0.10, sequential_write_sweep("parents")),
            WorkloadPhase("edge-scan", 0.45, streaming_reads("edges")),
            WorkloadPhase("frontier-updates", 0.12, random_block_writes("frontier", write_fraction=0.5)),
            WorkloadPhase("parent-sweep", 0.20, sequential_write_sweep("parents")),
            WorkloadPhase("parent-updates", 0.13, zipf_writes("parents", write_fraction=0.5, exponent=1.1)),
        ]


class PageRank(Workload):
    """pr: iterative rank propagation; the most bandwidth-hungry kernel."""

    name = "pr"
    characteristics = WorkloadCharacteristics(
        rss_bytes=int(20.8 * GIB),
        llc_mpki=133.98,
        category="graph",
        write_fraction=0.35,
        instructions_per_access=1.0,
    )

    def region_plan(self):
        return [("edges", 0.65), ("ranks", 0.20), ("next_ranks", 0.15)]

    def build_phases(self) -> List[WorkloadPhase]:
        return [
            WorkloadPhase("init-ranks", 0.08, sequential_write_sweep("next_ranks")),
            WorkloadPhase("edge-scan", 0.40, streaming_reads("edges")),
            WorkloadPhase("rank-gather", 0.27, random_reads("ranks", hot_fraction=0.05, hot_weight=0.85)),
            # Skewed scatter of contributions into next_ranks: hot vertices
            # accumulate far more increments than their page neighbours.
            WorkloadPhase("rank-sweep", 0.17, sequential_write_sweep("next_ranks")),
            WorkloadPhase("rank-scatter", 0.08, zipf_writes("next_ranks", write_fraction=0.75, exponent=1.3)),
        ]


class SingleSourceShortestPath(Workload):
    """sssp: delta-stepping relaxations over a weighted graph."""

    name = "sssp"
    characteristics = WorkloadCharacteristics(
        rss_bytes=int(24.57 * GIB),
        llc_mpki=2.41,
        category="graph",
        write_fraction=0.25,
        instructions_per_access=2.5,
    )

    def region_plan(self):
        return [("edges", 0.70), ("distances", 0.15), ("buckets", 0.15)]

    def build_phases(self) -> List[WorkloadPhase]:
        return [
            WorkloadPhase("init-distances", 0.10, sequential_write_sweep("distances")),
            WorkloadPhase("edge-scan", 0.45, streaming_reads("edges")),
            WorkloadPhase("relax-sweep", 0.20, sequential_write_sweep("distances")),
            WorkloadPhase("relaxations", 0.10, zipf_writes("distances", write_fraction=0.5, exponent=1.15)),
            WorkloadPhase("bucket-updates", 0.15, random_block_writes("buckets", write_fraction=0.4)),
        ]


GRAPH_WORKLOADS = {
    "bfs": BreadthFirstSearch,
    "pr": PageRank,
    "sssp": SingleSourceShortestPath,
}

__all__ = [
    "BreadthFirstSearch",
    "PageRank",
    "SingleSourceShortestPath",
    "GRAPH_WORKLOADS",
]
