"""GenomicsBench workloads: bsw, chain, dbg, fmi, pileup.

Qualitative behaviours reproduced (Section 7 / Table 2 / Figure 10):

* ``bsw`` (banded Smith-Waterman) and ``chain`` are 2D/1D dynamic-programming
  kernels: large arrays written uniformly row by row, excellent version
  locality, >96 % flat pages, low LLC MPKI.
* ``dbg`` (De Bruijn graph construction) and ``pileup`` (pileup counting)
  build hash tables / count arrays that are written once and then read
  irregularly: ~98 % flat pages, low MPKI.
* ``fmi`` (FM-index search) traverses an index with irregular *updates* to
  its tree structure: poor version locality, ~33 % uneven pages -- the
  paper's worst case for Trip.
"""

from __future__ import annotations

from typing import List

from repro.core.config import GIB
from repro.workloads.base import Workload, WorkloadCharacteristics, WorkloadPhase
from repro.workloads.patterns import (
    pointer_chase,
    random_block_writes,
    random_reads,
    sequential_write_sweep,
    stencil_sweep,
    streaming_reads,
)


class BandedSmithWaterman(Workload):
    """bsw: 2D banded dynamic programming over large sequence pairs."""

    name = "bsw"
    characteristics = WorkloadCharacteristics(
        rss_bytes=int(11.7 * GIB),
        llc_mpki=1.21,
        category="genomics",
        write_fraction=0.35,
        instructions_per_access=4.0,
    )

    def region_plan(self):
        return [("sequences", 0.25), ("dp_matrix", 0.70), ("traceback", 0.05)]

    def build_phases(self) -> List[WorkloadPhase]:
        return [
            WorkloadPhase("load-sequences", 0.10, streaming_reads("sequences")),
            WorkloadPhase("dp-fill", 0.80, stencil_sweep("dp_matrix", reads_per_write=2)),
            WorkloadPhase("traceback", 0.10, sequential_write_sweep("traceback", read_fraction=0.5)),
        ]


class ChainAlignment(Workload):
    """chain: 1D dynamic-programming chaining of anchor seeds."""

    name = "chain"
    characteristics = WorkloadCharacteristics(
        rss_bytes=int(11.75 * GIB),
        llc_mpki=0.49,
        category="genomics",
        write_fraction=0.30,
        instructions_per_access=5.0,
    )

    def region_plan(self):
        return [("anchors", 0.45), ("scores", 0.55)]

    def build_phases(self) -> List[WorkloadPhase]:
        return [
            WorkloadPhase("load-anchors", 0.15, streaming_reads("anchors")),
            WorkloadPhase("chain-dp", 0.85, stencil_sweep("scores", read_region="anchors", reads_per_write=3)),
        ]


class DeBruijnGraph(Workload):
    """dbg: De Bruijn graph construction via a multi-level hash table."""

    name = "dbg"
    characteristics = WorkloadCharacteristics(
        rss_bytes=int(9.86 * GIB),
        llc_mpki=0.47,
        category="genomics",
        write_fraction=0.20,
        instructions_per_access=5.0,
    )

    def region_plan(self):
        return [("reads", 0.30), ("hash_table", 0.70)]

    def build_phases(self) -> List[WorkloadPhase]:
        return [
            WorkloadPhase("build-table", 0.30, sequential_write_sweep("hash_table")),
            WorkloadPhase("stream-reads", 0.20, streaming_reads("reads")),
            WorkloadPhase("lookup", 0.50, random_reads("hash_table", hot_fraction=0.05, hot_weight=0.85)),
        ]


class FmIndexSearch(Workload):
    """fmi: FM-index search with irregular updates to its tree structure."""

    name = "fmi"
    characteristics = WorkloadCharacteristics(
        rss_bytes=int(12.05 * GIB),
        llc_mpki=0.45,
        category="genomics",
        write_fraction=0.25,
        instructions_per_access=5.0,
    )

    def region_plan(self):
        return [("index", 0.60), ("tree", 0.35), ("queries", 0.05)]

    def build_phases(self) -> List[WorkloadPhase]:
        return [
            WorkloadPhase("build-index", 0.20, sequential_write_sweep("index")),
            WorkloadPhase("search", 0.45, pointer_chase("index", chain_length=12, hot_fraction=0.05, hot_weight=0.8)),
            # Irregular tree updates are what pushes ~1/3 of fmi's pages to
            # the uneven format (Figure 10).
            WorkloadPhase("tree-sweep", 0.12, sequential_write_sweep("tree")),
            WorkloadPhase("tree-update", 0.23, random_block_writes("tree", write_fraction=0.55)),
        ]


class PileupCounting(Workload):
    """pileup: per-position read-depth counting over aligned reads."""

    name = "pileup"
    characteristics = WorkloadCharacteristics(
        rss_bytes=int(10.85 * GIB),
        llc_mpki=0.66,
        category="genomics",
        write_fraction=0.25,
        instructions_per_access=4.0,
    )

    def region_plan(self):
        return [("alignments", 0.55), ("counts", 0.45)]

    def build_phases(self) -> List[WorkloadPhase]:
        return [
            WorkloadPhase("init-counts", 0.20, sequential_write_sweep("counts")),
            WorkloadPhase("stream-alignments", 0.40, streaming_reads("alignments")),
            WorkloadPhase("count-lookups", 0.40, random_reads("counts", hot_fraction=0.08, hot_weight=0.85)),
        ]


GENOMICS_WORKLOADS = {
    "bsw": BandedSmithWaterman,
    "chain": ChainAlignment,
    "dbg": DeBruijnGraph,
    "fmi": FmIndexSearch,
    "pileup": PileupCounting,
}

__all__ = [
    "BandedSmithWaterman",
    "ChainAlignment",
    "DeBruijnGraph",
    "FmIndexSearch",
    "PileupCounting",
    "GENOMICS_WORKLOADS",
]
