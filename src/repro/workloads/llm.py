"""Generative-AI workload: llama2-gen (llama2.c token generation).

LLM inference is dominated by matrix multiplications: model weights are
streamed read-only while intermediate activations (the KV cache and layer
buffers) are rewritten uniformly for every generated token.  That uniform
rewrite pattern is the paper's canonical example of version locality
(Section 4.3), so >96 % of llama2-gen's pages remain flat while its LLC MPKI
is among the highest of the suite (weights do not fit in cache).
"""

from __future__ import annotations

from typing import List

from repro.core.config import GIB
from repro.workloads.base import Workload, WorkloadCharacteristics, WorkloadPhase
from repro.workloads.patterns import (
    matrix_multiply,
    page_sequential_writes,
    streaming_reads,
)


class Llama2Generation(Workload):
    """llama2-gen: autoregressive token generation over a 7B-class model."""

    name = "llama2-gen"
    characteristics = WorkloadCharacteristics(
        rss_bytes=int(25.8 * GIB),
        llc_mpki=57.96,
        category="llm",
        write_fraction=0.20,
        instructions_per_access=1.2,
    )

    def region_plan(self):
        return [("weights", 0.80), ("kv_cache", 0.12), ("activations", 0.08)]

    def build_phases(self) -> List[WorkloadPhase]:
        return [
            WorkloadPhase("load-weights", 0.10, streaming_reads("weights")),
            WorkloadPhase("gemm", 0.60, matrix_multiply("weights", "activations", tile_blocks=24)),
            WorkloadPhase("kv-append", 0.20, page_sequential_writes("kv_cache", rewrites=1)),
            WorkloadPhase("activation-rewrite", 0.10, page_sequential_writes("activations", rewrites=3)),
        ]


LLM_WORKLOADS = {"llama2-gen": Llama2Generation}

__all__ = ["Llama2Generation", "LLM_WORKLOADS"]
