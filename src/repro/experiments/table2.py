"""Table 2: benchmark characteristics (RSS and LLC MPKI).

The reference columns come straight from the paper; the measured columns are
obtained by replaying each synthetic workload through the cache hierarchy at
the chosen scale.  Absolute MPKI values differ from the paper (the footprints
are scaled down), but the ordering -- pr and llama2-gen bandwidth-heavy,
genomics kernels cache-friendly -- should be preserved.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cache.hierarchy import CacheHierarchy
from repro.core.config import GIB, SystemConfig
from repro.experiments.report import format_table
from repro.report.artifacts import ArtifactSpec, ReproContext, register_artifact
from repro.workloads.registry import BENCHMARKS, get_workload


def reference_rows() -> List[Dict[str, object]]:
    """The paper's Table 2 values."""
    return [
        {
            "bench": info.name,
            "suite": info.suite,
            "category": info.category,
            "rss_gb": info.rss_gb,
            "llc_mpki": info.llc_mpki,
        }
        for info in BENCHMARKS.values()
    ]


def measure(
    benchmarks: Optional[Sequence[str]] = None,
    scale: float = 0.002,
    num_accesses: int = 40_000,
    seed: int = 1234,
) -> List[Dict[str, object]]:
    """Measured footprint and MPKI of the synthetic workloads."""
    names = list(benchmarks) if benchmarks is not None else list(BENCHMARKS)
    rows: List[Dict[str, object]] = []
    for name in names:
        info = BENCHMARKS[name]
        workload = get_workload(name, scale=scale, seed=seed)
        hierarchy = CacheHierarchy(SystemConfig())
        for address, is_write in workload.access_stream(num_accesses):
            hierarchy.access(address, is_write)
        instructions = workload.instruction_count(num_accesses)
        rows.append(
            {
                "bench": name,
                "paper_rss_gb": info.rss_gb,
                "paper_mpki": info.llc_mpki,
                "measured_footprint_mb": round(workload.footprint_bytes / (1 << 20), 2),
                "measured_mpki": round(hierarchy.mpki(instructions), 2),
            }
        )
    return rows


def render_payload(payload: Dict[str, object]) -> str:
    return format_table(
        payload["rows"],
        title="Table 2: Benchmarks (paper reference vs scaled synthetic measurement)",
    )


def artifact_payload(ctx: ReproContext) -> Dict[str, object]:
    rows = measure(
        ctx.benchmarks, scale=ctx.scale, num_accesses=ctx.num_accesses, seed=ctx.seed
    )
    return {"payload": {"rows": rows}, "store_keys": [], "modes": []}


ARTIFACT = register_artifact(
    ArtifactSpec(
        name="table2",
        kind="table",
        title="Table 2: Benchmarks (paper reference vs scaled synthetic measurement)",
        description="Paper RSS/MPKI next to the scaled synthetic measurements",
        data=artifact_payload,
        render=render_payload,
        order=110,
    )
)


__all__ = [
    "reference_rows",
    "measure",
    "render_payload",
    "artifact_payload",
    "ARTIFACT",
]
