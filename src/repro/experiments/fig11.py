"""Figure 11: peak Toleo usage per TB of protected data.

The paper reports an average of 4.27 GB of Toleo capacity per TB of
protected data (most benchmarks under 5.1 GB/TB, fmi the worst at 7.6 GB/TB),
which is what lets one 168 GB device protect a ~37 TB pool.  Usage combines
the statically provisioned flat entry for every resident page with the
dynamically allocated uneven/full entries measured from the long-run write
replay.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import FLAT_ENTRY_BYTES, GIB, PAGE_BYTES, TIB
from repro.experiments.harness import (
    SPACE_STUDY_BUDGETS,
    SpaceStudyResult,
    run_space_study,
    space_key,
)
from repro.experiments.report import arithmetic_mean, format_table
from repro.report.artifacts import ArtifactSpec, ReproContext, register_artifact


def compute(study: Dict[str, SpaceStudyResult]) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for bench, result in study.items():
        usage = result.usage_bytes
        # Flat entries are statically provisioned for every page of the
        # benchmark's resident set, whether or not the trace touched it yet
        # (the paper derives this from the kernel's peak RSS).
        rss_pages = max(1, result.footprint_bytes // PAGE_BYTES)
        static_flat = rss_pages * FLAT_ENTRY_BYTES
        dynamic = usage.get("uneven", 0) + usage.get("full", 0)
        total = static_flat + dynamic
        gb_per_tb = (total / GIB) / (result.footprint_bytes / TIB)
        rows.append(
            {
                "bench": bench,
                "flat_bytes": static_flat,
                "uneven_bytes": usage.get("uneven", 0),
                "full_bytes": usage.get("full", 0),
                "total_bytes": total,
                "gb_per_tb_protected": round(gb_per_tb, 2),
            }
        )
    return rows


def average_gb_per_tb(rows: List[Dict[str, object]]) -> float:
    return arithmetic_mean(float(r["gb_per_tb_protected"]) for r in rows)


def protectable_tb(rows: List[Dict[str, object]], toleo_capacity_gb: float = 168.0) -> float:
    """How many TB one Toleo device could protect at the measured usage."""
    avg = average_gb_per_tb(rows)
    if avg <= 0:
        return float("inf")
    return toleo_capacity_gb / avg


def render_payload(payload: Dict[str, object]) -> str:
    rows = payload["rows"]
    table = format_table(
        rows,
        columns=["bench", "flat_bytes", "uneven_bytes", "full_bytes", "gb_per_tb_protected"],
        title="Figure 11: Peak Toleo usage per TB protected data",
    )
    avg = average_gb_per_tb(rows)
    tb = protectable_tb(rows)
    return (
        table
        + f"\nAverage: {avg:.2f} GB per TB protected"
        + f" -> one 168 GB Toleo protects ~{tb:.0f} TB\n"
    )


def artifact_payload(ctx: ReproContext) -> Dict[str, object]:
    study = run_space_study(
        ctx.benchmarks, scale=ctx.scale, num_accesses=ctx.num_accesses, seed=ctx.seed
    )
    return {
        "payload": {"rows": compute(study)},
        "store_keys": [
            space_key(
                ctx.benchmarks,
                scale=ctx.scale,
                num_accesses=ctx.num_accesses,
                seed=ctx.seed,
            )
        ],
        "modes": ["Toleo"],
    }


ARTIFACT = register_artifact(
    ArtifactSpec(
        name="fig11",
        kind="figure",
        title="Figure 11: Peak Toleo usage per TB protected data",
        description="GB of Toleo capacity per TB protected, static flat + "
        "dynamic uneven/full entries",
        data=artifact_payload,
        render=render_payload,
        order=250,
        budgets=SPACE_STUDY_BUDGETS,
    )
)


__all__ = [
    "compute",
    "average_gb_per_tb",
    "protectable_tb",
    "render_payload",
    "artifact_payload",
    "ARTIFACT",
]
