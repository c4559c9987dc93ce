"""Figure 10: pages classified by their Trip format.

The paper reports 92 % of pages flat on average (7.5 % uneven, 0.32 % full),
with fmi the outlier at ~33 % uneven and the graph kernels at 7-15 %
uneven/full.  Like the paper, this experiment uses the "cache-only" long-run
methodology: the benchmark's write stream is replayed directly into the Trip
page table (no data-cache filtering), which measures the steady-state
representation mix.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.trip import TripFormat
from repro.experiments.harness import (
    SPACE_STUDY_BUDGETS,
    SpaceStudyResult,
    run_space_study,
    space_key,
)
from repro.experiments.report import arithmetic_mean, format_percentage, format_table
from repro.report.artifacts import ArtifactSpec, ReproContext, register_artifact


def compute(study: Dict[str, SpaceStudyResult]) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for bench, result in study.items():
        counts = result.format_counts
        total = sum(counts.values())
        if total == 0:
            continue
        rows.append(
            {
                "bench": bench,
                "pages": total,
                "flat": round(counts[TripFormat.FLAT] / total, 4),
                "uneven": round(counts[TripFormat.UNEVEN] / total, 4),
                "full": round(counts[TripFormat.FULL] / total, 4),
            }
        )
    return rows


def averages(rows: List[Dict[str, object]]) -> Dict[str, float]:
    return {
        fmt: arithmetic_mean(float(r[fmt]) for r in rows)
        for fmt in ("flat", "uneven", "full")
    }


def render_payload(payload: Dict[str, object]) -> str:
    rows = payload["rows"]
    display = [
        {
            "bench": r["bench"],
            "pages": r["pages"],
            "flat": format_percentage(float(r["flat"])),
            "uneven": format_percentage(float(r["uneven"])),
            "full": format_percentage(float(r["full"]), decimals=2),
        }
        for r in rows
    ]
    avg = averages(rows)
    display.append(
        {
            "bench": "average",
            "pages": "",
            "flat": format_percentage(avg["flat"]),
            "uneven": format_percentage(avg["uneven"]),
            "full": format_percentage(avg["full"], decimals=2),
        }
    )
    return format_table(display, title="Figure 10: Pages classified by Trip format")


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
        name="fig10",
        kind="figure",
        title="Figure 10: Pages classified by Trip format",
        description="Steady-state flat/uneven/full page mix from the write replay",
        data=artifact_payload,
        render=render_payload,
        order=240,
        budgets=SPACE_STUDY_BUDGETS,
    )
)


__all__ = [
    "compute",
    "averages",
    "render_payload",
    "artifact_payload",
    "ARTIFACT",
]
