"""Figure 12: Toleo usage over time, broken down by Trip format.

Each benchmark's write stream is replayed into a Toleo device and the
flat/uneven/full byte usage is sampled at regular intervals.  Flat usage
grows with the touched footprint; uneven/full usage grows only for the
low-version-locality kernels (fmi, the graph suite, hyrise).
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.harness import (
    SPACE_STUDY_BUDGETS,
    SpaceStudyResult,
    run_space_study,
    space_key,
)
from repro.experiments.report import format_table
from repro.report.artifacts import ArtifactSpec, ReproContext, register_artifact


def compute(study: Dict[str, SpaceStudyResult]) -> Dict[str, List[Dict[str, int]]]:
    """Per-benchmark usage timelines (list of {flat, uneven, full} samples)."""
    return {bench: result.timeline for bench, result in study.items()}


def monotonic_flat_growth(timeline: List[Dict[str, int]]) -> bool:
    """Flat usage only grows as new pages are touched (no downgrades here)."""
    last = -1
    for sample in timeline:
        flat = sample.get("flat", 0)
        if flat < last:
            return False
        last = flat
    return True


def final_breakdown(timelines: Dict[str, List[Dict[str, int]]]) -> List[Dict[str, object]]:
    rows = []
    for bench, timeline in timelines.items():
        if not timeline:
            continue
        final = timeline[-1]
        rows.append(
            {
                "bench": bench,
                "samples": len(timeline),
                "final_flat_kb": round(final.get("flat", 0) / 1024, 1),
                "final_uneven_kb": round(final.get("uneven", 0) / 1024, 1),
                "final_full_kb": round(final.get("full", 0) / 1024, 1),
            }
        )
    return rows


def render_payload(payload: Dict[str, object]) -> str:
    rows = final_breakdown(payload["timelines"])
    return format_table(
        rows, title="Figure 12: Toleo usage over time (final sample per benchmark)"
    )


def artifact_payload(ctx: ReproContext) -> Dict[str, object]:
    study = run_space_study(
        ctx.benchmarks, scale=ctx.scale, num_accesses=ctx.num_accesses, seed=ctx.seed
    )
    return {
        "payload": {"timelines": compute(study)},
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
        name="fig12",
        kind="figure",
        title="Figure 12: Toleo usage over time by Trip format",
        description="Sampled flat/uneven/full byte usage over the write replay",
        data=artifact_payload,
        render=render_payload,
        order=260,
        budgets=SPACE_STUDY_BUDGETS,
    )
)


__all__ = [
    "compute",
    "monotonic_flat_growth",
    "final_breakdown",
    "render_payload",
    "artifact_payload",
    "ARTIFACT",
]
