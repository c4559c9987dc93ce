"""Table 2: benchmark characteristics (RSS and LLC MPKI).

The reference columns come straight from the paper.  The measured columns
read the run Table 2 shares with figures 6-8, the ``EVALUATED_MODES`` suite
at the same context (one store entry serves all four): each benchmark's
MPKI is its NoProtect run's LLC misses per thousand of the workload's
uncalibrated instructions (the suite's own, calibrated count would give
back the paper's MPKI by construction), and its footprint is the
workload's at the chosen scale.  Absolute MPKI values differ from the paper
(the footprints are scaled down), but the ordering -- pr and llama2-gen
bandwidth-heavy, genomics kernels cache-friendly -- should be preserved.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.harness import SuiteResults, suite_stage
from repro.experiments.report import format_table
from repro.report.artifacts import ArtifactSpec, ReproContext, register_artifact
from repro.sim.configs import BASELINE_MODE
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


def compute(
    suite: SuiteResults, scale: float, num_accesses: int, seed: int
) -> List[Dict[str, object]]:
    """Measured footprint and MPKI of every benchmark in ``suite``, a run
    at ``scale``, ``num_accesses`` and ``seed`` that includes NoProtect."""
    rows: List[Dict[str, object]] = []
    for name, results in suite.items():
        info = BENCHMARKS[name]
        workload = get_workload(name, scale=scale, seed=seed)
        instructions = workload.instruction_count(num_accesses)
        misses = results[BASELINE_MODE].llc_misses
        rows.append(
            {
                "bench": name,
                "paper_rss_gb": info.rss_gb,
                "paper_mpki": info.llc_mpki,
                "measured_footprint_mb": round(workload.footprint_bytes / (1 << 20), 2),
                "measured_mpki": (
                    round(1000.0 * misses / instructions, 2) if instructions > 0 else 0.0
                ),
            }
        )
    return rows


def render_payload(payload: Dict[str, object]) -> str:
    return format_table(
        payload["rows"],
        title="Table 2: Benchmarks (paper reference vs scaled synthetic measurement)",
    )


def artifact_payload(ctx: ReproContext) -> Dict[str, object]:
    suite, stamp = suite_stage(ctx)
    rows = compute(suite, ctx.scale, ctx.num_accesses, ctx.seed)
    return {"payload": {"rows": rows}, **stamp}


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
    "compute",
    "render_payload",
    "artifact_payload",
    "ARTIFACT",
]
