"""Figure 6: execution-time overhead of CI, Toleo and InvisiMem vs NoProtect.

The paper reports CI averaging ~18 % overhead (higher for bandwidth-bound
workloads), Toleo adding only another 1-2 % for freshness (except the
latency-sensitive memcached), and InvisiMem averaging ~29 %.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.harness import SuiteResults, suite_stage
from repro.experiments.report import arithmetic_mean, format_percentage, format_table
from repro.report.artifacts import ArtifactSpec, ReproContext, register_artifact

OVERHEAD_MODES = ("CI", "Toleo", "InvisiMem")


def compute(suite: SuiteResults) -> List[Dict[str, object]]:
    """Per-benchmark overheads (fractions) for each protected configuration."""
    rows: List[Dict[str, object]] = []
    for bench, results in suite.items():
        row: Dict[str, object] = {"bench": bench}
        for mode in OVERHEAD_MODES:
            if mode in results:
                row[mode] = round(results[mode].overhead, 4)
        rows.append(row)
    return rows


def averages(rows: List[Dict[str, object]]) -> Dict[str, float]:
    """Suite-average overhead per configuration."""
    out: Dict[str, float] = {}
    for mode in OVERHEAD_MODES:
        values = [float(row[mode]) for row in rows if mode in row]
        out[mode] = arithmetic_mean(values)
    return out


def toleo_increment_over_ci(rows: List[Dict[str, object]]) -> Dict[str, float]:
    """The freshness increment: Toleo overhead minus CI overhead per benchmark."""
    out = {}
    for row in rows:
        if "CI" in row and "Toleo" in row:
            out[str(row["bench"])] = float(row["Toleo"]) - float(row["CI"])
    return out


def render_payload(payload: Dict[str, object]) -> str:
    rows = payload["rows"]
    display_rows = [
        {
            "bench": row["bench"],
            **{
                mode: format_percentage(float(row[mode]))
                for mode in OVERHEAD_MODES
                if mode in row
            },
        }
        for row in rows
    ]
    avg = averages(rows)
    display_rows.append(
        {"bench": "average", **{k: format_percentage(v) for k, v in avg.items()}}
    )
    return format_table(
        display_rows, title="Figure 6: Execution time overhead vs NoProtect"
    )


def artifact_payload(ctx: ReproContext) -> Dict[str, object]:
    suite, stamp = suite_stage(ctx)
    return {"payload": {"rows": compute(suite)}, **stamp}


ARTIFACT = register_artifact(
    ArtifactSpec(
        name="fig6",
        kind="figure",
        title="Figure 6: Execution time overhead vs NoProtect",
        description="Per-benchmark overhead of CI, Toleo and InvisiMem",
        data=artifact_payload,
        render=render_payload,
        order=200,
    )
)


__all__ = [
    "compute",
    "averages",
    "toleo_increment_over_ci",
    "render_payload",
    "artifact_payload",
    "ARTIFACT",
    "OVERHEAD_MODES",
]
