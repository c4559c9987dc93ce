"""Freshness-scheme scaling: Toleo versus the simulated tree baselines.

The paper's core argument (Section 1, Table 4) is that tree-based freshness
-- counter trees in Client SGX, VAULT, MorphCtr -- cannot scale: the tree
deepens with the protected footprint, so every miss pays more traversal
traffic and latency, while Toleo's stealth-version lookup stays one hop over
CXL IDE no matter how large the pool grows.  The seed repo could only state
that argument as static tables; with the counter-tree and Client-SGX modes
wired into the simulator, this experiment *measures* it: one sweep over the
footprint ``scale`` axis, reporting each freshness scheme's slowdown next to
the counter tree's depth at that footprint.

Expected shape: the ``CIF-Tree`` column grows with footprint (tracking the
``tree levels`` column) and ``Client-SGX`` collapses once the working set
leaves the EPC, while ``Toleo`` stays near-flat.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.baselines.counter_trees import client_sgx_tree
from repro.experiments.harness import sweep_stage
from repro.experiments.report import format_table
from repro.report.artifacts import ArtifactSpec, ReproContext, register_artifact
from repro.sim.configs import BASELINE_MODE, FRESHNESS_MODES
from repro.sim.sweep import SweepAxis, SweepResult
from repro.sim.variants import VARIANT_MODES
from repro.workloads.registry import get_workload

#: Footprint multipliers applied to the base scale (one sweep axis point each).
SCALE_MULTIPLIERS = (0.25, 1.0, 4.0)

#: Every mode the experiment runs: the paper's freshness comparison plus the
#: registry-only variants (VAULT geometry, the no-freshness Scalable-SGX
#: floor, and the Toleo+tree hybrid split) -- all picked up from the open
#: registry, no experiment-specific wiring.
COMPARED_MODES = FRESHNESS_MODES + VARIANT_MODES

#: The schemes compared (NoProtect provides the slowdown baseline).
SCHEME_MODES = tuple(m for m in COMPARED_MODES if m != BASELINE_MODE)


def sweep_scales(scale: float) -> Tuple[float, ...]:
    return tuple(scale * multiplier for multiplier in SCALE_MULTIPLIERS)


def compute(sweep: SweepResult) -> List[Dict[str, object]]:
    """One row per (benchmark, footprint point) with per-scheme slowdowns."""
    tree = client_sgx_tree()
    rows: List[Dict[str, object]] = []
    for point, suite in sweep:
        for bench, per_mode in suite.items():
            footprint = get_workload(bench, scale=point.scale).footprint_bytes
            row: Dict[str, object] = {
                "bench": bench,
                "scale": round(point.scale, 6),
                "footprint_mib": round(footprint / (1 << 20), 1),
                "tree_levels": tree.levels(footprint),
            }
            for mode in SCHEME_MODES:
                if mode in per_mode:
                    row[mode] = round(per_mode[mode].slowdown, 3)
            rows.append(row)
    return rows


def tree_growth(rows: List[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    """Per-benchmark slowdown growth (largest minus smallest footprint).

    The headline comparison: ``CIF-Tree`` growth should exceed ``Toleo``
    growth on every benchmark -- trees deepen, stealth versions do not.
    """
    by_bench: Dict[str, List[Dict[str, object]]] = {}
    for row in rows:
        by_bench.setdefault(str(row["bench"]), []).append(row)
    out: Dict[str, Dict[str, float]] = {}
    for bench, bench_rows in by_bench.items():
        ordered = sorted(bench_rows, key=lambda r: float(r["scale"]))
        first, last = ordered[0], ordered[-1]
        out[bench] = {
            mode: round(float(last[mode]) - float(first[mode]), 4)
            for mode in SCHEME_MODES
            if mode in first and mode in last
        }
    return out


def render_payload(payload: Dict[str, object]) -> str:
    rows = payload["rows"]
    table = format_table(
        rows,
        columns=["bench", "scale", "footprint_mib", "tree_levels"]
        + list(SCHEME_MODES),
        title="Freshness scaling: slowdown vs footprint (Toleo vs tree-based)",
    )
    growth = tree_growth(rows)
    lines = ["", "slowdown growth, smallest -> largest footprint:"]
    for bench, deltas in growth.items():
        parts = ", ".join(f"{name} {delta:+.3f}" for name, delta in deltas.items())
        lines.append(f"  {bench}: {parts}")
    return table + "\n".join(lines) + "\n"


def artifact_payload(ctx: ReproContext) -> Dict[str, object]:
    sweep, stamp = sweep_stage(
        ctx, COMPARED_MODES, [SweepAxis("scale", sweep_scales(ctx.scale))]
    )
    return {"payload": {"rows": compute(sweep)}, **stamp}


ARTIFACT = register_artifact(
    ArtifactSpec(
        name="fresh-scale",
        kind="analysis",
        title="Freshness scaling: slowdown vs footprint (Toleo vs tree-based)",
        description="Every freshness scheme swept over the footprint axis",
        data=artifact_payload,
        render=render_payload,
        order=310,
        budgets={"quick": {"num_accesses": 10_000}},
    )
)


__all__ = [
    "compute",
    "render_payload",
    "artifact_payload",
    "ARTIFACT",
    "tree_growth",
    "sweep_scales",
    "COMPARED_MODES",
    "SCHEME_MODES",
    "SCALE_MULTIPLIERS",
]
