"""Figure 8: memory bandwidth overhead (bytes fetched per instruction).

For every benchmark and configuration the figure stacks bytes/instruction by
category: data, MAC+UV metadata, stealth versions and (for InvisiMem) dummy
packets.  The paper's headline observations: MAC traffic dominates the CI
overhead for poor-spatial-locality workloads, stealth traffic is negligible
(~1-2 % even for pr), and InvisiMem adds dummy traffic on top.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.harness import SuiteResults, suite_stage
from repro.experiments.report import format_table
from repro.report.artifacts import ArtifactSpec, ReproContext, register_artifact
from repro.sim.configs import EVALUATED_MODES


def compute(suite: SuiteResults) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for bench, results in suite.items():
        for mode in EVALUATED_MODES:
            result = results.get(mode)
            if result is None:
                continue
            per_instr = result.bytes_per_instruction
            rows.append(
                {
                    "bench": bench,
                    "mode": mode,
                    "data": round(per_instr["data"], 4),
                    "mac_uv": round(per_instr["mac_uv"], 4),
                    "stealth": round(per_instr["stealth"], 4),
                    "dummy": round(per_instr["dummy"], 4),
                    "total": round(sum(per_instr.values()), 4),
                }
            )
    return rows


def stealth_traffic_fraction(rows: List[Dict[str, object]]) -> Dict[str, float]:
    """Stealth bytes as a fraction of total traffic in the Toleo configuration."""
    out = {}
    for row in rows:
        if row["mode"] == "Toleo" and float(row["total"]) > 0:
            out[str(row["bench"])] = float(row["stealth"]) / float(row["total"])
    return out


def render_payload(payload: Dict[str, object]) -> str:
    return format_table(
        payload["rows"],
        columns=["bench", "mode", "data", "mac_uv", "stealth", "dummy", "total"],
        title="Figure 8: Bytes fetched per instruction by category",
    )


def artifact_payload(ctx: ReproContext) -> Dict[str, object]:
    suite, stamp = suite_stage(ctx)
    return {"payload": {"rows": compute(suite)}, **stamp}


ARTIFACT = register_artifact(
    ArtifactSpec(
        name="fig8",
        kind="figure",
        title="Figure 8: Bytes fetched per instruction by category",
        description="Memory traffic split into data, MAC+UV, stealth and dummy bytes",
        data=artifact_payload,
        render=render_payload,
        order=220,
    )
)


__all__ = [
    "compute",
    "stealth_traffic_fraction",
    "render_payload",
    "artifact_payload",
    "ARTIFACT",
]
