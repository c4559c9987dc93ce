"""Figure 9: average memory read-latency breakdown.

The paper decomposes read latency into the raw DRAM/CXL access, AES-XTS
decryption (C), MAC fetch/verify (I), Toleo stealth-version access (F) and
InvisiMem's side-channel machinery.  Headline numbers: decryption ~18.6 %,
integrity ~36.9 %, Toleo freshness <5 % for most workloads (but 72 % / 112 %
for redis / memcached), InvisiMem ~2.1x overall.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.harness import SuiteResults, suite_stage
from repro.experiments.report import format_table
from repro.report.artifacts import ArtifactSpec, ReproContext, register_artifact
from repro.sim.configs import BASELINE_MODE, LATENCY_MODES


def compute(suite: SuiteResults) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for bench, results in suite.items():
        for mode in LATENCY_MODES:
            result = results.get(mode)
            if result is None:
                continue
            breakdown = result.latency.as_dict()
            rows.append(
                {
                    "bench": bench,
                    "mode": mode,
                    "dram_ns": round(breakdown["dram"], 2),
                    "decrypt_ns": round(breakdown["decryption"], 2),
                    "integrity_ns": round(breakdown["integrity"], 2),
                    "freshness_ns": round(breakdown["freshness"], 2),
                    "side_channel_ns": round(breakdown["side_channel"], 2),
                    "total_ns": round(breakdown["total"], 2),
                }
            )
    return rows


def freshness_latency_fraction(rows: List[Dict[str, object]]) -> Dict[str, float]:
    """Freshness component as a fraction of the NoProtect read latency."""
    baseline: Dict[str, float] = {}
    for row in rows:
        if row["mode"] == BASELINE_MODE:
            baseline[str(row["bench"])] = float(row["total_ns"])
    out: Dict[str, float] = {}
    for row in rows:
        if row["mode"] == "Toleo":
            base = baseline.get(str(row["bench"]), 0.0)
            if base > 0:
                out[str(row["bench"])] = float(row["freshness_ns"]) / base
    return out


def render_payload(payload: Dict[str, object]) -> str:
    return format_table(
        payload["rows"],
        columns=[
            "bench",
            "mode",
            "dram_ns",
            "decrypt_ns",
            "integrity_ns",
            "freshness_ns",
            "side_channel_ns",
            "total_ns",
        ],
        title="Figure 9: Average memory read latency breakdown (ns)",
    )


def artifact_payload(ctx: ReproContext) -> Dict[str, object]:
    suite, stamp = suite_stage(ctx, LATENCY_MODES)
    return {"payload": {"rows": compute(suite)}, **stamp}


ARTIFACT = register_artifact(
    ArtifactSpec(
        name="fig9",
        kind="figure",
        title="Figure 9: Average memory read latency breakdown (ns)",
        description="Read latency split into DRAM, decryption, integrity, "
        "freshness and side-channel components",
        data=artifact_payload,
        render=render_payload,
        order=230,
    )
)


__all__ = [
    "compute",
    "freshness_latency_fraction",
    "render_payload",
    "artifact_payload",
    "ARTIFACT",
]
