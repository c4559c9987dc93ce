"""Figure 7: stealth-version cache and MAC cache hit rates.

The paper's Toleo configuration reaches a 98 % average stealth-cache hit rate
(with redis and memcached as outliers at 67 % / 85 % due to their random page
access), while the much larger MAC cache averages only ~67 %.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.harness import SuiteResults, run_benchmarks, suite_key
from repro.experiments.report import arithmetic_mean, format_percentage, format_table
from repro.report.artifacts import ArtifactSpec, ReproContext, register_artifact
from repro.sim.configs import EVALUATED_MODES


def compute(suite: SuiteResults) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for bench, results in suite.items():
        toleo = results.get("Toleo")
        if toleo is None:
            continue
        rows.append(
            {
                "bench": bench,
                "stealth_hit_rate": round(toleo.stealth_cache_hit_rate, 4),
                "mac_hit_rate": round(toleo.mac_cache_hit_rate, 4),
            }
        )
    return rows


def averages(rows: List[Dict[str, object]]) -> Dict[str, float]:
    return {
        "stealth_hit_rate": arithmetic_mean(float(r["stealth_hit_rate"]) for r in rows),
        "mac_hit_rate": arithmetic_mean(float(r["mac_hit_rate"]) for r in rows),
    }


def render_payload(payload: Dict[str, object]) -> str:
    rows = payload["rows"]
    display = [
        {
            "bench": r["bench"],
            "stealth_cache": format_percentage(float(r["stealth_hit_rate"])),
            "mac_cache": format_percentage(float(r["mac_hit_rate"])),
        }
        for r in rows
    ]
    avg = averages(rows)
    display.append(
        {
            "bench": "average",
            "stealth_cache": format_percentage(avg["stealth_hit_rate"]),
            "mac_cache": format_percentage(avg["mac_hit_rate"]),
        }
    )
    return format_table(display, title="Figure 7: Metadata cache hit rates (Toleo config)")


def artifact_payload(ctx: ReproContext) -> Dict[str, object]:
    suite = run_benchmarks(
        ctx.benchmarks, scale=ctx.scale, num_accesses=ctx.num_accesses, seed=ctx.seed
    )
    return {
        "payload": {"rows": compute(suite)},
        "store_keys": [
            suite_key(
                ctx.benchmarks, EVALUATED_MODES, ctx.scale, ctx.num_accesses, ctx.seed,
                None, None,
            )
        ],
        "modes": list(EVALUATED_MODES),
    }


ARTIFACT = register_artifact(
    ArtifactSpec(
        name="fig7",
        kind="figure",
        title="Figure 7: Metadata cache hit rates (Toleo config)",
        description="Stealth-version and MAC cache hit rates per benchmark",
        data=artifact_payload,
        render=render_payload,
        order=210,
    )
)


__all__ = [
    "compute",
    "averages",
    "render_payload",
    "artifact_payload",
    "ARTIFACT",
]
