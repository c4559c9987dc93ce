"""Section 6.2: analytical security bounds.

Recomputes the paper's numbers: the per-interval no-reset probability of
~1.6e-26, the lifetime full-version-collision probability of ~1.7e-19, and
the single-shot replay-success probability of 2^-27, plus a reduced-parameter
Monte-Carlo cross-check of the analytical form.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.report import format_table
from repro.report.artifacts import ArtifactSpec, ReproContext, register_artifact
from repro.security.analysis import (
    SecurityAnalysis,
    monte_carlo_exhaustion_rate,
    stealth_exhaustion_probability,
)

#: The values the paper quotes in Section 6.2 / 4.2.  Note: the paper's prose
#: writes the per-interval no-reset probability as 1.6e-26, but the value its
#: own headline bound implies (1.7e-19 / 2^30 intervals) is ~1.6e-28; the
#: comparison table therefore reports both paper figures verbatim and lets the
#: measured column show the recomputed value.
PAPER_PER_INTERVAL_NO_RESET = 1.6e-26
PAPER_COLLISION_PROBABILITY = 1.7e-19
PAPER_REPLAY_SUCCESS = 2.0 ** -27


def compute() -> Dict[str, float]:
    analysis = SecurityAnalysis()
    return analysis.summary()


def comparison_rows() -> List[Dict[str, object]]:
    measured = compute()
    return [
        {
            "quantity": "replay success probability (single attempt)",
            "paper": f"{PAPER_REPLAY_SUCCESS:.2e}",
            "measured": f"{measured['replay_success_probability']:.2e}",
        },
        {
            "quantity": "per-interval no-reset probability",
            "paper": f"{PAPER_PER_INTERVAL_NO_RESET:.2e}",
            "measured": f"{measured['per_interval_no_reset_probability']:.2e}",
        },
        {
            "quantity": "full-version collision probability (2^56 updates)",
            "paper": f"{PAPER_COLLISION_PROBABILITY:.2e}",
            "measured": f"{measured['full_version_collision_probability']:.2e}",
        },
    ]


def reduced_parameter_check(trials: int = 500, seed: int = 3) -> Dict[str, float]:
    """Monte-Carlo vs analytical exhaustion rate at small parameters."""
    stealth_bits = 10
    reset_probability = 2.0 ** -7
    empirical = monte_carlo_exhaustion_rate(
        stealth_bits=stealth_bits,
        reset_probability=reset_probability,
        trials=trials,
        seed=seed,
    )
    analytical = stealth_exhaustion_probability(
        stealth_bits=stealth_bits,
        reset_probability=reset_probability,
        lifetime_updates_log2=stealth_bits - 1,
    )
    return {"empirical": empirical, "analytical": analytical}


def render_payload(payload: Dict[str, object]) -> str:
    table = format_table(
        payload["rows"], title="Section 6.2: Security bounds (paper vs recomputed)"
    )
    check = payload.get("reduced_check")
    if not check:
        return table
    return (
        table
        + "Reduced-parameter Monte-Carlo cross-check (10-bit stealth, p=2^-7): "
        + f"empirical {check['empirical']:.4f} vs analytical {check['analytical']:.4f}\n"
    )


def artifact_payload(ctx: ReproContext) -> Dict[str, object]:
    return {
        "payload": {
            "rows": comparison_rows(),
            "reduced_check": reduced_parameter_check(),
        },
        "store_keys": [],
        "modes": ["Toleo"],
    }


ARTIFACT = register_artifact(
    ArtifactSpec(
        name="sec62",
        kind="analysis",
        title="Section 6.2: Security bounds (paper vs recomputed)",
        description="Analytical security bounds plus a Monte-Carlo cross-check",
        data=artifact_payload,
        render=render_payload,
        order=300,
    )
)


__all__ = [
    "compute",
    "comparison_rows",
    "reduced_parameter_check",
    "render_payload",
    "artifact_payload",
    "ARTIFACT",
    "PAPER_COLLISION_PROBABILITY",
    "PAPER_PER_INTERVAL_NO_RESET",
    "PAPER_REPLAY_SUCCESS",
]
