"""Table 4: freshness-protected version size comparison.

Reference rows reproduce the paper's data-to-version ratios for Client SGX
(9.14:1), VAULT (64:1), MorphCtr-128 (128:1) and Toleo's three formats
(flat 341:1, uneven 60:1, full 18:1).  The measured row is Toleo's
workload-average entry size (the paper reports 17.08 B per page, 240:1):
the Trip-table bytes over the Trip pages of a space study at Table 4's own
context, which replays every benchmark's write stream into a Toleo device
as figures 10-12 do at theirs.
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.counter_trees import LEAF_REPRESENTATIONS
from repro.core.config import PAGE_BYTES
from repro.experiments.harness import SpaceStudyResult, space_stage
from repro.experiments.report import format_table
from repro.report.artifacts import ArtifactSpec, ReproContext, register_artifact


def reference_rows() -> List[Dict[str, object]]:
    """The static representation rows of Table 4."""
    rows = []
    for key in ("client_sgx", "vault", "morphctr", "toleo_flat", "toleo_uneven", "toleo_full", "toleo_avg"):
        rep = LEAF_REPRESENTATIONS[key]
        rows.append(
            {
                "representation": rep.name,
                "version_bytes": rep.version_bytes,
                "data_per_entry_bytes": rep.data_bytes_per_entry,
                "data_to_version_ratio": round(rep.data_to_version_ratio, 2),
            }
        )
    return rows


def compute(study: Dict[str, SpaceStudyResult]) -> Dict[str, float]:
    """Measured average Toleo entry size and data:version ratio over the
    study's Trip tables."""
    total_bytes = sum(sum(result.usage_bytes.values()) for result in study.values())
    total_pages = sum(result.table_pages for result in study.values())
    if total_pages == 0:
        return {"average_entry_bytes": 0.0, "data_to_version_ratio": 0.0}
    avg_entry = total_bytes / total_pages
    return {
        "average_entry_bytes": round(avg_entry, 2),
        "data_to_version_ratio": round(PAGE_BYTES / avg_entry, 1),
    }


def render_payload(payload: Dict[str, object]) -> str:
    table = format_table(
        payload["reference"],
        title="Table 4: Freshness Protected Version Size Comparison",
    )
    measured = payload["measured"]
    return (
        table
        + "\nMeasured Toleo average (synthetic workloads): "
        + f"{measured['average_entry_bytes']} B per page, "
        + f"{measured['data_to_version_ratio']}:1 data:version\n"
    )


def artifact_payload(ctx: ReproContext) -> Dict[str, object]:
    study, stamp = space_stage(ctx)
    return {
        "payload": {"reference": reference_rows(), "measured": compute(study)},
        **stamp,
    }


ARTIFACT = register_artifact(
    ArtifactSpec(
        name="table4",
        kind="table",
        title="Table 4: Freshness Protected Version Size Comparison",
        description="Static representation ratios plus the measured Toleo average",
        data=artifact_payload,
        render=render_payload,
        order=130,
    )
)


__all__ = [
    "reference_rows",
    "compute",
    "render_payload",
    "artifact_payload",
    "ARTIFACT",
]
