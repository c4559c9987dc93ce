"""Design ablations: the paper's parameter choices, each swept past its value.

Four sweeps, one per design decision the paper defends:

* **reset probability** (Section 4.2): higher p makes full-version collisions
  rarer but re-encrypts whole pages more often; p = 2^-20 amortises resets
  over ~a million writes while keeping the collision bound below 1e-18.
* **stealth width** (Section 4.2): 27 bits is where a blind replay succeeds
  ~1 in 134M while halving per-block version storage.
* **Trip format** (Section 4.3): page-level compression vs a flat-only
  fallback and a naive per-block version list, across version localities.
* **version-cache sizing** (Section 5): the L2-TLB stealth extension and the
  overflow buffer, swept on the paper's worst-case key-value workloads.

The analytic sweeps mirror ``benchmarks/test_ablation_*.py`` (where they run
under pytest-benchmark with tighter assertions); this module packages the
same computations as one reproducible artifact.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence

from repro.core.config import (
    BLOCKS_PER_PAGE,
    FLAT_ENTRY_BYTES,
    FULL_ENTRY_BYTES,
    SystemConfig,
)
from repro.core.trip import TripFormat, TripPageTable
from repro.core.version_cache import StealthVersionCache
from repro.core.versions import StealthVersionPolicy
from repro.crypto.rng import DRangeRng
from repro.experiments.report import format_table
from repro.memory.address import block_index_in_page, page_number
from repro.report.artifacts import ArtifactSpec, ReproContext, register_artifact
from repro.security.analysis import (
    replay_success_probability,
    stealth_exhaustion_probability,
)
from repro.workloads.registry import get_workload
from repro.workloads.synthetic import SyntheticWorkload

RESET_PROBABILITIES = (2.0 ** -16, 2.0 ** -20, 2.0 ** -24)
WIDTHS = (20, 24, 27, 30, 32)
LOCALITIES = (1.0, 0.7, 0.3)
TLB_SIZES = (64, 256, 1024)
OVERFLOW_KIB = (7, 28, 112)


def reset_probability_rows() -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for probability in RESET_PROBABILITIES:
        policy = StealthVersionPolicy(reset_probability=probability)
        rows.append(
            {
                "reset_p": f"2^{int(math.log2(probability))}",
                "collision_probability": stealth_exhaustion_probability(
                    reset_probability=probability
                ),
                "writes_between_reencryptions": policy.expected_updates_between_resets(),
            }
        )
    return rows


def stealth_width_rows() -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for bits in WIDTHS:
        rows.append(
            {
                "stealth_bits": bits,
                "replay_success": replay_success_probability(bits),
                "collision_probability": stealth_exhaustion_probability(
                    stealth_bits=bits
                ),
                "naive_bytes_per_page": bits * BLOCKS_PER_PAGE / 8,
            }
        )
    return rows


def trip_format_rows(num_accesses: int = 25_000) -> List[Dict[str, object]]:
    """Trip vs flat-only vs naive storage, by version locality.

    The workload identity (footprint, seed) is fixed -- it is the design
    being ablated, not a tier knob; only the replay length scales.
    """
    rows: List[Dict[str, object]] = []
    for locality in LOCALITIES:
        table = TripPageTable(policy=StealthVersionPolicy(rng=DRangeRng(seed=0)))
        workload = SyntheticWorkload(
            version_locality=locality, footprint_bytes=2 << 20, seed=11
        )
        for address, is_write in workload.access_stream(num_accesses):
            if is_write:
                table.update(page_number(address), block_index_in_page(address))
        pages = len(table)
        counts = table.format_counts()
        flat_pages = counts[TripFormat.FLAT]
        rows.append(
            {
                "version_locality": locality,
                "pages": pages,
                "trip_bytes": table.total_bytes(),
                "flat_only_bytes": flat_pages * FLAT_ENTRY_BYTES
                + (pages - flat_pages) * (FLAT_ENTRY_BYTES + FULL_ENTRY_BYTES),
                "naive_bytes": pages * (FLAT_ENTRY_BYTES + FULL_ENTRY_BYTES),
            }
        )
    return rows


def version_cache_rows(
    scale: float = 0.002, num_accesses: int = 20_000
) -> Dict[str, List[Dict[str, object]]]:
    """Combined hit rate vs TLB-extension and overflow-buffer sizes."""
    tlb_rows: List[Dict[str, object]] = []
    for entries in TLB_SIZES:
        config = dataclasses.replace(SystemConfig(), tlb_stealth_entries=entries)
        cache = StealthVersionCache(config=config)
        workload = get_workload("memcached", scale=scale, seed=9)
        for address, is_write in workload.access_stream(num_accesses):
            cache.access(page_number(address), TripFormat.FLAT, is_write=is_write)
        tlb_rows.append(
            {"tlb_entries": entries, "hit_rate": round(cache.hit_rate, 4)}
        )
    overflow_rows: List[Dict[str, object]] = []
    for kib in OVERFLOW_KIB:
        config = dataclasses.replace(
            SystemConfig(), stealth_overflow_buffer_bytes=kib * 1024
        )
        cache = StealthVersionCache(config=config)
        workload = get_workload("fmi", scale=scale, seed=9)
        for address, is_write in workload.access_stream(num_accesses):
            cache.access(page_number(address), TripFormat.UNEVEN, is_write=is_write)
        overflow_rows.append(
            {"overflow_kib": kib, "hit_rate": round(cache.hit_rate, 4)}
        )
    return {"tlb": tlb_rows, "overflow": overflow_rows}


def run(
    benchmarks: Optional[Sequence[str]] = None,
    scale: float = 0.002,
    num_accesses: int = 20_000,
) -> Dict[str, object]:
    """All four sweeps (``benchmarks`` is accepted with the rest of the
    context and unused: the cache sweep always uses the paper's worst-case
    memcached/fmi workloads)."""
    return {
        "reset_probability": reset_probability_rows(),
        "stealth_width": stealth_width_rows(),
        "trip_format": trip_format_rows(num_accesses=max(num_accesses, 5_000)),
        "version_cache": version_cache_rows(scale=scale, num_accesses=num_accesses),
    }


def render_payload(payload: Dict[str, object]) -> str:
    def sci(rows, keys):
        return [
            {
                k: (f"{v:.2e}" if k in keys and isinstance(v, float) else v)
                for k, v in row.items()
            }
            for row in rows
        ]

    parts = [
        format_table(
            sci(payload["reset_probability"], {"collision_probability"}),
            title="Ablation: stealth reset probability (collision risk vs re-encryption)",
        ),
        format_table(
            sci(
                payload["stealth_width"],
                {"replay_success", "collision_probability"},
            ),
            title="Ablation: stealth-version width (security vs storage)",
        ),
        format_table(
            payload["trip_format"],
            title="Ablation: Trip compression vs flat-only and naive storage",
        ),
        format_table(
            payload["version_cache"]["tlb"],
            title="Ablation: L2-TLB stealth extension sizing (memcached)",
        ),
        format_table(
            payload["version_cache"]["overflow"],
            title="Ablation: stealth overflow buffer sizing (fmi, uneven pages)",
        ),
    ]
    return "\n".join(parts)


def artifact_payload(ctx: ReproContext) -> Dict[str, object]:
    return {
        "payload": run(ctx.benchmarks, scale=ctx.scale, num_accesses=ctx.num_accesses),
        "store_keys": [],
        "modes": ["Toleo"],
    }


ARTIFACT = register_artifact(
    ArtifactSpec(
        name="ablations",
        kind="ablation",
        title="Design ablations: reset probability, stealth width, Trip, caches",
        description="The paper's parameter choices, each swept past its value",
        data=artifact_payload,
        render=render_payload,
        order=400,
        budgets={
            "quick": {"num_accesses": 20_000},
            "full": {"num_accesses": 25_000},
        },
    )
)


__all__ = [
    "RESET_PROBABILITIES",
    "WIDTHS",
    "LOCALITIES",
    "TLB_SIZES",
    "OVERFLOW_KIB",
    "reset_probability_rows",
    "stealth_width_rows",
    "trip_format_rows",
    "version_cache_rows",
    "run",
    "render_payload",
    "artifact_payload",
    "ARTIFACT",
]
