"""Ablation: Trip page-level compression vs a naive per-block version list.

DESIGN.md calls out Trip as the key space optimisation.  This ablation sweeps
the synthetic workload's version-locality knob and compares the Toleo bytes
per page under three version-storage designs:

* Trip (flat/uneven/full, the paper's design);
* flat-only (pages that lose locality fall straight to the full list);
* naive (a full 27-bit stealth version per block, 216 B per page).
"""

from repro.core.config import FULL_ENTRY_BYTES, FLAT_ENTRY_BYTES
from repro.core.trip import TripFormat, TripPageTable
from repro.core.versions import StealthVersionPolicy
from repro.crypto.rng import DRangeRng
from repro.memory.address import block_index_in_page, page_number
from repro.workloads.synthetic import SyntheticWorkload

LOCALITIES = (1.0, 0.7, 0.3)
ACCESSES = 25_000


def replay(locality: float) -> TripPageTable:
    table = TripPageTable(policy=StealthVersionPolicy(rng=DRangeRng(seed=0)))
    workload = SyntheticWorkload(
        version_locality=locality, footprint_bytes=2 << 20, seed=11
    )
    for address, is_write in workload.access_stream(ACCESSES):
        if is_write:
            table.update(page_number(address), block_index_in_page(address))
    return table


def test_ablation_trip_vs_naive_storage(benchmark):
    def sweep():
        results = {}
        for locality in LOCALITIES:
            table = replay(locality)
            pages = len(table)
            counts = table.format_counts()
            trip_bytes = table.total_bytes()
            naive_bytes = pages * (FLAT_ENTRY_BYTES + FULL_ENTRY_BYTES)
            flat_only_bytes = (
                counts[TripFormat.FLAT] * FLAT_ENTRY_BYTES
                + (pages - counts[TripFormat.FLAT]) * (FLAT_ENTRY_BYTES + FULL_ENTRY_BYTES)
            )
            results[locality] = {
                "trip": trip_bytes,
                "flat_only": flat_only_bytes,
                "naive": naive_bytes,
            }
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for locality, sizes in results.items():
        # Trip never loses to the flat-only fallback or the naive list.
        assert sizes["trip"] <= sizes["flat_only"] <= sizes["naive"]
    # At perfect locality Trip approaches the 18x advantage of flat entries.
    perfect = results[1.0]
    assert perfect["naive"] / perfect["trip"] > 10
    benchmark.extra_info["bytes_by_locality"] = {
        str(k): v for k, v in results.items()
    }
