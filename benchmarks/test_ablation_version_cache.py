"""Ablation: stealth-version cache sizing (TLB entries / overflow buffer).

DESIGN.md calls out the caching structure as the reason a *remote* Toleo
device adds so little latency.  This ablation sweeps the L2-TLB stealth
extension size and the overflow-buffer size and measures the combined hit
rate on a key-value workload (the paper's worst case for the cache).
"""

import dataclasses

from repro.core.config import SystemConfig, UNEVEN_ENTRY_BYTES
from repro.core.trip import TripFormat
from repro.core.version_cache import StealthVersionCache
from repro.memory.address import page_number
from repro.workloads.registry import get_workload

TLB_SIZES = (64, 256, 1024)
ACCESSES = 20_000


def hit_rate_with(tlb_entries: int, overflow_kib: int = 28) -> float:
    config = dataclasses.replace(
        SystemConfig(),
        tlb_stealth_entries=tlb_entries,
        stealth_overflow_buffer_bytes=overflow_kib * 1024,
    )
    cache = StealthVersionCache(config=config)
    workload = get_workload("memcached", scale=0.002, seed=9)
    for address, is_write in workload.access_stream(ACCESSES):
        cache.access(page_number(address), TripFormat.FLAT, is_write=is_write)
    return cache.hit_rate


def test_ablation_tlb_extension_sizing(benchmark):
    def sweep():
        return {entries: hit_rate_with(entries) for entries in TLB_SIZES}

    rates = benchmark.pedantic(sweep, rounds=1, iterations=1)
    ordered = sorted(rates)
    for smaller, larger in zip(ordered, ordered[1:]):
        assert rates[larger] >= rates[smaller]
    # The paper's 256-entry extension already captures most of the benefit
    # relative to a 4x larger structure.
    assert rates[1024] - rates[256] < 0.3
    benchmark.extra_info["hit_rate_by_tlb_entries"] = {
        str(k): round(v, 3) for k, v in rates.items()
    }


def test_ablation_overflow_buffer_sizing(benchmark):
    def sweep():
        results = {}
        for kib in (7, 28, 112):
            config = dataclasses.replace(
                SystemConfig(), stealth_overflow_buffer_bytes=kib * 1024
            )
            cache = StealthVersionCache(config=config)
            # Drive uneven-format pages (which live in the overflow buffer).
            workload = get_workload("fmi", scale=0.002, seed=9)
            for address, is_write in workload.access_stream(ACCESSES):
                cache.access(page_number(address), TripFormat.UNEVEN, is_write=is_write)
            results[kib] = cache.hit_rate
        return results

    rates = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert rates[112] >= rates[7]
    assert all(0.0 <= rate <= 1.0 for rate in rates.values())
    benchmark.extra_info["hit_rate_by_overflow_kib"] = {
        str(k): round(v, 3) for k, v in rates.items()
    }
