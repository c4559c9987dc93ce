"""Tests for the configurable synthetic workload used by the ablations."""

import pytest

from repro.core.config import MIB
from repro.core.trip import TripFormat, TripPageTable
from repro.core.versions import StealthVersionPolicy
from repro.crypto.rng import DRangeRng
from repro.memory.address import block_index_in_page, page_number
from repro.workloads.synthetic import SyntheticWorkload


def uneven_fraction(workload, accesses=30_000):
    """Fraction of touched pages that left the flat format."""
    table = TripPageTable(policy=StealthVersionPolicy(rng=DRangeRng(seed=0)))
    for address, is_write in workload.access_stream(accesses):
        if is_write:
            table.update(page_number(address), block_index_in_page(address))
    counts = table.format_counts()
    total = sum(counts.values())
    if total == 0:
        return 0.0
    return (counts[TripFormat.UNEVEN] + counts[TripFormat.FULL]) / total


class TestConstruction:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SyntheticWorkload(version_locality=1.5)
        with pytest.raises(ValueError):
            SyntheticWorkload(skew=-0.1)

    def test_footprint_matches_request(self):
        workload = SyntheticWorkload(footprint_bytes=8 * MIB)
        assert workload.footprint_bytes == pytest.approx(8 * MIB, rel=0.01)

    def test_trace_reproducible(self):
        a = SyntheticWorkload(seed=5).capture(2000)
        b = SyntheticWorkload(seed=5).capture(2000)
        assert (a.addresses, a.writes) == (b.addresses, b.writes)

    def test_trace_length_exact(self):
        assert len(list(SyntheticWorkload().access_stream(1234))) == 1234


class TestVersionLocalityKnob:
    def test_high_locality_keeps_pages_flat(self):
        workload = SyntheticWorkload(
            version_locality=1.0, footprint_bytes=4 * MIB, seed=1
        )
        assert uneven_fraction(workload) < 0.05

    def test_low_locality_creates_uneven_pages(self):
        workload = SyntheticWorkload(
            version_locality=0.0, footprint_bytes=1 * MIB, seed=1
        )
        assert uneven_fraction(workload) > 0.2

    def test_locality_is_monotone(self):
        fractions = [
            uneven_fraction(
                SyntheticWorkload(version_locality=v, footprint_bytes=2 * MIB, seed=2)
            )
            for v in (0.0, 0.5, 1.0)
        ]
        assert fractions[0] >= fractions[1] >= fractions[2]


class TestSkewKnob:
    def test_skewed_writes_produce_full_pages(self):
        workload = SyntheticWorkload(
            version_locality=0.1, skew=1.0, footprint_bytes=1 * MIB, seed=3
        )
        table = TripPageTable(policy=StealthVersionPolicy(rng=DRangeRng(seed=0)))
        for address, is_write in workload.access_stream(60_000):
            if is_write:
                table.update(page_number(address), block_index_in_page(address))
        assert table.format_counts()[TripFormat.FULL] > 0
