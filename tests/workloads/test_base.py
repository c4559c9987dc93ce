"""Tests for the workload framework (regions, phases, trace generation)."""

import pytest

from repro.core.config import PAGE_BYTES
from repro.workloads.base import (
    MemoryRegion,
    Workload,
    WorkloadCharacteristics,
    WorkloadPhase,
)
from repro.workloads.patterns import random_reads, sequential_write_sweep


class TwoPhaseWorkload(Workload):
    """Minimal concrete workload used by the framework tests."""

    name = "two-phase"
    characteristics = WorkloadCharacteristics(
        rss_bytes=8 * 1024 * 1024, llc_mpki=5.0, category="test"
    )

    def region_plan(self):
        return [("a", 0.5), ("b", 0.5)]

    def build_phases(self):
        return [
            WorkloadPhase("init", 0.3, sequential_write_sweep("a")),
            WorkloadPhase("work", 0.7, random_reads("b")),
        ]


class TestMemoryRegion:
    def test_geometry(self):
        region = MemoryRegion("r", base=PAGE_BYTES, size=4 * PAGE_BYTES)
        assert region.end == 5 * PAGE_BYTES
        assert region.pages == 4
        assert region.blocks == 4 * 64

    def test_contains(self):
        region = MemoryRegion("r", base=PAGE_BYTES, size=PAGE_BYTES)
        assert region.contains(PAGE_BYTES)
        assert not region.contains(2 * PAGE_BYTES)

    def test_invalid_regions_rejected(self):
        with pytest.raises(ValueError):
            MemoryRegion("bad", base=0, size=0)
        with pytest.raises(ValueError):
            MemoryRegion("bad", base=3, size=PAGE_BYTES)


class TestWorkloadLayout:
    def test_regions_do_not_overlap(self):
        workload = TwoPhaseWorkload(scale=1.0)
        a, b = workload.regions
        assert a.end < b.base

    def test_scale_shrinks_footprint(self):
        big = TwoPhaseWorkload(scale=1.0)
        small = TwoPhaseWorkload(scale=0.25)
        assert small.footprint_bytes < big.footprint_bytes

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            TwoPhaseWorkload(scale=0)

    def test_region_lookup_by_name(self):
        workload = TwoPhaseWorkload()
        assert workload.region("a").name == "a"
        with pytest.raises(KeyError):
            workload.region("missing")


class TestTraceGeneration:
    def test_trace_length(self):
        workload = TwoPhaseWorkload()
        assert len(workload.capture(1000)) == 1000

    def test_accesses_fall_within_regions(self):
        workload = TwoPhaseWorkload()
        for address, _ in workload.access_stream(2000):
            assert any(r.contains(address) for r in workload.regions)

    def test_reproducible_with_same_seed(self):
        a = TwoPhaseWorkload(seed=3).capture(500)
        b = TwoPhaseWorkload(seed=3).capture(500)
        assert (a.addresses, a.writes) == (b.addresses, b.writes)

    def test_different_seeds_differ(self):
        a = TwoPhaseWorkload(seed=3).capture(500)
        b = TwoPhaseWorkload(seed=4).capture(500)
        assert a.addresses != b.addresses

    def test_phase_weights_respected(self):
        workload = TwoPhaseWorkload()
        trace = workload.capture(1000)
        writes = sum(trace.writes)
        # The init phase (30% of accesses) is all writes; the work phase is
        # all reads, so roughly 30% of the trace should be writes.
        assert writes == pytest.approx(300, abs=20)

    def test_access_stream_reads_the_captured_trace(self):
        trace = TwoPhaseWorkload(seed=5).capture(1500)
        assert list(TwoPhaseWorkload(seed=5).access_stream(1500)) == list(trace.access_stream())

    def test_invalid_access_count(self):
        workload = TwoPhaseWorkload()
        with pytest.raises(ValueError, match="num_accesses"):
            workload.capture(0)
        with pytest.raises(ValueError, match="num_accesses"):
            list(workload.access_stream(0))


class TestInstructionCalibration:
    def test_mpki_calibration(self):
        workload = TwoPhaseWorkload()
        instructions = workload.instruction_count(1000, llc_misses=50)
        # 50 misses at 5 MPKI -> 10,000 instructions.
        assert instructions == 10_000

    def test_fallback_without_miss_count(self):
        workload = TwoPhaseWorkload()
        assert workload.instruction_count(1000) == 3000  # default 3 instr/access

    def test_calibrated_count_never_below_access_count(self):
        workload = TwoPhaseWorkload()
        assert workload.instruction_count(1000, llc_misses=1) >= 1000
