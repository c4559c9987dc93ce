"""Tests for the simulation result containers."""

import pytest

from repro.core.trip import TripFormat
from repro.sim.results import LatencyBreakdown, SimulationResult, TrafficBreakdown


def make_result(**overrides):
    defaults = dict(
        workload="unit",
        mode="Toleo",
        instructions=1_000_000,
        accesses=10_000,
        llc_misses=2_000,
        writebacks=500,
        execution_time_ns=2_000_000.0,
        traffic=TrafficBreakdown(data_bytes=128_000, mac_uv_bytes=64_000, stealth_bytes=8_000),
        latency=LatencyBreakdown(dram_ns=100.0, decryption_ns=18.0, integrity_ns=30.0, freshness_ns=5.0),
        baseline_time_ns=1_600_000.0,
    )
    defaults.update(overrides)
    return SimulationResult(**defaults)


class TestTrafficBreakdown:
    def test_total(self):
        traffic = TrafficBreakdown(data_bytes=10, mac_uv_bytes=20, stealth_bytes=30, dummy_bytes=40)
        assert traffic.total_bytes == 100

    def test_per_instruction(self):
        traffic = TrafficBreakdown(data_bytes=1000)
        per = traffic.per_instruction(500)
        assert per["data"] == pytest.approx(2.0)
        assert per["dummy"] == 0.0

    def test_per_instruction_zero_instructions(self):
        assert TrafficBreakdown(data_bytes=5).per_instruction(0)["data"] == 0.0


class TestLatencyBreakdown:
    def test_total_and_dict(self):
        latency = LatencyBreakdown(dram_ns=100, decryption_ns=20, integrity_ns=30, freshness_ns=5)
        assert latency.total_ns == pytest.approx(155.0)
        assert latency.as_dict()["total"] == pytest.approx(155.0)


class TestSimulationResult:
    def test_mpki(self):
        assert make_result().llc_mpki == pytest.approx(2.0)
        assert make_result(instructions=0).llc_mpki == 0.0

    def test_slowdown_and_overhead(self):
        result = make_result()
        assert result.slowdown == pytest.approx(1.25)
        assert result.overhead == pytest.approx(0.25)

    def test_slowdown_without_baseline_is_one(self):
        assert make_result(baseline_time_ns=None).slowdown == 1.0

    def test_bytes_per_instruction(self):
        per = make_result().bytes_per_instruction
        assert per["data"] == pytest.approx(0.128)
        assert per["mac_uv"] == pytest.approx(0.064)

    def test_average_read_latency(self):
        assert make_result().average_read_latency_ns == pytest.approx(153.0)

    def test_trip_format_fractions(self):
        result = make_result(
            trip_format_counts={TripFormat.FLAT: 90, TripFormat.UNEVEN: 9, TripFormat.FULL: 1}
        )
        fractions = result.trip_format_fractions()
        assert fractions["flat"] == pytest.approx(0.9)
        assert fractions["uneven"] == pytest.approx(0.09)
        assert fractions["full"] == pytest.approx(0.01)

    def test_trip_format_fractions_empty(self):
        fractions = make_result().trip_format_fractions()
        assert all(v == 0.0 for v in fractions.values())

    def test_toleo_gb_per_tb(self):
        result = make_result(toleo_usage_bytes={"flat": 1 << 30})
        # 1 GiB of Toleo for 1 TiB protected -> 1.0 GB/TB.
        assert result.toleo_gb_per_tb_protected(1 << 40) == pytest.approx(1.0)
        assert result.toleo_gb_per_tb_protected(0) == 0.0

    def test_summary_keys(self):
        summary = make_result().summary()
        assert summary["workload"] == "unit"
        assert summary["mode"] == "Toleo"
        assert "overhead_pct" in summary and "llc_mpki" in summary
