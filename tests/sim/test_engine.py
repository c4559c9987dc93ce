"""Integration tests for the trace-driven simulation engine.

These verify the *shape* of the paper's results rather than exact numbers:
protection overhead ordering, the small cost of freshness relative to CI,
stealth-traffic negligibility, and the per-mode traffic composition.
"""

import pytest

from repro.sim.configs import EVALUATED_MODES
from repro.sim.engine import EngineOptions, SimulationEngine, compare_modes, run_suite
from repro.workloads.registry import get_workload
from repro.workloads.synthetic import SyntheticWorkload

ACCESSES = 8_000


@pytest.fixture(scope="module")
def bsw_results():
    return compare_modes(
        lambda: get_workload("bsw", scale=0.002, seed=1), num_accesses=ACCESSES
    )


@pytest.fixture(scope="module")
def memcached_results():
    return compare_modes(
        lambda: get_workload("memcached", scale=0.002, seed=1), num_accesses=ACCESSES
    )


class TestBaseline:
    def test_noprotect_has_zero_overhead(self, bsw_results):
        assert bsw_results["NoProtect"].overhead == pytest.approx(0.0)

    def test_noprotect_moves_only_data_bytes(self, bsw_results):
        traffic = bsw_results["NoProtect"].traffic
        assert traffic.mac_uv_bytes == 0
        assert traffic.stealth_bytes == 0
        assert traffic.dummy_bytes == 0
        assert traffic.data_bytes > 0


class TestOverheadOrdering:
    def test_protected_modes_are_slower_than_baseline(self, bsw_results):
        for mode in ("CI", "Toleo", "InvisiMem"):
            assert bsw_results[mode].overhead >= 0.0

    def test_toleo_costs_more_than_ci(self, bsw_results):
        assert (
            bsw_results["Toleo"].execution_time_ns
            >= bsw_results["CI"].execution_time_ns
        )

    def test_invisimem_costs_more_than_toleo(self, bsw_results):
        assert (
            bsw_results["InvisiMem"].overhead
            > bsw_results["Toleo"].overhead
        )

    def test_freshness_increment_is_small_for_dp_kernel(self, bsw_results):
        # bsw has excellent version locality: Toleo adds little on top of CI.
        increment = (
            bsw_results["Toleo"].overhead
            - bsw_results["CI"].overhead
        )
        assert increment < 0.05

    def test_memcached_pays_more_for_freshness_than_bsw(self, bsw_results, memcached_results):
        bsw_inc = (
            bsw_results["Toleo"].overhead
            - bsw_results["CI"].overhead
        )
        mc_inc = (
            memcached_results["Toleo"].overhead
            - memcached_results["CI"].overhead
        )
        assert mc_inc > bsw_inc


class TestTrafficComposition:
    def test_ci_adds_mac_but_not_stealth_traffic(self, bsw_results):
        traffic = bsw_results["CI"].traffic
        assert traffic.mac_uv_bytes > 0
        assert traffic.stealth_bytes == 0

    def test_toleo_adds_stealth_traffic(self, bsw_results):
        assert bsw_results["Toleo"].traffic.stealth_bytes > 0

    def test_stealth_traffic_is_negligible_vs_data(self, bsw_results):
        traffic = bsw_results["Toleo"].traffic
        assert traffic.stealth_bytes < 0.05 * traffic.data_bytes

    def test_only_invisimem_sends_dummy_traffic(self, bsw_results):
        for mode in EVALUATED_MODES:
            dummy = bsw_results[mode].traffic.dummy_bytes
            if mode == "InvisiMem":
                assert dummy > 0
            else:
                assert dummy == 0


class TestLatencyBreakdown:
    def test_components_enabled_per_mode(self, bsw_results):
        no_protect = bsw_results["NoProtect"].latency
        assert no_protect.decryption_ns == 0.0
        assert no_protect.integrity_ns == 0.0
        ci = bsw_results["CI"].latency
        assert ci.decryption_ns > 0.0
        assert ci.freshness_ns == 0.0
        toleo = bsw_results["Toleo"].latency
        assert toleo.freshness_ns >= 0.0
        invisimem = bsw_results["InvisiMem"].latency
        assert invisimem.side_channel_ns > 0.0

    def test_read_latency_increases_with_protection(self, bsw_results):
        assert (
            bsw_results["CI"].average_read_latency_ns
            >= bsw_results["NoProtect"].average_read_latency_ns
        )


class TestCacheHitRates:
    def test_stealth_hit_rate_high_for_dp_kernel(self, bsw_results):
        assert bsw_results["Toleo"].stealth_cache_hit_rate > 0.9

    def test_memcached_is_the_stealth_cache_outlier(self, bsw_results, memcached_results):
        assert (
            memcached_results["Toleo"].stealth_cache_hit_rate
            < bsw_results["Toleo"].stealth_cache_hit_rate
        )


class TestMpkiCalibration:
    def test_mpki_matches_table2_reference(self, bsw_results):
        # Instruction counts are calibrated so MPKI matches the paper.
        assert bsw_results["NoProtect"].llc_mpki == pytest.approx(1.21, rel=0.05)

    def test_mpki_identical_across_modes(self, bsw_results):
        values = {round(bsw_results[m].llc_mpki, 6) for m in EVALUATED_MODES}
        assert len(values) == 1


class TestDeterminism:
    def test_same_seed_gives_identical_results(self):
        a = SimulationEngine.from_mode("Toleo", seed=5).run(
            get_workload("hyrise", scale=0.002, seed=2), num_accesses=4000
        )
        b = SimulationEngine.from_mode("Toleo", seed=5).run(
            get_workload("hyrise", scale=0.002, seed=2), num_accesses=4000
        )
        assert a.execution_time_ns == b.execution_time_ns
        assert a.traffic.total_bytes == b.traffic.total_bytes
        assert a.stealth_cache_hit_rate == b.stealth_cache_hit_rate


class TestCompareAndSuite:
    def test_compare_modes_returns_only_requested_modes(self):
        # NoProtect still *runs* (it provides the baseline time) but must not
        # leak into the result dict when the caller did not ask for it.
        results = compare_modes(
            lambda: SyntheticWorkload(seed=1),
            modes=["Toleo"],
            num_accesses=3000,
        )
        assert set(results) == {"Toleo"}
        assert results["Toleo"].baseline_time_ns is not None
        assert results["Toleo"].slowdown > 1.0

    def test_compare_modes_returns_baseline_when_requested(self):
        results = compare_modes(
            lambda: SyntheticWorkload(seed=1),
            modes=["NoProtect", "CI"],
            num_accesses=3000,
        )
        assert set(results) == {"NoProtect", "CI"}
        assert results["NoProtect"].overhead == pytest.approx(0.0)

    def test_run_suite_structure(self):
        suite = run_suite(
            ["hyrise"], modes=["NoProtect", "CI"],
            scale=0.002, num_accesses=3000,
        )
        assert set(suite) == {"hyrise"}
        assert "CI" in suite["hyrise"]


class TestEngineOptions:
    def test_more_mlp_reduces_execution_time(self):
        workload = lambda: get_workload("pr", scale=0.002, seed=3)
        slow = SimulationEngine.from_mode(
            "CI", options=EngineOptions(memory_level_parallelism=1.0)
        ).run(workload(), num_accesses=4000)
        fast = SimulationEngine.from_mode(
            "CI", options=EngineOptions(memory_level_parallelism=8.0)
        ).run(workload(), num_accesses=4000)
        assert fast.execution_time_ns < slow.execution_time_ns

    def test_timeline_samples_collected_for_toleo(self):
        result = SimulationEngine.from_mode("Toleo").run(
            get_workload("bsw", scale=0.002, seed=1), num_accesses=4000
        )
        assert len(result.toleo_usage_timeline) > 0
        assert result.trip_format_counts
