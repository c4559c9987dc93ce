"""Tests for the shared experiment harness (suite runner and space study)."""

import pytest

from repro.core.trip import TripFormat
from repro.experiments.harness import (
    DEFAULT_BENCHMARKS,
    QUICK_BENCHMARKS,
    SpaceStudyResult,
    run_benchmarks,
    run_space_study,
)
from repro.sim.configs import EVALUATED_MODES
from repro.sim.shard import RunPlan, run_plans


class TestBenchmarkSets:
    def test_default_set_is_all_twelve(self):
        assert len(DEFAULT_BENCHMARKS) == 12

    def test_quick_set_is_a_subset(self):
        assert set(QUICK_BENCHMARKS) <= set(DEFAULT_BENCHMARKS)
        assert 0 < len(QUICK_BENCHMARKS) < len(DEFAULT_BENCHMARKS)


class TestRunBenchmarks:
    def test_structure_and_baseline(self):
        suite = run_benchmarks(("hyrise",), scale=0.002, num_accesses=4000)
        assert set(suite) == {"hyrise"}
        results = suite["hyrise"]
        assert "NoProtect" in results
        assert "Toleo" in results
        assert results["Toleo"].baseline_time_ns is not None

    def test_cache_keyed_by_parameters(self):
        a = run_benchmarks(("hyrise",), scale=0.002, num_accesses=4000)
        b = run_benchmarks(("hyrise",), scale=0.002, num_accesses=4000)
        c = run_benchmarks(("hyrise",), scale=0.002, num_accesses=4001)
        assert a is b
        assert a is not c

    def test_cache_bypass(self):
        a = run_benchmarks(("hyrise",), scale=0.002, num_accesses=4000)
        b = run_benchmarks(("hyrise",), scale=0.002, num_accesses=4000, use_cache=False)
        assert a is not b


class TestRunSpaceStudy:
    def test_result_fields(self):
        study = run_space_study(("bsw",), scale=0.001, num_accesses=10_000)
        result = study["bsw"]
        assert isinstance(result, SpaceStudyResult)
        assert result.footprint_bytes > 0
        assert len(result.timeline) > 1
        assert sum(result.format_counts.values()) == result.table_pages
        assert set(result.usage_bytes) == {"flat", "uneven", "full"}

    def test_only_writes_reach_the_device(self):
        study = run_space_study(("bsw",), scale=0.001, num_accesses=10_000)
        result = study["bsw"]
        assert result.updates > 0
        assert result.reads == 0

    def test_flat_dominates_for_dp_kernel(self):
        study = run_space_study(("bsw",), scale=0.001, num_accesses=10_000)
        counts = study["bsw"].format_counts
        total = sum(counts.values())
        assert counts[TripFormat.FLAT] / total > 0.9


class TestConfigAwareCaching:
    """Regression tests for the key bug: config/options used to be omitted."""

    @staticmethod
    def _suite(config=None, options=None):
        """``run_benchmarks``' hyrise run at ``config``/``options``."""
        plan = RunPlan(
            ("hyrise",), EVALUATED_MODES, 0.002, 4000, 1234, config, options, None, None
        )
        (suite,), _ = run_plans([plan], jobs=1)
        return suite

    def test_different_config_not_served_same_entry(self):
        import dataclasses

        from repro.core.config import SystemConfig

        default = run_benchmarks(("hyrise",), scale=0.002, num_accesses=4000)
        slow_aes = self._suite(
            config=dataclasses.replace(SystemConfig(), aes_latency_cycles=400)
        )
        assert default is not slow_aes
        a = default["hyrise"]["Toleo"]
        b = slow_aes["hyrise"]["Toleo"]
        assert a.latency.decryption_ns != b.latency.decryption_ns

    def test_different_options_not_served_same_entry(self):
        from repro.sim.engine import EngineOptions

        default = run_benchmarks(("hyrise",), scale=0.002, num_accesses=4000)
        tuned = self._suite(options=EngineOptions(base_cpi=1.2))
        assert default is not tuned
        a = default["hyrise"]["NoProtect"]
        b = tuned["hyrise"]["NoProtect"]
        assert a.execution_time_ns != b.execution_time_ns
