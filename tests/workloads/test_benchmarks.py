"""Tests for the twelve paper benchmarks and the registry."""

import pytest

from repro.core.config import CACHE_BLOCK_BYTES, GIB, PAGE_BYTES
from repro.workloads.base import Workload
from repro.workloads.registry import (
    BENCHMARKS,
    WORKLOAD_NAMES,
    benchmark_info,
    get_workload,
)

EXPECTED_NAMES = {
    "bsw",
    "chain",
    "dbg",
    "fmi",
    "pileup",
    "bfs",
    "pr",
    "sssp",
    "llama2-gen",
    "redis",
    "memcached",
    "hyrise",
}


class TestRegistry:
    def test_all_twelve_benchmarks_present(self):
        assert set(WORKLOAD_NAMES) == EXPECTED_NAMES

    def test_table2_reference_values(self):
        assert benchmark_info("pr").llc_mpki == pytest.approx(133.98)
        assert benchmark_info("pr").rss_gb == pytest.approx(20.8)
        assert benchmark_info("llama2-gen").llc_mpki == pytest.approx(57.96)
        assert benchmark_info("bsw").rss_gb == pytest.approx(11.7)
        assert benchmark_info("hyrise").rss_gb == pytest.approx(6.96)

    def test_categories(self):
        assert benchmark_info("bsw").category == "genomics"
        assert benchmark_info("pr").category == "graph"
        assert benchmark_info("llama2-gen").category == "llm"
        assert benchmark_info("redis").category == "database"

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            benchmark_info("nonexistent")
        with pytest.raises(KeyError):
            get_workload("nonexistent")

    def test_registry_characteristics_match_workload_classes(self):
        for name, info in BENCHMARKS.items():
            workload_class = info.workload_class
            assert workload_class.name == name
            assert workload_class.characteristics.llc_mpki == pytest.approx(info.llc_mpki)
            assert workload_class.characteristics.rss_bytes == pytest.approx(
                info.rss_gb * GIB, rel=0.01
            )


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
class TestEachBenchmark:
    def test_instantiation_and_footprint(self, name):
        workload = get_workload(name, scale=0.001)
        assert isinstance(workload, Workload)
        expected = benchmark_info(name).rss_bytes * 0.001
        assert workload.footprint_bytes == pytest.approx(expected, rel=0.15)

    def test_trace_addresses_in_regions(self, name):
        workload = get_workload(name, scale=0.001)
        for address, _ in workload.access_stream(3000):
            assert any(r.contains(address) for r in workload.regions)

    def test_trace_contains_reads_and_writes(self, name):
        workload = get_workload(name, scale=0.001)
        trace = workload.capture(5000)
        writes = sum(trace.writes)
        assert 0 < writes < len(trace)

    def test_reproducibility(self, name):
        a = get_workload(name, scale=0.001, seed=9).capture(1000)
        b = get_workload(name, scale=0.001, seed=9).capture(1000)
        assert (a.addresses, a.writes) == (b.addresses, b.writes)


class TestQualitativeBehaviour:
    """The access-pattern properties the paper's results depend on."""

    @staticmethod
    def _write_page_spread(name, accesses=20_000):
        """Number of distinct pages written, normalised by write count."""
        workload = get_workload(name, scale=0.001)
        pages = set()
        writes = 0
        for address, is_write in workload.access_stream(accesses):
            if is_write:
                writes += 1
                pages.add(address // PAGE_BYTES)
        return len(pages) / max(1, writes)

    def test_dp_kernels_write_uniformly(self):
        """bsw/chain writes sweep pages densely (high version locality)."""
        assert self._write_page_spread("bsw") < 0.1

    def test_kv_stores_touch_many_pages(self):
        """redis spreads writes across far more pages than the DP kernels."""
        assert self._write_page_spread("redis") > self._write_page_spread("bsw")

    def test_graph_workloads_have_more_write_skew_than_llm(self):
        def max_block_write_count(name):
            workload = get_workload(name, scale=0.001)
            counts = {}
            for address, is_write in workload.access_stream(20_000):
                if is_write:
                    block = address // CACHE_BLOCK_BYTES
                    counts[block] = counts.get(block, 0) + 1
            return max(counts.values())

        assert max_block_write_count("pr") > max_block_write_count("llama2-gen")

    def test_llm_is_read_dominated(self):
        workload = get_workload("llama2-gen", scale=0.001)
        trace = workload.capture(10_000)
        reads = len(trace) - sum(trace.writes)
        assert reads / len(trace) > 0.6
