"""Tests for the table-reproduction harnesses (Tables 1-4)."""

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.core.config import PAGE_BYTES, SystemConfig
from repro.core.trip import TripPageTable
from repro.core.versions import StealthVersionPolicy
from repro.crypto.rng import DRangeRng
from repro.experiments import table1, table2, table3, table4
from repro.experiments.harness import run_benchmarks, run_space_study
from repro.memory.address import block_index_in_page, page_number
from repro.report.artifacts import ReproContext
from repro.workloads.registry import BENCHMARKS, WORKLOAD_NAMES, get_workload

#: Two benchmarks, one read-mostly and one that writes, at reference-test size.
REFERENCE_CONTEXT = ReproContext(
    tier="quick", benchmarks=("bsw", "memcached"), scale=0.002, num_accesses=4000, seed=4321
)


class TestTable1:
    def test_three_rows(self):
        rows = table1.compute()
        assert len(rows) == 3
        schemes = {row["Scheme"] for row in rows}
        assert schemes == {"Client SGX", "Scalable SGX", "Toleo"}

    def test_toleo_row_has_all_guarantees(self):
        rows = {row["Scheme"]: row for row in table1.compute()}
        assert rows["Toleo"]["Freshness"] == "Yes"
        assert rows["Toleo"]["Integrity"] == "Yes"
        assert rows["Toleo"]["Full Physical Memory"] == "Yes"
        assert rows["Scalable SGX"]["Freshness"] == "No"
        assert rows["Client SGX"]["Full Physical Memory"] == "No"

    def test_partial_confidentiality_demonstration(self):
        demo = table1.demonstrate_partial_confidentiality()
        assert demo["Scalable SGX"] is True
        assert demo["Toleo"] is False

    def test_render_contains_table(self):
        demo = table1.demonstrate_partial_confidentiality()
        text = table1.render_payload({"rows": table1.compute(), "distinguishable": demo})
        assert "Table 1" in text
        assert "Toleo" in text


class TestTable2:
    def test_reference_rows_cover_all_benchmarks(self):
        rows = table2.reference_rows()
        assert {row["bench"] for row in rows} == set(WORKLOAD_NAMES)

    def test_reference_values(self):
        rows = {row["bench"]: row for row in table2.reference_rows()}
        assert rows["pr"]["llc_mpki"] == pytest.approx(133.98)
        assert rows["bsw"]["rss_gb"] == pytest.approx(11.7)

    def test_rows_match_a_cache_hierarchy_replay(self):
        """The measured columns, read from the suite's NoProtect run, equal
        a private walk of each trace through the reference hierarchy."""
        ctx = REFERENCE_CONTEXT
        expected = []
        for name in ctx.benchmarks:
            workload = get_workload(name, scale=ctx.scale, seed=ctx.seed)
            hierarchy = CacheHierarchy(SystemConfig())
            for address, is_write in workload.access_stream(ctx.num_accesses):
                hierarchy.access(address, is_write)
            instructions = workload.instruction_count(ctx.num_accesses)
            expected.append(
                {
                    "bench": name,
                    "paper_rss_gb": BENCHMARKS[name].rss_gb,
                    "paper_mpki": BENCHMARKS[name].llc_mpki,
                    "measured_footprint_mb": round(workload.footprint_bytes / (1 << 20), 2),
                    "measured_mpki": round(
                        1000 * hierarchy.l3.stats.misses / instructions, 2
                    ),
                }
            )
        assert table2.artifact_payload(ctx)["payload"]["rows"] == expected

    def test_compute_subset(self):
        suite = run_benchmarks(("bsw", "pr"), scale=0.002, num_accesses=5000)
        rows = table2.compute(suite, scale=0.002, num_accesses=5000, seed=1234)
        assert [row["bench"] for row in rows] == ["bsw", "pr"]
        for row in rows:
            assert row["measured_footprint_mb"] > 0
            assert row["measured_mpki"] >= 0

    def test_render(self):
        suite = run_benchmarks(("bsw",), scale=0.002, num_accesses=3000)
        rows = table2.compute(suite, scale=0.002, num_accesses=3000, seed=1234)
        text = table2.render_payload({"rows": rows})
        assert "Table 2" in text and "bsw" in text


class TestTable3:
    def test_contains_key_components(self):
        components = {row["component"] for row in table3.compute()}
        assert {"Processor", "L3 cache", "Toleo", "MAC cache", "Stealth version"} <= components

    def test_render_mentions_paper_parameters(self):
        text = table3.render_payload({"rows": table3.compute()})
        assert "168 GB" in text
        assert "256 entries" in text
        assert "28 KB" in text


class TestTable4:
    def test_reference_ratios(self):
        rows = {row["representation"]: row for row in table4.reference_rows()}
        assert rows["Client SGX (Leaf)"]["data_to_version_ratio"] == pytest.approx(9.14, abs=0.01)
        assert rows["VAULT (Leaf)"]["data_to_version_ratio"] == pytest.approx(64.0)
        assert rows["MorphCtr-128 (Leaf)"]["data_to_version_ratio"] == pytest.approx(128.0)
        assert rows["Toleo Stealth Flat"]["data_to_version_ratio"] == pytest.approx(341.3, abs=0.5)
        assert rows["Toleo Stealth Avg."]["data_to_version_ratio"] == pytest.approx(240, abs=1)

    def test_measured_row_matches_a_trip_table_replay(self):
        """The measured row, read from a space study, equals a private
        replay of each write stream through a Trip page table."""
        ctx = REFERENCE_CONTEXT
        total_bytes = total_pages = 0
        for name in ctx.benchmarks:
            workload = get_workload(name, scale=ctx.scale, seed=ctx.seed)
            table = TripPageTable(policy=StealthVersionPolicy(rng=DRangeRng(seed=ctx.seed)))
            for address, is_write in workload.access_stream(ctx.num_accesses):
                if is_write:
                    table.update(page_number(address), block_index_in_page(address))
            total_bytes += table.total_bytes()
            total_pages += len(table)
        average = total_bytes / total_pages
        assert table4.artifact_payload(ctx)["payload"]["measured"] == {
            "average_entry_bytes": round(average, 2),
            "data_to_version_ratio": round(PAGE_BYTES / average, 1),
        }

    def test_a_study_without_pages_measures_zero(self):
        assert table4.compute({}) == {"average_entry_bytes": 0.0, "data_to_version_ratio": 0.0}

    def test_measured_average_better_than_client_sgx(self):
        study = run_space_study(["bsw", "memcached"], scale=0.001, num_accesses=15_000)
        measured = table4.compute(study)
        # Toleo's page-level compression beats the per-block SGX counters by a
        # wide margin; the exact ratio depends on the workload mix.
        assert measured["data_to_version_ratio"] > 64
        assert measured["average_entry_bytes"] >= 12.0

    def test_render(self):
        measured = table4.compute(run_space_study(["bsw"], scale=0.001, num_accesses=5000))
        text = table4.render_payload({"reference": table4.reference_rows(), "measured": measured})
        assert "Table 4" in text and "Measured" in text
