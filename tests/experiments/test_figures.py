"""Tests for the figure-reproduction harnesses (Figures 6-12, Section 6.2).

A small two-benchmark suite is simulated once (module-scoped fixtures) and
every figure's compute/render path is exercised against it.  Shape assertions
mirror the paper's qualitative claims.
"""

import pytest

from repro.experiments import fig6, fig7, fig8, fig9, fig10, fig11, fig12, security62
from repro.experiments.harness import clear_cache, run_benchmarks, run_space_study
from repro.experiments.report import format_csv, format_percentage, format_table, geometric_mean
from repro.sim.configs import LATENCY_MODES

BENCHES = ("bsw", "memcached")


@pytest.fixture(scope="module")
def suite():
    return run_benchmarks(BENCHES, scale=0.002, num_accesses=8000)


@pytest.fixture(scope="module")
def latency_suite():
    return run_benchmarks(BENCHES, modes=LATENCY_MODES, scale=0.002, num_accesses=8000)


@pytest.fixture(scope="module")
def space_study():
    return run_space_study(("bsw", "fmi"), scale=0.001, num_accesses=25_000)


class TestReportHelpers:
    def test_format_percentage(self):
        assert format_percentage(0.183) == "18.3%"

    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], title="T")
        assert text.startswith("T\n")
        assert "22" in text

    def test_format_table_empty(self):
        assert "(no data)" in format_table([])

    def test_format_csv(self):
        csv = format_csv([{"a": 1, "b": 2}])
        assert csv.splitlines()[0] == "a,b"
        assert csv.splitlines()[1] == "1,2"

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0


class TestHarnessCache:
    def test_cache_returns_same_object(self):
        a = run_benchmarks(BENCHES, scale=0.002, num_accesses=8000)
        b = run_benchmarks(BENCHES, scale=0.002, num_accesses=8000)
        assert a is b

    def test_clear_cache(self):
        a = run_benchmarks(BENCHES, scale=0.002, num_accesses=8000)
        clear_cache()
        b = run_benchmarks(BENCHES, scale=0.002, num_accesses=8000)
        assert a is not b


class TestFig6:
    def test_rows_per_benchmark(self, suite):
        rows = fig6.compute(suite)
        assert {row["bench"] for row in rows} == set(BENCHES)
        for row in rows:
            for mode in fig6.OVERHEAD_MODES:
                assert mode in row

    def test_invisimem_is_the_most_expensive(self, suite):
        for row in fig6.compute(suite):
            assert row["InvisiMem"] >= row["CI"]

    def test_toleo_increment_small_for_bsw(self, suite):
        increments = fig6.toleo_increment_over_ci(fig6.compute(suite))
        assert increments["bsw"] < 0.05

    def test_averages(self, suite):
        avg = fig6.averages(fig6.compute(suite))
        assert set(avg) == set(fig6.OVERHEAD_MODES)

    def test_render_includes_average_row(self, suite):
        text = fig6.render_payload({"rows": fig6.compute(suite)})
        assert "Figure 6" in text and "average" in text


class TestFig7:
    def test_hit_rates_in_range(self, suite):
        rows = fig7.compute(suite)
        for row in rows:
            assert 0.0 <= row["stealth_hit_rate"] <= 1.0
            assert 0.0 <= row["mac_hit_rate"] <= 1.0

    def test_memcached_is_outlier(self, suite):
        rows = {row["bench"]: row for row in fig7.compute(suite)}
        assert rows["memcached"]["stealth_hit_rate"] < rows["bsw"]["stealth_hit_rate"]

    def test_averages(self, suite):
        avg = fig7.averages(fig7.compute(suite))
        assert 0.0 < avg["stealth_hit_rate"] <= 1.0


class TestFig8:
    def test_rows_cover_modes(self, suite):
        rows = fig8.compute(suite)
        modes = {row["mode"] for row in rows}
        assert "NoProtect" in modes and "Toleo" in modes

    def test_stealth_traffic_only_in_toleo_mode(self, suite):
        for row in fig8.compute(suite):
            if row["mode"] != "Toleo":
                assert row["stealth"] == 0.0

    def test_stealth_fraction_negligible(self, suite):
        fractions = fig8.stealth_traffic_fraction(fig8.compute(suite))
        assert all(f < 0.1 for f in fractions.values())


class TestFig9:
    def test_latency_components_per_mode(self, latency_suite):
        rows = fig9.compute(latency_suite)
        by_key = {(r["bench"], r["mode"]): r for r in rows}
        base = by_key[("bsw", "NoProtect")]
        assert base["decrypt_ns"] == 0.0 and base["freshness_ns"] == 0.0
        c = by_key[("bsw", "C")]
        assert c["decrypt_ns"] > 0.0 and c["integrity_ns"] == 0.0
        toleo = by_key[("bsw", "Toleo")]
        assert toleo["total_ns"] >= base["total_ns"]

    def test_freshness_fraction_larger_for_memcached(self, latency_suite):
        fractions = fig9.freshness_latency_fraction(fig9.compute(latency_suite))
        assert fractions["memcached"] > fractions["bsw"]


class TestFig10:
    def test_fractions_sum_to_one(self, space_study):
        for row in fig10.compute(space_study):
            assert row["flat"] + row["uneven"] + row["full"] == pytest.approx(1.0, abs=0.01)

    def test_fmi_has_more_uneven_pages_than_bsw(self, space_study):
        rows = {row["bench"]: row for row in fig10.compute(space_study)}
        assert rows["fmi"]["uneven"] > rows["bsw"]["uneven"]
        assert rows["bsw"]["flat"] > 0.9


class TestFig11:
    def test_usage_positive_and_fmi_worst(self, space_study):
        rows = {row["bench"]: row for row in fig11.compute(space_study)}
        assert rows["fmi"]["gb_per_tb_protected"] > rows["bsw"]["gb_per_tb_protected"]
        for row in rows.values():
            assert row["gb_per_tb_protected"] > 0

    def test_protectable_capacity_exceeds_28tb(self, space_study):
        rows = fig11.compute(space_study)
        assert fig11.protectable_tb(rows) > 28

    def test_render_reports_protectable_capacity(self, space_study):
        text = fig11.render_payload({"rows": fig11.compute(space_study)})
        assert "GB per TB protected" in text and "168 GB Toleo" in text


class TestFig12:
    def test_timelines_present_and_monotone(self, space_study):
        timelines = fig12.compute(space_study)
        assert set(timelines) == {"bsw", "fmi"}
        for timeline in timelines.values():
            assert len(timeline) > 1
            assert fig12.monotonic_flat_growth(timeline)

    def test_final_breakdown_rows(self, space_study):
        rows = fig12.final_breakdown(fig12.compute(space_study))
        assert len(rows) == 2
        for row in rows:
            assert row["final_flat_kb"] > 0


class TestSecuritySection62:
    def test_comparison_rows(self):
        rows = security62.comparison_rows()
        assert len(rows) == 3
        measured = security62.compute()
        assert measured["full_version_collision_probability"] < 1e-18

    def test_render(self):
        check = security62.reduced_parameter_check()
        text = security62.render_payload(
            {"rows": security62.comparison_rows(), "reduced_check": check}
        )
        assert "Section 6.2" in text and "Monte-Carlo cross-check" in text
