"""Table 2: benchmark characteristics (RSS and LLC MPKI)."""

from repro.experiments import table2
from repro.workloads.registry import WORKLOAD_NAMES


def test_table2_reference_rows(benchmark):
    rows = benchmark.pedantic(table2.reference_rows, rounds=3, iterations=1)
    assert {row["bench"] for row in rows} == set(WORKLOAD_NAMES)
    by_bench = {row["bench"]: row for row in rows}
    assert by_bench["pr"]["llc_mpki"] > by_bench["bsw"]["llc_mpki"]
    benchmark.extra_info["benchmarks"] = len(rows)


def test_table2_measured_characteristics(benchmark, perf_suite, perf_context):
    rows = benchmark.pedantic(
        table2.compute, args=(perf_suite,), kwargs=perf_context, rounds=1, iterations=1
    )
    by_bench = {row["bench"]: row for row in rows}
    # The bandwidth-bound graph kernel misses far more than the DP kernel.
    assert by_bench["pr"]["measured_mpki"] >= 0
    assert by_bench["bsw"]["measured_footprint_mb"] > 0
    benchmark.extra_info["measured"] = {
        row["bench"]: row["measured_mpki"] for row in rows
    }
