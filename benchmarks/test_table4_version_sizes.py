"""Table 4: freshness-protected version size comparison.

Reference ratios (Client SGX 9.14:1, VAULT 64:1, MorphCtr 128:1, Toleo flat
341:1 / uneven 60:1 / full 18:1) plus the measured workload-average Toleo
entry size, which the paper reports as 17.08 B per page (240:1).
"""

from repro.core.config import PAGE_BYTES
from repro.experiments import table4


def test_table4_reference_ratios(benchmark):
    rows = benchmark.pedantic(table4.reference_rows, rounds=3, iterations=1)
    by_name = {row["representation"]: row for row in rows}
    assert by_name["Toleo Stealth Flat"]["data_to_version_ratio"] > by_name[
        "MorphCtr-128 (Leaf)"
    ]["data_to_version_ratio"]
    assert by_name["Client SGX (Leaf)"]["data_to_version_ratio"] < 10
    benchmark.extra_info["representations"] = len(rows)


def measure(study):
    """Average Toleo entry size over the study's Trip tables, from the
    study's plain data (the same whether computed here, in a worker or
    served from the store)."""
    total_bytes = sum(sum(result.usage_bytes.values()) for result in study.values())
    total_pages = sum(result.table_pages for result in study.values())
    avg = total_bytes / max(1, total_pages)
    return {"average_entry_bytes": avg, "data_to_version_ratio": PAGE_BYTES / avg}


def test_table4_measured_toleo_average(benchmark, space_study):
    measured = benchmark.pedantic(measure, args=(space_study,), rounds=1, iterations=1)
    # The measured average must land between the full and flat extremes and
    # beat every Merkle-tree baseline by a wide margin.
    assert 12.0 <= measured["average_entry_bytes"] <= 228.0
    assert measured["data_to_version_ratio"] > 128
    benchmark.extra_info["avg_entry_bytes"] = round(measured["average_entry_bytes"], 2)
    benchmark.extra_info["data_to_version_ratio"] = round(
        measured["data_to_version_ratio"], 1
    )


def test_table4_measured_on_a_store_served_study(benchmark, space_study, served_space_study):
    assert served_space_study is not space_study
    measured = benchmark.pedantic(measure, args=(served_space_study,), rounds=1, iterations=1)
    assert measured == measure(space_study)
