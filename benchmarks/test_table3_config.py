"""Table 3: simulation configuration."""

from repro.experiments import table3


def test_table3_configuration(benchmark):
    rows = benchmark.pedantic(table3.compute, rounds=3, iterations=1)
    components = {row["component"] for row in rows}
    assert {"Processor", "Toleo", "MAC cache", "Stealth overflow buffer"} <= components
    text = table3.render_payload({"rows": rows})
    assert "168 GB" in text and "27-bit stealth" in text
    benchmark.extra_info["components"] = len(rows)
