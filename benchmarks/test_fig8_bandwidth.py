"""Figure 8: memory bandwidth overhead (bytes fetched per instruction)."""

from repro.experiments import fig8


def test_fig8_bytes_per_instruction(benchmark, perf_suite):
    rows = benchmark.pedantic(fig8.compute, args=(perf_suite,), rounds=1, iterations=1)

    toleo_rows = {r["bench"]: r for r in rows if r["mode"] == "Toleo"}
    noprotect_rows = {
        r["bench"]: r for r in rows if r["mode"] == "NoProtect"
    }
    invisimem_rows = {
        r["bench"]: r for r in rows if r["mode"] == "InvisiMem"
    }

    for bench, row in toleo_rows.items():
        # MAC traffic dominates the metadata overhead; stealth traffic is tiny.
        assert row["stealth"] <= row["mac_uv"] or row["mac_uv"] == 0
        # Protection never reduces traffic.
        assert row["total"] >= noprotect_rows[bench]["total"]
        # Only InvisiMem sends dummy packets.
        assert row["dummy"] == 0
        assert invisimem_rows[bench]["dummy"] > 0

    fractions = fig8.stealth_traffic_fraction(rows)
    # Stealth versions add only a few percent of total traffic, even for pr.
    assert all(value < 0.1 for value in fractions.values())

    benchmark.extra_info["stealth_traffic_fraction"] = {
        bench: round(value, 4) for bench, value in fractions.items()
    }
    benchmark.extra_info["toleo_total_bytes_per_instr"] = {
        bench: row["total"] for bench, row in toleo_rows.items()
    }
