"""Figure 9: average memory read-latency breakdown."""

from repro.experiments import fig9


def test_fig9_read_latency_breakdown(benchmark, latency_suite):
    rows = benchmark.pedantic(fig9.compute, args=(latency_suite,), rounds=1, iterations=1)
    by_key = {(r["bench"], r["mode"]): r for r in rows}

    for bench in ("bsw", "memcached", "pr"):
        base = by_key[(bench, "NoProtect")]
        c = by_key[(bench, "C")]
        ci = by_key[(bench, "CI")]
        toleo = by_key[(bench, "Toleo")]
        invisimem = by_key[(bench, "InvisiMem")]

        # Each added guarantee adds (or keeps) latency.
        assert c["total_ns"] >= base["total_ns"]
        assert ci["total_ns"] >= c["total_ns"]
        assert toleo["total_ns"] >= ci["total_ns"]
        # InvisiMem pays the most (double encryption + traffic pressure).
        assert invisimem["total_ns"] >= ci["total_ns"]
        # The components appear only in the modes that enable them.
        assert base["decrypt_ns"] == 0 and base["freshness_ns"] == 0
        assert c["integrity_ns"] == 0
        assert toleo["freshness_ns"] >= 0

    # The freshness latency fraction is largest for the stealth-cache outlier.
    fractions = fig9.freshness_latency_fraction(rows)
    assert fractions["memcached"] > fractions["bsw"]

    benchmark.extra_info["toleo_total_latency_ns"] = {
        bench: by_key[(bench, "Toleo")]["total_ns"]
        for bench in ("bsw", "memcached", "pr")
    }
    benchmark.extra_info["freshness_fraction"] = {
        bench: round(value, 3) for bench, value in fractions.items()
    }
