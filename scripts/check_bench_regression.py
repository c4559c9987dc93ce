#!/usr/bin/env python3
"""CI regression gate over the quick benchmark suite.

Runs ``QUICK_BENCHMARKS`` at pinned parameters and compares each protected
mode's slowdown ratio (execution time / NoProtect) against the committed
baseline in ``scripts/bench_baseline.json``.  The simulator is fully
deterministic, so under unchanged modelling the ratios match the baseline
exactly; the tolerance (default 10%) exists to absorb *intentional* model
refinements while catching accidental drift -- a cache sized wrong, a latency
dropped from the critical path, a workload generator change.

Before the baseline comparison the suite runs once through the reference
oracle -- the serial, undistilled ``run_suite`` -- and three times through
the suite pipeline -- unsharded, sharded and streamed -- and every pipeline
run must match the oracle *identically*: the pipeline is exactness-preserving
by contract, so any divergence is an execution-path bug, not drift.

Usage:
    python scripts/check_bench_regression.py            # gate (exit 1 on drift)
    python scripts/check_bench_regression.py --update   # re-record the baseline
    python scripts/check_bench_regression.py --jobs 4   # gate, in parallel

Update the baseline in the same PR as an intentional model change, and say
why in the commit message.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
)

from repro.experiments.harness import QUICK_BENCHMARKS, run_benchmarks
from repro.sim.configs import BASELINE_MODE, EVALUATED_MODES
from repro.sim.engine import run_suite

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_baseline.json")

#: The gated configurations: the paper's Figure 6 set plus the simulated
#: counter-tree and Client-SGX baseline modes.
GATED_MODES = EVALUATED_MODES + ("CIF-Tree", "Client-SGX")

#: Pinned run parameters; changing any of these requires --update.  The
#: shard width forces 4 shards per (benchmark, mode) pair in the sharded
#: pass, exercising at least 3 checkpoint handoffs per chain.
SETTINGS = {
    "scale": 0.002,
    "num_accesses": 12_000,
    "seed": 1234,
    "modes": list(GATED_MODES),
    "shard_size": 3_000,
    "stream": 3_000,
}


def _slowdowns(suite: dict) -> dict:
    return {
        bench: {
            mode: round(result.slowdown, 6)
            for mode, result in per_mode.items()
            if mode != BASELINE_MODE
        }
        for bench, per_mode in suite.items()
    }


def oracle() -> dict:
    """Slowdown ratios from the serial, undistilled reference engine."""
    suite = run_suite(
        QUICK_BENCHMARKS,
        modes=GATED_MODES,
        scale=SETTINGS["scale"],
        num_accesses=SETTINGS["num_accesses"],
        seed=SETTINGS["seed"],
    )
    return _slowdowns(suite)


def measure(jobs: int, shard_size: int = 0, stream: int = 0) -> dict:
    """Slowdown ratios from the suite pipeline, bypassing the result store."""
    suite = run_benchmarks(
        QUICK_BENCHMARKS,
        modes=GATED_MODES,
        scale=SETTINGS["scale"],
        num_accesses=SETTINGS["num_accesses"],
        seed=SETTINGS["seed"],
        use_cache=False,
        jobs=jobs,
        shard_size=shard_size or None,
        stream=stream or None,
    )
    return _slowdowns(suite)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update", action="store_true", help="re-record the baseline file"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="maximum allowed relative drift per ratio (default 0.10 = 10%%)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=0, help="worker processes (0 = one per CPU)"
    )
    parser.add_argument("--baseline", default=BASELINE_PATH)
    args = parser.parse_args()

    current = oracle()
    pipeline = measure(args.jobs)
    sharded = measure(args.jobs, shard_size=SETTINGS["shard_size"])
    streamed = measure(args.jobs, stream=SETTINGS["stream"])

    # The unsharded, sharded (exact checkpoint handoff) and streamed
    # (bounded-memory windowed event slices) pipeline runs must all match
    # the oracle *identically* -- any difference is an execution-path bug,
    # gated before the baseline comparison even runs.
    for label, variant in (
        ("pipeline", pipeline),
        ("sharded", sharded),
        ("streamed", streamed),
    ):
        if variant != current:
            print(f"REGRESSION GATE FAILED: {label} run diverged from the oracle")
            for bench in sorted(set(current) | set(variant)):
                for mode in sorted(set(current.get(bench, {})) | set(variant.get(bench, {}))):
                    a = current.get(bench, {}).get(mode)
                    b = variant.get(bench, {}).get(mode)
                    if a != b:
                        print(f"  - {bench}/{mode}: oracle {a} vs {label} {b}")
            return 1

    if args.update:
        with open(args.baseline, "w") as handle:
            json.dump(
                {
                    "settings": SETTINGS,
                    "slowdowns": current,
                    "sharded_slowdowns": sharded,
                    "streamed_slowdowns": streamed,
                },
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    if not os.path.exists(args.baseline):
        print(f"error: baseline {args.baseline} missing; run with --update first")
        return 2
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    if baseline.get("settings") != SETTINGS:
        print(
            "error: baseline was recorded with different settings "
            f"({baseline.get('settings')} vs {SETTINGS}); run with --update"
        )
        return 2

    failures = []
    sections = [
        ("slowdowns", current),
        ("sharded_slowdowns", sharded),
        ("streamed_slowdowns", streamed),
    ]
    for section, measured in sections:
        recorded = baseline.get(section)
        if recorded is None:
            failures.append(f"baseline has no {section!r} section; run with --update")
            continue
        print(f"[{section}]")
        print(f"{'benchmark':<12} {'mode':<10} {'baseline':>9} {'current':>9} {'drift':>8}")
        for bench in sorted(set(recorded) | set(measured)):
            base_modes = recorded.get(bench, {})
            cur_modes = measured.get(bench, {})
            for mode in sorted(set(base_modes) | set(cur_modes)):
                base = base_modes.get(mode)
                cur = cur_modes.get(mode)
                if base is None or cur is None:
                    failures.append(
                        f"{section}: {bench}/{mode}: present in only one of baseline/current"
                    )
                    continue
                drift = (cur - base) / base
                flag = ""
                if abs(drift) > args.tolerance:
                    failures.append(
                        f"{section}: {bench}/{mode}: slowdown {base:.4f} -> {cur:.4f} "
                        f"({drift:+.1%} > ±{args.tolerance:.0%})"
                    )
                    flag = "  <-- FAIL"
                print(f"{bench:<12} {mode:<10} {base:>9.4f} {cur:>9.4f} {drift:>+8.2%}{flag}")
        print()

    if failures:
        print(f"\nREGRESSION GATE FAILED ({len(failures)} ratios outside tolerance):")
        for failure in failures:
            print(f"  - {failure}")
        print("\nIf the change is an intentional model refinement, re-record with")
        print("  python scripts/check_bench_regression.py --update")
        return 1
    print(f"\nregression gate passed: all ratios within ±{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
