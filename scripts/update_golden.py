#!/usr/bin/env python3
"""Regenerate the committed golden fixtures from source -- never hand-edit.

Two fixtures pin the simulator's numbers bit-for-bit:

* ``tests/sim/golden_quick_suite.json`` -- the seed engine's quick-suite
  results for the five original modes (``tests/sim/test_path.py`` asserts the
  component pipeline reproduces them exactly);
* ``tests/sim/fixtures/pre_pr3_suite.json`` -- an enum-era persistent-store
  payload (``tests/sim/test_backcompat.py`` asserts it still decodes,
  round-trips and reproduces).

Both files are pure functions of the simulator at their recorded settings,
so they are *regenerated*, never edited: an intentional model change re-runs
this script in the same PR (and says why in the commit message); an
accidental change shows up as a diff.  CI runs the script and fails if
regeneration is not a no-op, which catches both hand-edited fixtures and
fixture-affecting model changes that forgot to regenerate.

Usage:
    python scripts/update_golden.py           # rewrite both fixtures
    python scripts/update_golden.py --check   # exit 1 if anything would change
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

from repro.sim.engine import run_suite
from repro.sim.results import encode_suite

TESTS_SIM = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "sim"
)
GOLDEN_PATH = os.path.join(TESTS_SIM, "golden_quick_suite.json")
PRE_PR3_PATH = os.path.join(TESTS_SIM, "fixtures", "pre_pr3_suite.json")

#: The fields the golden suite pins per (benchmark, mode) result.
GOLDEN_FIELDS = (
    "instructions",
    "llc_misses",
    "writebacks",
    "execution_time_ns",
    "stealth_cache_hit_rate",
    "mac_cache_hit_rate",
)


def _settings(path: str) -> dict:
    """A fixture's run settings are its source of truth -- regeneration
    replays exactly what is recorded, it never invents new parameters."""
    with open(path) as handle:
        return json.load(handle)["settings"]


def _render(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def generate_golden() -> str:
    settings = _settings(GOLDEN_PATH)
    suite = run_suite(
        tuple(settings["benchmarks"]),
        modes=tuple(settings["modes"]),
        scale=settings["scale"],
        num_accesses=settings["num_accesses"],
        seed=settings["seed"],
    )
    results = {
        bench: {
            mode: {
                **{field: getattr(result, field) for field in GOLDEN_FIELDS},
                "traffic": result.traffic.to_dict(),
                "latency": result.latency.to_dict(),
            }
            for mode, result in per_mode.items()
        }
        for bench, per_mode in suite.items()
    }
    return _render({"settings": settings, "results": results})


def generate_pre_pr3() -> str:
    settings = _settings(PRE_PR3_PATH)
    suite = run_suite(
        tuple(settings["benchmarks"]),
        modes=tuple(settings["modes"]),
        scale=settings["scale"],
        num_accesses=settings["num_accesses"],
        seed=settings["seed"],
    )
    # The fixture holds the store payload's JSON, re-rendered like the golden suite.
    return _render({"settings": settings, "suite": json.loads(encode_suite(suite))})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the committed fixtures match regeneration (CI gate)",
    )
    args = parser.parse_args()

    stale = []
    for path, generate in ((GOLDEN_PATH, generate_golden), (PRE_PR3_PATH, generate_pre_pr3)):
        fresh = generate()
        with open(path) as handle:
            committed = handle.read()
        rel = os.path.relpath(path)
        if fresh == committed:
            print(f"up to date: {rel}")
            continue
        stale.append(rel)
        if args.check:
            print(f"STALE: {rel} (regeneration would change it)")
        else:
            with open(path, "w") as handle:
                handle.write(fresh)
            print(f"rewrote: {rel}")

    if args.check and stale:
        print(
            "\ngolden fixtures out of date; run  python scripts/update_golden.py  "
            "and commit the result (explain the model change in the message)"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
