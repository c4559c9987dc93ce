"""One cold repetition of one workload, run in a fresh process by ``run.py``.

Usage: ``python bench/rep.py WORKLOAD PROFILE SEED RESULT.json [--setup-only]``

The process imports the simulator, opens a fresh result store under its
working directory and records ``time.monotonic_ns()`` -- the system-wide
monotonic clock the parent also reads, so ``ready_ns`` minus the parent's
spawn time is the set-up time.  It then times the workload from the first
call into ``repro`` until the results return, reads its peak RSS after the
worker pool has joined, and writes a digest of every output to RESULT.json.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from plan import JOBS, MODES, PROFILES, SCALE, Plan, cell_violations, digest  # noqa: E402

from repro.experiments.harness import run_benchmarks  # noqa: E402
from repro.report.reproduce import reproduce_all  # noqa: E402
from repro.sim.configs import registered_modes  # noqa: E402
from repro.sim.store import ResultStore, export_code_fingerprint, set_default_store  # noqa: E402


def run(plan: Plan, seed: int, store: ResultStore) -> dict:
    """Run the workload; returns op name -> JSON-ready output."""
    if plan.tier is not None:
        report = reproduce_all(
            plan.tier, out_dir="results", jobs=JOBS, num_accesses=plan.num_accesses, seed=seed
        )
        return {artifact.name: artifact.payload for artifact in report.artifacts}
    suite = run_benchmarks(
        plan.benchmarks,
        modes=MODES,
        scale=SCALE,
        num_accesses=plan.num_accesses,
        seed=seed,
        jobs=JOBS,
        store=store,
        stream=plan.stream,
        shard_size=plan.shard_size,
    )
    return {
        f"{name}/{mode}": result.to_dict()
        for name, per_mode in suite.items()
        for mode, result in per_mode.items()
    }


def main(argv: list) -> int:
    name, profile, seed, out = argv[0], argv[1], int(argv[2]), Path(argv[3])
    plan = PROFILES[profile][name]
    store = ResultStore(Path.cwd() / "store")
    set_default_store(store)
    export_code_fingerprint()
    if registered_modes() != MODES:
        raise SystemExit(f"registered modes changed: {registered_modes()}")
    ready_ns = time.monotonic_ns()
    if "--setup-only" in argv:
        out.write_text(json.dumps({"ready_ns": ready_ns}))
        return 0

    started = time.perf_counter()
    outputs = run(plan, seed, store)
    wall_s = time.perf_counter() - started
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "ready_ns": ready_ns,
        "wall_s": wall_s,
        "peak_rss_mb": peak_kib / 1024,
        "digests": {op: digest(value) for op, value in outputs.items()},
        "violations": [] if plan.tier is not None else cell_violations(plan, outputs),
    }
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
