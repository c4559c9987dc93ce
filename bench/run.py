#!/usr/bin/env python3
"""Layered host-time benchmark of the Toleo reproduction.

Usage::

    python bench/run.py [--workload NAME ...] [--repeats N] [--seed S]
                        [--seconds T] [--trace [0|1]] [--smoke] [--out DIR]
                        [--update-expected]
    python bench/run.py summarize TRACE.jsonl

Without ``--trace`` every repetition of every workload runs cold in a fresh
``python`` process with a fresh store and working directory; the closed loop
starts the next repetition only after the previous one exits.  ``--repeats``
sets the minimum number of repetitions; with ``--seconds`` repetitions
continue while another one still fits the time budget.  The medians of
``wall_s``, ``setup_s`` and ``peak_rss_mb`` are reported with min, max and n,
and every output is checked (see README.md).

``--trace`` (or ``--trace 1``) runs the traced layer walk of
``layers.py`` in this process instead and reports the per-layer metrics;
its spans go to ``<out>/trace-<workload>.jsonl``.  ``summarize`` prints the
per-layer table of such a file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names are
those ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
EXPECTED = BENCH / "expected.json"

sys.path.insert(0, str(ROOT / "src"))

from plan import MODES, PROFILES, SCALE, WORKLOADS, Plan, digest, failed_ops  # noqa: E402
from tracing import format_summary, read_jsonl, summarize  # noqa: E402

#: A repetition that runs longer than this is killed and counted as failed.
REP_TIMEOUT_S = 150

#: Environment that would change what a repetition computes or where it
#: stores it; cleared for every child process.
CLEARED_ENV = ("REPRO_FAULT_PLAN", "REPRO_CACHE_DIR", "REPRO_CODE_FINGERPRINT")


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """Metric name -> unit, per BENCHMARK.json section."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        section: {entry["name"]: entry["unit"] for entry in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


def repeat(body: Callable[[], Any], minimum: int, seconds: float) -> List[Any]:
    """Run ``body`` at least ``minimum`` times, then while another run fits."""
    results: List[Any] = []
    started = time.monotonic()
    longest = 0.0
    while len(results) < minimum or time.monotonic() - started + longest <= seconds:
        began = time.monotonic()
        results.append(body())
        longest = max(longest, time.monotonic() - began)
    return results


def spread(values: List[float]) -> Dict[str, Any]:
    return {
        "value": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


# ---------------------------------------------------------------------------
# Untraced end-to-end runs
# ---------------------------------------------------------------------------


def spawn(plan: Plan, profile: str, seed: int, setup_only: bool = False) -> Optional[dict]:
    """One cold child process; returns its result with ``setup_s``, or None."""
    WORK.mkdir(exist_ok=True)
    cwd = Path(tempfile.mkdtemp(prefix="rep-", dir=WORK))
    out = cwd / "result.json"
    command = [sys.executable, str(BENCH / "rep.py"), plan.name, profile, str(seed), str(out)]
    if setup_only:
        command.append("--setup-only")
    env = {key: value for key, value in os.environ.items() if key not in CLEARED_ENV}
    try:
        spawned_ns = time.monotonic_ns()
        # A session of its own lets the whole process group -- the child and
        # any pool worker it left behind -- be killed in one call.
        child = subprocess.Popen(
            command,
            cwd=cwd,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, stderr = child.communicate(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            stderr = b"timed out\n"
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
        if child.returncode != 0 or not out.exists():
            tail = stderr.decode(errors="replace").strip().splitlines()[-5:]
            print(f"{plan.name}: repetition failed: " + " | ".join(tail), file=sys.stderr)
            return None
        result = json.loads(out.read_text())
        result["setup_s"] = (result["ready_ns"] - spawned_ns) / 1e9
        return result
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


def measure(plan: Plan, profile: str, seed: int, repeats: int, seconds: float,
            reference: Dict[str, str]) -> Dict[str, Any]:
    """Cold repetitions of one workload; end-to-end metrics and the op tally."""
    # Bytecode is compiled once, as an installed package's is, so no
    # repetition pays for compiling (PYTHONDONTWRITEBYTECODE would otherwise
    # make every one of them do so), and the first process warms the page
    # cache without being sampled.
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(BENCH, maxlevels=0, quiet=1)
    spawn(plan, profile, seed, setup_only=True)

    def rep_and_probe() -> tuple:
        # A set-up-only process after every repetition samples set-up time
        # over the same stretch of the run as the repetitions.
        return spawn(plan, profile, seed), spawn(plan, profile, seed, setup_only=True)

    pairs = repeat(rep_and_probe, repeats, seconds)
    outcomes = [rep for rep, _ in pairs]
    reps = [rep for rep in outcomes if rep is not None]
    if not reps:
        raise SystemExit(f"{plan.name}: every repetition failed")
    setups = [run["setup_s"] for pair in pairs for run in pair if run is not None]

    # Seeds without pinned digests are checked for determinism: every
    # repetition must reproduce the first one's outputs.
    check = reference or reps[0]["digests"]
    ops = plan.ops
    attempted = len(outcomes) * len(ops)
    failed = (len(outcomes) - len(reps)) * len(ops)
    for rep in reps:
        failed += len(failed_ops(ops, rep["digests"], check, rep["violations"]))
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "metrics": {
            "wall_s": spread([rep["wall_s"] for rep in reps]),
            "setup_s": spread(setups),
            "peak_rss_mb": spread([rep["peak_rss_mb"] for rep in reps]),
            "failed_frac": {"value": failed / attempted, "n": len(outcomes)},
        },
        "digests": reps[0]["digests"],
    }


# ---------------------------------------------------------------------------
# Traced per-layer runs
# ---------------------------------------------------------------------------


def traced(plan: Plan, seed: int, seconds: float, reference: Dict[str, str],
           out: Path) -> Dict[str, Any]:
    """Traced layer walks of one workload (at least one, then while time allows)."""
    from layers import traced_run

    def one_pass() -> Dict[str, Any]:
        WORK.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="trace-", dir=WORK))
        try:
            return traced_run(plan, seed, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    passes = repeat(one_pass, 1, seconds)
    passes[-1]["tracer"].write_jsonl(out / f"trace-{plan.name}.jsonl")

    first = passes[0]
    writebacks = first["metrics"]["distill.writebacks"]
    if plan.writebacks is not None and (writebacks > 0) != plan.writebacks:
        raise SystemExit(
            f"{plan.name}: workload property broken: {writebacks} writebacks, "
            f"expected {'some' if plan.writebacks else 'none'}"
        )
    ops = sorted(set(plan.ops) | set(first["digests"]))
    check = reference or first["digests"]
    attempted = failed = 0
    for result in passes:
        attempted += len(ops)
        failed += len(failed_ops(ops, result["digests"], check, result["violations"]))

    def medians(key: str) -> Dict[str, Any]:
        return {
            name: spread([result[key][name] for result in passes])
            for name in first[key]
        }

    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "metrics": medians("metrics"),
        "report_metrics": medians("report_metrics"),
        "shares": {name: statistics.median(result["shares"][name] for result in passes)
                   for name in first["shares"]},
        "wall_s": spread([result["wall_s"] for result in passes]),
    }


# ---------------------------------------------------------------------------
# Expected digests
# ---------------------------------------------------------------------------


def load_expected() -> Dict[str, Any]:
    if EXPECTED.exists():
        return json.loads(EXPECTED.read_text())
    return {}


def reference_digests(plan: Plan, seed: int) -> Dict[str, str]:
    """Digests of the undistilled serial reference (``run_suite(distill=False)``)."""
    from repro.sim.engine import run_suite

    suite = run_suite(
        plan.benchmarks, modes=MODES, scale=SCALE, num_accesses=plan.num_accesses, seed=seed
    )
    return {
        f"{name}/{mode}": digest(result.to_dict())
        for name, per_mode in suite.items()
        for mode, result in per_mode.items()
    }


def update_expected(expected: Dict[str, Any], profile: str, plan: Plan, seed: int,
                    digests: Dict[str, str]) -> None:
    if plan.tier is None:
        reference = reference_digests(plan, seed)
        mismatched = sorted(op for op in plan.ops if digests.get(op) != reference.get(op))
        if mismatched:
            raise SystemExit(
                f"{plan.name} seed {seed}: {len(mismatched)} cells differ from the "
                f"undistilled serial reference, e.g. {mismatched[:3]}"
            )
        print(f"{plan.name} seed {seed}: all {len(plan.ops)} cells match "
              "run_suite(distill=False)")
    expected.setdefault(profile, {}).setdefault(plan.name, {})[str(seed)] = dict(
        sorted(digests.items())
    )


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def print_line(workload: str, name: str, unit: str, stats: Dict[str, Any]) -> None:
    extra = ""
    if "min" in stats:
        extra = f"  min {stats['min']:.6g}  max {stats['max']:.6g}"
    print(f"{workload:<16} {name:<42} {stats['value']:>12.6g} {unit:<6}{extra}  n={stats['n']}")


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, default=BENCH / "out")
    parser.add_argument("--update-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return args


def main(argv: List[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if argv[:1] == ["summarize"]:
        if len(argv) != 2:
            print("usage: run.py summarize TRACE.jsonl", file=sys.stderr)
            return 2
        print(format_summary(summarize(read_jsonl(Path(argv[1])))))
        return 0

    args = parse_args(argv)
    profile = "smoke" if args.smoke else "default"
    declared = declared_metrics()
    section = "per_layer" if args.trace else "end_to_end"
    expected = load_expected()
    args.out.mkdir(parents=True, exist_ok=True)

    report: Dict[str, Any] = {}
    for name in args.workload:
        plan = PROFILES[profile][name]
        # Regenerating the pins must not be judged by the pins it replaces.
        pinned = {} if args.update_expected else expected.get(profile, {}).get(name, {}).get(
            str(args.seed)
        )
        if pinned is None:
            print(f"{name}: seed {args.seed} has no pinned digests: digest unchecked "
                  "(presence, invariants and determinism still checked)")
            pinned = {}
        if args.trace:
            result = traced(plan, args.seed, args.seconds, pinned, args.out)
            units = {**declared["per_layer"], **{k: "s" for k in result["report_metrics"]}}
            shown = {**result["metrics"], **result["report_metrics"]}
            print(f"{name}: writeback share of events "
                  f"{result['metrics']['distill.writeback_share']['value']:.4f}")
        else:
            result = measure(plan, profile, args.seed, args.repeats, args.seconds, pinned)
            units = {**declared["end_to_end"], "failed_frac": "ratio"}
            shown = result["metrics"]
            if args.update_expected and result["correct"]:
                update_expected(expected, profile, plan, args.seed, result["digests"])
        for metric, stats in shown.items():
            print_line(name, metric, units.get(metric, ""), stats)
        report[name] = result

    if args.update_expected and not args.trace:
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    (args.out / "results.json").write_text(json.dumps(
        {
            "settings": {"profile": profile, "seed": args.seed, "trace": bool(args.trace),
                         "repeats": args.repeats, "seconds": args.seconds},
            "workloads": {
                name: {key: value for key, value in result.items() if key != "digests"}
                for name, result in report.items()
            },
        },
        indent=1,
        sort_keys=True,
    ) + "\n")

    metrics = {}
    for name, result in report.items():
        prefix = "" if len(report) == 1 else f"{name}."
        for metric, unit in declared[section].items():
            metrics[prefix + metric] = {"value": result["metrics"][metric]["value"], "unit": unit}
    summary = {
        "correct": all(result["correct"] for result in report.values()),
        "attempted": sum(result["attempted"] for result in report.values()),
        "failed": sum(result["failed"] for result in report.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
