"""Command-line interface for regenerating the paper's tables and figures.

Installed as the ``repro`` console script (``toleo-repro`` is an alias)::

    repro reproduce-all                  # every figure/table + results/index.html
    repro reproduce-all --full --jobs 4  # all twelve benchmarks, paper-scale
    repro reproduce-all --from-store     # re-render from precomputed data only
    repro list                           # experiments, benchmarks and modes
    repro table1                         # render one experiment
    repro fig6 --benchmarks bsw pr --accesses 20000
    repro all --out results/ --jobs 4    # render everything, in parallel
    repro bench --jobs 4                 # run the quick suite, print summary
    repro bench --modes Toleo CIF-Tree   # restrict the simulated modes
    repro bench --no-cache               # force re-simulation
    repro bench --accesses 10000000 --shard-size 250000 --jobs 0
                                         # tera-scale traces: sharded replay
    repro bench --accesses 10000000 --shard-size 250000 --stream 250000
                                         # ...without ever capturing the trace
    repro sweep --param options.memory_level_parallelism=1,4,8 \
                --param scale=0.001,0.002 --jobs 4
    repro store stats                    # summarise the persistent store index
    repro store ls --kind events         # list cached entries by kind/prefix
    repro store gc                       # drop stale entries, vacuum the index

``reproduce-all`` rebuilds every registered artifact (fig6-fig12, table1-4,
the security and freshness-scaling analyses, the design ablations) through
the declarative registry in :mod:`repro.report`, writes each one to
``results/`` with a provenance stamp (store keys, source fingerprint, seed,
mode labels, git describe) and assembles the self-contained
``results/index.html`` report; see ``docs/reproducing.md``.

Each experiment name maps to the corresponding module in
:mod:`repro.experiments`; rendering uses the same code paths as the pytest
benchmark harness, just with user-selectable benchmark subsets and trace
lengths.  ``--jobs N`` fans the independent (benchmark, mode) simulations
over N worker processes (0 = one per CPU); results are bit-identical to a
serial run.  Completed runs persist in ``.repro_cache/`` and are reused
across invocations unless ``--no-cache`` is given.  ``sweep`` expands
``--param key=v1,v2,...`` axes into a cartesian grid and runs every point
through the same pipeline and persistent store.  ``--shard-size N``
additionally splits each pair's trace into N-access shards pipelined across
the workers (bit-identical checkpoint handoff).  Every multiprocess run goes
through one supervised worker pool; ``--on-failure``, ``--task-deadline``
and ``--task-retries`` only change how a failed task is handled (by default
the first failure aborts the run with exit code 3).  Runs pay the cache
hierarchy once per benchmark -- a fast pre-pass distills the trace into a
mode-independent miss-event stream that every mode replays from, through
numpy batch kernels where the mode's components allow (bit-identical
results either way; the replay loop follows from the mode, the event
window and the installed packages, never from a flag).  ``--stream W`` only
sets how much memory a run uses: below the access count, the trace is never
materialised whole -- it is generated and distilled W accesses at a time
into persistent event-slice store entries that the shard tasks replay from,
so peak memory is bounded by the window while the results (and the store
keys) stay identical; at or beyond it the run is one window, as without
the flag.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments import (
    ablations,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    freshness_scaling,
    harness,
    security62,
    table1,
    table2,
    table3,
    table4,
)
from repro.experiments.harness import DEFAULT_BENCHMARKS, QUICK_BENCHMARKS
from repro.experiments.report import format_table
from repro.sim.configs import (
    BASELINE_MODE,
    EVALUATED_MODES,
    UnknownModeError,
    mode_parameters,
    registered_modes,
    resolve_mode,
)
from repro.sim.engine import ordered_modes
from repro.sim.faults import (
    FailureManifest,
    FaultPlan,
    SupervisionPolicy,
    TaskFailedError,
)
from repro.sim.shard import RunPlan, run_plans
from repro.sim.store import default_store
from repro.sim.sweep import SweepAxisError, parse_axis, run_sweep
from repro.workloads.registry import BENCHMARKS, UnknownBenchmarkError


def _simple(render: Callable[[], str]) -> Callable[..., str]:
    """Wrap a render function that takes no benchmark arguments."""

    def run(benchmarks=None, scale=None, num_accesses=None) -> str:
        return render()

    return run


#: Experiment name -> callable(benchmarks, scale, num_accesses) -> text.
EXPERIMENTS: Dict[str, Callable[..., str]] = {
    "table1": _simple(table1.render),
    "table2": lambda benchmarks, scale, num_accesses: table2.render(
        benchmarks, scale=scale, num_accesses=num_accesses
    ),
    "table3": _simple(table3.render),
    "table4": lambda benchmarks, scale, num_accesses: table4.render(
        benchmarks, scale=scale, num_accesses=num_accesses
    ),
    "fig6": lambda benchmarks, scale, num_accesses: fig6.render(
        benchmarks, scale=scale, num_accesses=num_accesses
    ),
    "fig7": lambda benchmarks, scale, num_accesses: fig7.render(
        benchmarks, scale=scale, num_accesses=num_accesses
    ),
    "fig8": lambda benchmarks, scale, num_accesses: fig8.render(
        benchmarks, scale=scale, num_accesses=num_accesses
    ),
    "fig9": lambda benchmarks, scale, num_accesses: fig9.render(
        benchmarks, scale=scale, num_accesses=num_accesses
    ),
    "fig10": lambda benchmarks, scale, num_accesses: fig10.render(
        benchmarks, scale=scale, num_accesses=num_accesses
    ),
    "fig11": lambda benchmarks, scale, num_accesses: fig11.render(
        benchmarks, scale=scale, num_accesses=num_accesses
    ),
    "fig12": lambda benchmarks, scale, num_accesses: fig12.render(
        benchmarks, scale=scale, num_accesses=num_accesses
    ),
    "fresh-scale": lambda benchmarks, scale, num_accesses: freshness_scaling.render(
        benchmarks, scale=scale, num_accesses=num_accesses
    ),
    "sec62": _simple(security62.render),
    "ablations": lambda benchmarks, scale, num_accesses: ablations.render(
        benchmarks, scale=scale, num_accesses=num_accesses
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the Toleo paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS)
        + ["all", "bench", "sweep", "list", "store", "reproduce-all"],
        help="experiment to render, 'reproduce-all' for every registered "
        "artifact plus the provenance-stamped HTML report, 'bench' for a raw "
        "benchmark-suite run, 'sweep' for a parameter-grid run, 'all' for "
        "every experiment, 'store' to inspect or compact the persistent "
        "result store, or 'list' for the available experiments, benchmarks "
        "and modes",
    )
    parser.add_argument(
        "store_action",
        nargs="?",
        choices=["stats", "ls", "gc"],
        help="with 'store': 'stats' summarises the index, 'ls' lists entries "
        "(--kind/--prefix filter), 'gc' drops entries whose source "
        "fingerprint no longer matches and compacts the index "
        "(default: stats)",
    )
    parser.add_argument(
        "--kind",
        default=None,
        metavar="KIND",
        help="store ls only: restrict to one entry kind "
        "(suite, events, mactier, space, ...)",
    )
    parser.add_argument(
        "--prefix",
        default=None,
        metavar="PREFIX",
        help="store ls only: restrict to keys starting with PREFIX",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        default=None,
        metavar="NAME",
        help="benchmark subset (default: a quick representative subset; "
        "use --full for all twelve)",
    )
    parser.add_argument(
        "--modes",
        nargs="+",
        default=None,
        metavar="MODE",
        help="protection modes for bench/sweep runs, by paper label "
        "(e.g. CI Toleo CIF-Tree Client-SGX); default: the Figure 6 set",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=None,
        metavar="KEY=V1,V2,...",
        help="sweep axis (repeatable): scale, accesses, seed, "
        "options.<field> or config.<field>",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run all twelve paper benchmarks (for reproduce-all: the full "
        "tier, paper-scale trace lengths)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reproduce-all only: the quick tier -- representative "
        "4-benchmark subset, short traces (this is the default)",
    )
    parser.add_argument(
        "--from-store",
        action="store_true",
        help="reproduce-all only: skip every data stage and re-render the "
        "artifacts from the precomputed results/data/*.json files "
        "(byte-identical output, zero simulation)",
    )
    parser.add_argument("--scale", type=float, default=0.002, help="footprint scale")
    parser.add_argument(
        "--accesses",
        type=int,
        default=None,
        metavar="N",
        help="trace length per benchmark (default: 20000; for reproduce-all "
        "the tier budgets decide unless this is given)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write rendered text files to DIR "
        "(reproduce-all default: results/)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the simulations (0 = one per CPU; "
        "results are bit-identical to a serial run)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the persistent result store (.repro_cache/)",
    )
    parser.add_argument(
        "--seed", type=int, default=1234, help="trace RNG seed (bench/sweep only)"
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        default=None,
        metavar="N",
        help="split each (benchmark, mode) trace into N-access shards "
        "pipelined across the workers; the default checkpoint handoff is "
        "bit-identical to an unsharded run (bench/sweep only)",
    )
    parser.add_argument(
        "--stream",
        type=int,
        default=None,
        metavar="W",
        help="bounded-memory streamed ingestion: below the access count, "
        "distill the trace window by window (W accesses per window) into "
        "persistent event-slice entries that the shard tasks replay from, "
        "never materialising it whole; results and store entries are those "
        "of a run without the flag (bench/sweep only)",
    )
    parser.add_argument(
        "--on-failure",
        choices=["raise", "degrade"],
        default=None,
        help="failure policy of the worker pool (bench/sweep only): "
        "'raise' aborts on the first quarantined task, 'degrade' drops the "
        "affected benchmarks and reports them in the failure manifest; "
        "either one also turns on the default deadline and retries "
        "(without it, the first failure aborts the run)",
    )
    parser.add_argument(
        "--task-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock deadline under supervised execution: an "
        "overdue worker is killed and its task retried (bench/sweep only)",
    )
    parser.add_argument(
        "--task-retries",
        type=int,
        default=None,
        metavar="N",
        help="retry budget per task before quarantine under supervised "
        "execution (bench/sweep only; default 2)",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="write the machine-readable failure manifest (retry count, "
        "quarantined tasks) to PATH after a bench/sweep run",
    )
    parser.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="resume an interrupted sharded bench/sweep run from its "
        "persisted chain checkpoints (--no-resume replays every chain "
        "from the start)",
    )
    return parser


def _resolve_benchmarks(args: argparse.Namespace) -> Sequence[str]:
    if args.benchmarks:
        return tuple(args.benchmarks)
    if args.full:
        return DEFAULT_BENCHMARKS
    return QUICK_BENCHMARKS


def _supervision_policy(args: argparse.Namespace) -> Optional[SupervisionPolicy]:
    """Build an explicit :class:`SupervisionPolicy` from the CLI flags.

    Returns ``None`` when no supervision flag was given -- the execution
    layer still self-arms when a fault plan is active in the environment.
    """
    overrides: Dict[str, object] = {}
    if args.task_deadline is not None:
        overrides["deadline"] = args.task_deadline
    if args.task_retries is not None:
        overrides["retries"] = args.task_retries
    if args.on_failure is not None:
        overrides["on_failure"] = args.on_failure
    if not overrides:
        return None
    return SupervisionPolicy(**overrides)


def _supervision_footer(
    manifest: FailureManifest, policy: Optional[SupervisionPolicy]
) -> str:
    """One summary line when supervision did (or could have done) anything."""
    if policy is None and not manifest and FaultPlan.active() is None:
        return ""
    return (
        f"supervision: {manifest.retries} retries, "
        f"{manifest.quarantined} quarantined\n"
    )


def _resolve_modes(args: argparse.Namespace) -> Tuple[str, ...]:
    """Map ``--modes`` names to canonical registry labels (UnknownModeError
    on typos, whose message lists every registered label)."""
    if not args.modes:
        return EVALUATED_MODES
    return tuple(resolve_mode(name) for name in args.modes)


def _run_plan(args: argparse.Namespace) -> RunPlan:
    """The one run the bench/sweep flags describe (a sweep's base point)."""
    return RunPlan(
        tuple(_resolve_benchmarks(args)),
        _resolve_modes(args),
        args.scale,
        args.accesses,
        args.seed,
        config=None,
        options=None,
        shard_size=args.shard_size,
        stream=args.stream,
    )


def _replay_rate(plans: Sequence[RunPlan], served: Sequence[bool], elapsed: float) -> str:
    """Measured replay throughput of a bench or sweep run, for its footer.

    Every (benchmark, mode) pair of a simulated plan replays its accesses,
    the NoProtect baseline included; a plan served from the store replays
    nothing, so a run that simulated nothing reports that instead of a rate.
    """
    replayed = sum(
        len(plan.benchmarks) * len(ordered_modes(plan.modes)) * plan.num_accesses
        for plan, cached in zip(plans, served)
        if not cached
    )
    if not replayed:
        return "served from the store"
    return f"{replayed / elapsed:,.0f} accesses/s"


def run_list() -> str:
    """Everything the CLI can run: experiments, benchmarks and modes."""
    lines: List[str] = ["experiments:"]
    for name in sorted(EXPERIMENTS) + ["bench", "sweep", "store", "reproduce-all"]:
        lines.append(f"  {name}")
    lines.append("")
    lines.append("benchmarks (--benchmarks):")
    for name, info in BENCHMARKS.items():
        lines.append(
            f"  {name:<12} {info.suite}/{info.category}, "
            f"RSS {info.rss_gb:.1f} GB, LLC MPKI {info.llc_mpki:.2f}"
        )
    lines.append("")
    lines.append("protection modes (--modes):")
    for label in registered_modes():
        params = mode_parameters(label)
        lines.append(f"  {label:<12} {params.description}")
    return "\n".join(lines) + "\n"


def run_store(args: argparse.Namespace) -> str:
    """Inspect or compact the persistent result store (``repro store ...``).

    The sqlite index makes "what do I have cached?" a query instead of a
    directory walk: ``stats`` aggregates it, ``ls`` lists entries
    (``--kind``/``--prefix`` filter), ``gc`` drops entries whose recorded
    source fingerprint no longer matches the tree and vacuums the index.
    """
    store = default_store()
    action = args.store_action or "stats"

    if action == "gc":
        result = store.gc()
        return (
            f"dropped {result.dropped_entries} stale entries and "
            f"{result.dropped_blobs} orphaned blobs; "
            f"{result.kept_entries} entries kept ({store.root})\n"
        )

    if action == "ls":
        entries = store.query(kind=args.kind, prefix=args.prefix)
        lines = [
            f"{entry.key}  {entry.size:>10}  "
            f"{'inline' if entry.inline else 'blob':<6}"
            f"{'  stale' if entry.stale else ''}"
            for entry in entries
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    stats = store.stats()
    lines = [
        f"store root      {stats['root']}",
        f"entries         {stats['entries']} "
        f"({stats['inline_entries']} inline, {stats['blob_entries']} blob)",
        f"payload bytes   {stats['bytes']:,}",
        f"index bytes     {stats['index_bytes']:,}",
        f"stale entries   {stats['stale_entries']}",
    ]
    for kind in sorted(stats["kinds"]):
        info = stats["kinds"][kind]
        lines.append(
            f"  {kind:<10} {info['entries']:>5} entries  {info['bytes']:>12,} bytes"
        )
    return "\n".join(lines) + "\n"


def run_bench(args: argparse.Namespace) -> str:
    """Run the benchmark suite and render a per-(benchmark, mode) summary.

    This is the raw substrate the figures are projections of: one row per
    benchmark, one slowdown column per protected mode, plus wall-clock and
    cache telemetry so speedups (``--jobs``) and store hits are visible.
    """
    plan = _run_plan(args)
    policy = _supervision_policy(args)
    manifest = FailureManifest()
    started = time.perf_counter()
    try:
        (suite,), served = run_plans(
            [plan],
            jobs=args.jobs,
            policy=policy,
            manifest=manifest,
            resume=args.resume,
            use_cache=not args.no_cache,
        )
    finally:
        # Written even when a quarantined task aborts the run (on-failure
        # raise): the manifest is how the caller learns what was retried.
        if args.manifest:
            manifest.save(args.manifest)
    elapsed = time.perf_counter() - started

    rows: List[Dict[str, object]] = []
    for bench, per_mode in suite.items():
        row: Dict[str, object] = {"bench": bench}
        for mode in per_mode:
            row[mode] = f"{per_mode[mode].slowdown:.3f}x"
        rows.append(row)
    table = format_table(rows, title="Benchmark suite: slowdown vs NoProtect")
    suite_modes = next(iter(suite.values()), {})
    sharding = ""
    if args.shard_size is not None:
        sharding = f", shard {args.shard_size} (exact checkpoint handoff)"
    if args.stream is not None:
        slices = "windowed event slices" if args.stream < args.accesses else "one window"
        sharding += f", stream {args.stream} ({slices})"
    footer = (
        f"\n{len(suite)} benchmarks x {len(suite_modes)} modes, "
        f"{args.accesses} accesses @ scale {args.scale}, seed {args.seed}\n"
        f"wall time {elapsed:.2f}s, {_replay_rate([plan], served, elapsed)} "
        f"(jobs={args.jobs}, cache={'off' if args.no_cache else 'on'}{sharding})\n"
    )
    footer += _supervision_footer(manifest, policy)
    return table + footer


def run_sweep_command(args: argparse.Namespace) -> str:
    """Expand the ``--param`` axes into a grid and run every point."""
    if not args.param:
        raise SweepAxisError(
            "sweep needs at least one --param axis, "
            "e.g. --param options.memory_level_parallelism=1,4,8"
        )
    axes = [parse_axis(spec) for spec in args.param]
    plan = _run_plan(args)
    policy = _supervision_policy(args)
    manifest = FailureManifest()

    started = time.perf_counter()
    try:
        result = run_sweep(
            axes,
            plan,
            jobs=args.jobs,
            use_cache=not args.no_cache,
            policy=policy,
            manifest=manifest,
            resume=args.resume,
        )
    finally:
        if args.manifest:
            manifest.save(args.manifest)
    elapsed = time.perf_counter() - started

    protected = [m for m in result.modes if m != BASELINE_MODE]
    rows: List[Dict[str, object]] = []
    for point, suite in result:
        for bench, per_mode in suite.items():
            row: Dict[str, object] = {"point": point.label, "bench": bench}
            for mode in protected:
                if mode in per_mode:
                    row[mode] = f"{per_mode[mode].slowdown:.3f}x"
            rows.append(row)
    table = format_table(
        rows,
        columns=["point", "bench"] + list(protected),
        title="Parameter sweep: slowdown vs NoProtect",
    )
    cached_points = len(result.points) - result.simulated_points
    rate = _replay_rate(result.points, result.served_from_store, elapsed)
    footer = (
        f"\n{len(result.points)} grid points x {len(result.benchmarks)} benchmarks "
        f"x {len(result.modes)} modes ({result.simulated_points} simulated, "
        f"{cached_points} from store)\n"
        f"wall time {elapsed:.2f}s, {rate} "
        f"(jobs={args.jobs}, cache={'off' if args.no_cache else 'on'})\n"
    )
    # The queryable index replaces the old "glob the cache dir" instinct:
    # one line of provenance about what this sweep can be re-served from.
    store = default_store()
    indexed = store.query(kind="suite")
    footer += (
        f"store index: {len(indexed)} suite entries"
        f" ({sum(e.size for e in indexed):,} bytes) in {store.root}\n"
    )
    footer += _supervision_footer(manifest, policy)
    return table + footer


def run_reproduce_all(args: argparse.Namespace) -> int:
    """Rebuild every registered artifact and the HTML report."""
    # The orchestrator imports repro.experiments (whose modules import the
    # registry); importing it lazily keeps `repro fig6` startup unchanged.
    from repro.report.reproduce import ReproductionError, reproduce_all

    tier = "full" if args.full else "quick"
    started = time.perf_counter()
    try:
        report = reproduce_all(
            tier=tier,
            out_dir=args.out if args.out is not None else "results",
            jobs=args.jobs,
            use_cache=not args.no_cache,
            from_store=args.from_store,
            benchmarks=tuple(args.benchmarks) if args.benchmarks else None,
            num_accesses=args.accesses,
            seed=args.seed,
            progress=print,
        )
    except ReproductionError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    print(
        f"\n{len(report.artifacts)} artifacts ({tier} tier"
        f"{', from store' if args.from_store else ''}) in {elapsed:.1f}s"
        f" -> open {report.index_path}"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.shard_size is not None and args.shard_size <= 0:
        parser.error(f"--shard-size must be positive, got {args.shard_size}")
    if args.stream is not None and args.stream <= 0:
        parser.error(f"--stream must be positive, got {args.stream}")
    if args.stream is not None and args.experiment not in ("bench", "sweep"):
        parser.error("--stream only applies to bench and sweep")
    if args.task_deadline is not None and args.task_deadline <= 0:
        parser.error(f"--task-deadline must be positive, got {args.task_deadline}")
    if args.task_retries is not None and args.task_retries < 0:
        parser.error(f"--task-retries must be non-negative, got {args.task_retries}")
    supervision_flags = (
        args.on_failure is not None
        or args.task_deadline is not None
        or args.task_retries is not None
        or args.manifest is not None
    )
    if supervision_flags and args.experiment not in ("bench", "sweep"):
        parser.error(
            "--on-failure/--task-deadline/--task-retries/--manifest only "
            "apply to bench and sweep"
        )
    if not args.resume and args.experiment not in ("bench", "sweep"):
        parser.error("--no-resume only applies to bench and sweep")
    if args.quick and args.full:
        parser.error("--quick and --full are mutually exclusive")
    if args.from_store and args.experiment != "reproduce-all":
        parser.error("--from-store only applies to reproduce-all")
    if args.store_action is not None and args.experiment != "store":
        parser.error(
            f"'{args.store_action}' only applies to 'repro store', "
            f"not '{args.experiment}'"
        )
    if (args.kind is not None or args.prefix is not None) and args.experiment != "store":
        parser.error("--kind/--prefix only apply to 'repro store ls'")

    if args.experiment == "store":
        print(run_store(args), end="")
        return 0

    if args.experiment == "reproduce-all":
        return run_reproduce_all(args)

    # Legacy single-experiment/bench/sweep paths keep their historical
    # default trace length; reproduce-all leaves None for the tier budgets.
    if args.accesses is None:
        args.accesses = 20_000

    if args.experiment == "list":
        print(run_list())
        return 0

    if args.experiment in ("bench", "sweep"):
        runner = run_bench if args.experiment == "bench" else run_sweep_command
        try:
            print(runner(args))
        except (UnknownBenchmarkError, UnknownModeError, SweepAxisError) as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
        except TaskFailedError as error:
            # on-failure=raise: a task exhausted its retries.  The manifest
            # (if requested) was already written by the runner's finally.
            print(f"error: {error}", file=sys.stderr)
            return 3
        return 0

    benchmarks = _resolve_benchmarks(args)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]

    if args.out:
        os.makedirs(args.out, exist_ok=True)

    # The figure renderers call the harness themselves; publish the CLI's
    # execution flags as the harness defaults for the duration of the run.
    previous = harness.configure(jobs=args.jobs, use_cache=not args.no_cache)
    try:
        for name in names:
            text = EXPERIMENTS[name](benchmarks, args.scale, args.accesses)
            if args.out:
                path = os.path.join(args.out, f"{name}.txt")
                with open(path, "w") as handle:
                    handle.write(text)
                print(f"wrote {path}")
            else:
                print(text)
    except (UnknownBenchmarkError, UnknownModeError) as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    finally:
        harness.configure(**previous)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
