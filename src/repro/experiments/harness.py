"""Shared driver that runs the benchmark suite once and feeds every figure.

All the performance figures (6-9) and space figures (10-12) are projections
of the same per-(benchmark, mode) simulation results, so every suite the
harness runs -- :func:`run_benchmarks` for callers with their own flags,
:func:`suite_stage` for an artifact's data stage -- takes one path, backed
by the persistent :class:`repro.sim.store.ResultStore`:

* results are cached under a content hash of the **complete** run
  description -- benchmark names, modes, scale, trace length, seed, and the
  full ``SystemConfig``/``EngineOptions`` -- so runs with different
  configurations can never be served each other's results;
* the store's memory layer preserves object identity within a process, and
  its sqlite-indexed disk layer under ``.repro_cache/`` survives across
  processes, so a second ``repro bench`` (or a CI re-run on a warm cache)
  skips simulation entirely;
* the run is one :class:`repro.sim.shard.RunPlan` and
  :func:`repro.sim.shard.run_plans` runs it, as a one-point sweep: on a miss
  every (benchmark, mode) pair is a shard chain (one full-length shard when
  unsharded) over ``jobs`` worker processes, or in-process at ``jobs=1``,
  with output bit-identical to the serial engine;
* a run reads and writes one store, the process's
  :func:`~repro.sim.store.default_store` -- its suite, event slices,
  verdict tiers and checkpoints, in the parent and in every worker -- so no
  runner here takes a store, except :func:`run_benchmarks`, which installs
  the one it is given as the default for the call.

The experiment modules' ``compute`` functions take a precomputed suite,
study or sweep.  Their data stages get one from :func:`suite_stage`,
:func:`space_stage` or :func:`sweep_stage`, which run it at the artifact's
context and return it with the stamp fields of the run that made it: the
store keys the runner looked it up under, and the modes involved.  No
experiment module builds a store key itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.toleo import ToleoDevice
from repro.core.trip import TripFormat
from repro.report.artifacts import ReproContext
from repro.sim.configs import EVALUATED_MODES
from repro.sim.parallel import parallel_map
from repro.sim.results import SuiteResults
from repro.sim.shard import RunPlan, run_plans
from repro.sim.store import ResultStore, content_key, default_store, set_default_store
from repro.sim.sweep import SweepAxis, SweepResult, run_sweep
from repro.workloads.registry import WORKLOAD_NAMES

#: All twelve paper benchmarks.
DEFAULT_BENCHMARKS: Tuple[str, ...] = tuple(WORKLOAD_NAMES)

#: A small representative subset (one per category) used by the quick
#: benchmark targets so a full run stays under a few seconds.
QUICK_BENCHMARKS: Tuple[str, ...] = ("bsw", "pr", "llama2-gen", "memcached")

#: Process-wide execution defaults, which
#: :func:`repro.report.reproduce.reproduce_artifact` sets around each data
#: stage (``--jobs`` / ``--no-cache``) so every experiment module picks them
#: up without threading the flags through.
_EXECUTION_DEFAULTS: Dict[str, Any] = {"jobs": 1, "use_cache": True}


def configure(
    jobs: Optional[int] = None, use_cache: Optional[bool] = None
) -> Dict[str, Any]:
    """Set process-wide execution defaults; returns the previous values."""
    previous = dict(_EXECUTION_DEFAULTS)
    if jobs is not None:
        _EXECUTION_DEFAULTS["jobs"] = jobs
    if use_cache is not None:
        _EXECUTION_DEFAULTS["use_cache"] = use_cache
    return previous


def execution_defaults() -> Dict[str, Any]:
    """Snapshot of the process-wide execution defaults (``jobs``,
    ``use_cache``) -- for experiment modules that drive runners other than
    :func:`run_benchmarks` (e.g. the sweep-backed figures)."""
    return {"jobs": int(_EXECUTION_DEFAULTS["jobs"]),
            "use_cache": bool(_EXECUTION_DEFAULTS["use_cache"])}


# ---------------------------------------------------------------------------
# Suite results (Figures 6-9, Tables 2/4)
# ---------------------------------------------------------------------------

def run_benchmarks(
    benchmarks: Optional[Sequence[str]] = None,
    modes: Sequence[str] = EVALUATED_MODES,
    scale: float = 0.002,
    num_accesses: int = 60_000,
    seed: int = 1234,
    use_cache: Optional[bool] = None,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
    shard_size: Optional[int] = None,
    stream: Optional[int] = None,
) -> SuiteResults:
    """Run (or fetch from the persistent store) the benchmark suite.

    The run is the default :class:`~repro.sim.shard.RunPlan` for these
    arguments (default config and options).  ``jobs > 1`` distributes the
    (benchmark, mode) chains over worker processes and ``jobs=1`` runs them
    in-process; the merged output is bit-identical to the serial run, so
    the cache key is deliberately independent of ``jobs``.  A failing task
    surfaces as :class:`~repro.sim.faults.TaskFailedError` at every
    ``jobs`` value; a caller with another config, options or supervision
    policy builds the plan and calls :func:`~repro.sim.shard.run_plans`.

    ``store``, when given, is installed as the process's default store for
    the call, and the previous default is restored afterwards, on error
    too.  So that store holds the whole run -- suite, event slices, verdict
    tiers and checkpoints, whether the workers fork or spawn -- and a
    killed run resumes from it.

    Every pair pays the cache hierarchy once per benchmark -- a fast
    pre-pass distills the trace into a mode-independent miss-event stream
    (:mod:`repro.sim.distill`) that each mode replays, through the numpy
    batch kernels of :mod:`repro.sim.replaycore` where the stack supports
    them.

    ``shard_size`` additionally splits every pair's trace into contiguous
    shards (:mod:`repro.sim.shard`), unlocking parallelism *within* a long
    trace; without it each chain is one full-length shard.  The checkpoint
    handoff between shards is bit-identical to the unsharded engine, so it
    shares the unsharded cache key.

    ``stream`` (a window width in accesses) only sets how much memory the
    run uses: below ``num_accesses`` each benchmark is distilled window by
    window into persistent ``events-slice`` store entries that every shard
    task replays from, so neither the trace nor its event stream is ever
    materialised whole (:mod:`repro.sim.shard`); at or beyond it the run is
    one window, as without ``stream``.  Results are bit-identical either
    way, so every ``stream`` shares the same suite cache key.  Without
    ``shard_size`` a windowed run is a single full-length shard -- still
    bounded-memory, since the payload is slices either way.
    """
    plan = RunPlan(
        tuple(benchmarks) if benchmarks is not None else QUICK_BENCHMARKS,
        tuple(modes),
        scale,
        num_accesses,
        seed,
        config=None,
        options=None,
        shard_size=shard_size,
        stream=stream,
    )
    previous = default_store()
    if store is not None:
        set_default_store(store)
    try:
        return _run_plan(plan, jobs, use_cache)
    finally:
        set_default_store(previous)


def _run_plan(
    plan: RunPlan, jobs: Optional[int] = None, use_cache: Optional[bool] = None
) -> SuiteResults:
    """Run one plan through :func:`run_plans`; ``jobs``/``use_cache`` left
    unset take the execution defaults."""
    defaults = execution_defaults()
    (suite,), _ = run_plans(
        [plan],
        jobs=defaults["jobs"] if jobs is None else jobs,
        use_cache=defaults["use_cache"] if use_cache is None else use_cache,
    )
    return suite


def _artifact_plan(ctx: ReproContext, modes: Sequence[str]) -> RunPlan:
    """The run an artifact's context describes (default config and options)."""
    return RunPlan(
        ctx.benchmarks, tuple(modes), ctx.scale, ctx.num_accesses, ctx.seed,
        config=None, options=None, shard_size=None, stream=None,
    )


def suite_stage(
    ctx: ReproContext, modes: Sequence[str] = EVALUATED_MODES
) -> Tuple[SuiteResults, Dict[str, Any]]:
    """The suite at an artifact's context, with its stamp fields.

    The fields are a data stage's ``store_keys`` -- the
    :attr:`~repro.sim.shard.RunPlan.key` :func:`run_plans` looked the suite
    up under -- and ``modes``.  Artifacts at one context and mode set share
    the run and its store entry (Table 2 and figures 6-8).
    """
    plan = _artifact_plan(ctx, modes)
    return _run_plan(plan), {"store_keys": [plan.key], "modes": list(modes)}


def sweep_stage(
    ctx: ReproContext, modes: Sequence[str], axes: Sequence[SweepAxis]
) -> Tuple[SweepResult, Dict[str, Any]]:
    """The sweep over ``axes`` around an artifact's run, with its stamp
    fields: every grid point's :attr:`~repro.sim.shard.RunPlan.key` (each
    shared with an identical ``repro bench``/``repro sweep`` run) and
    ``modes``."""
    defaults = execution_defaults()
    sweep = run_sweep(
        axes,
        _artifact_plan(ctx, modes),
        jobs=defaults["jobs"],
        use_cache=defaults["use_cache"],
    )
    return sweep, {
        "store_keys": [point.key for point in sweep.points],
        "modes": list(modes),
    }


def clear_cache() -> None:
    """Drop cached results from the default store's memory layer; its disk
    entries stay, to serve the next run (``repro store gc`` compacts them)."""
    default_store().clear_memory()


# ---------------------------------------------------------------------------
# Space study (Figures 10-12, Table 4)
# ---------------------------------------------------------------------------

@dataclass
class SpaceStudyResult:
    """Outcome of replaying one benchmark's write stream into a Toleo device.

    Mirrors the paper's "cache-only long simulation" methodology: every write
    in the trace updates the Trip page table directly, which measures the
    steady-state version-representation mix without the detailed performance
    model filtering writes through the data caches.

    The measured quantities (format mix, usage breakdown, timeline, operation
    counters) are plain data, so a study computed in a worker or served from
    the persistent store is the same value as one computed in this process.
    """

    benchmark: str
    footprint_bytes: int
    timeline: List[Dict[str, int]]
    format_counts: Dict[TripFormat, int] = field(default_factory=dict)
    usage_bytes: Dict[str, int] = field(default_factory=dict)
    table_pages: int = 0
    updates: int = 0
    reads: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "footprint_bytes": self.footprint_bytes,
            "timeline": [dict(sample) for sample in self.timeline],
            "format_counts": {
                fmt.value: count for fmt, count in self.format_counts.items()
            },
            "usage_bytes": dict(self.usage_bytes),
            "table_pages": self.table_pages,
            "updates": self.updates,
            "reads": self.reads,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SpaceStudyResult":
        data = dict(payload)
        data["format_counts"] = {
            TripFormat(fmt): count for fmt, count in data["format_counts"].items()
        }
        return cls(**data)


def _encode_space(study: Dict[str, SpaceStudyResult]) -> bytes:
    payload = {name: result.to_dict() for name, result in study.items()}
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _decode_space(payload: bytes) -> Dict[str, SpaceStudyResult]:
    return {
        name: SpaceStudyResult.from_dict(result)
        for name, result in json.loads(payload).items()
    }


#: Usage snapshots a space study's timeline takes over its run (one every
#: ``num_accesses // SPACE_TIMELINE_SAMPLES`` accesses, plus the final
#: state); :func:`space_key` folds it in.
SPACE_TIMELINE_SAMPLES = 40


def _replay_space_study(task: Tuple[str, float, int, int]) -> SpaceStudyResult:
    """Replay one benchmark's write stream into a fresh Toleo device."""
    from repro.crypto.rng import DRangeRng
    from repro.memory.address import block_index_in_page, page_number
    from repro.workloads.registry import get_workload

    name, scale, num_accesses, seed = task
    workload = get_workload(name, scale=scale, seed=seed)
    device = ToleoDevice(config=None, rng=DRangeRng(seed=seed), strict_capacity=False)
    timeline: List[Dict[str, int]] = []
    sample_every = max(1, num_accesses // SPACE_TIMELINE_SAMPLES)
    for i, (address, is_write) in enumerate(workload.access_stream(num_accesses)):
        if i % sample_every == 0:
            timeline.append(device.snapshot_usage())
        if is_write:
            device.update(page_number(address), block_index_in_page(address))
    timeline.append(device.snapshot_usage())
    return SpaceStudyResult(
        benchmark=name,
        footprint_bytes=workload.footprint_bytes,
        timeline=timeline,
        format_counts=device.table.format_counts(),
        usage_bytes=device.usage_breakdown(),
        table_pages=len(device.table),
        updates=device.stats.updates,
        reads=device.stats.reads,
    )


#: Per-tier budgets shared by the space-study artifacts (figures 10-12).
#: Deliberately identical across the three figures so one space study --
#: one store entry -- serves all of them in a ``reproduce-all`` run.
SPACE_STUDY_BUDGETS: Dict[str, Dict[str, Any]] = {
    "quick": {"scale": 0.001, "num_accesses": 60_000},
    "full": {"scale": 0.001, "num_accesses": 150_000},
}


def space_key(
    benchmarks: Sequence[str],
    scale: float = 0.001,
    num_accesses: int = 150_000,
    seed: int = 1234,
) -> str:
    """Persistent-store key of one space study (figures 10-12, table 4)."""
    return content_key(
        "space",
        benchmarks=list(benchmarks),
        scale=scale,
        num_accesses=num_accesses,
        seed=seed,
        timeline_samples=SPACE_TIMELINE_SAMPLES,
    )


def run_space_study(
    benchmarks: Optional[Sequence[str]] = None,
    scale: float = 0.001,
    num_accesses: int = 150_000,
    seed: int = 1234,
) -> Dict[str, SpaceStudyResult]:
    """Replay each benchmark's write stream directly into a Toleo device.

    Runs at the process-wide :func:`execution_defaults`, as
    :func:`sweep_stage` does: ``jobs`` workers, and the study is served
    from (and put in) the default store under its :func:`space_key` unless
    ``use_cache`` is off.
    """
    names = tuple(benchmarks) if benchmarks is not None else QUICK_BENCHMARKS
    defaults = execution_defaults()
    key = space_key(names, scale=scale, num_accesses=num_accesses, seed=seed)
    if defaults["use_cache"]:
        cached = default_store().get(key, decoder=_decode_space)
        if cached is not None:
            return cached

    tasks = [(name, scale, num_accesses, seed) for name in names]
    computed = parallel_map(_replay_space_study, tasks, jobs=defaults["jobs"])
    results = {name: result for name, result in zip(names, computed)}
    if defaults["use_cache"]:
        default_store().put(key, results, encoder=_encode_space)
    return results


def space_stage(
    ctx: ReproContext,
) -> Tuple[Dict[str, SpaceStudyResult], Dict[str, Any]]:
    """The space study at an artifact's context, with its stamp fields: the
    study's :func:`space_key` and the one mode it models, Toleo."""
    run = dict(scale=ctx.scale, num_accesses=ctx.num_accesses, seed=ctx.seed)
    study = run_space_study(ctx.benchmarks, **run)
    return study, {"store_keys": [space_key(ctx.benchmarks, **run)], "modes": ["Toleo"]}


__all__ = [
    "run_benchmarks",
    "run_space_study",
    "suite_stage",
    "space_stage",
    "sweep_stage",
    "clear_cache",
    "configure",
    "execution_defaults",
    "space_key",
    "SPACE_STUDY_BUDGETS",
    "SPACE_TIMELINE_SAMPLES",
    "SuiteResults",
    "SpaceStudyResult",
    "DEFAULT_BENCHMARKS",
    "QUICK_BENCHMARKS",
]
