"""The suite pipeline: every (benchmark, mode) pair runs as a shard chain.

This module is the one suite runner.  A run is described once, as a
:class:`RunPlan`, and :func:`run_plans` runs a list of them -- one for
``repro bench``, one per grid point for a sweep -- serving cached plans from
the store and pipelining every other plan's chains over one pool.  A run
splits into contiguous shards and executes each (benchmark, mode) pair as a
*chain* of shard windows, so 10M+-access traces spread across the pool
instead of monopolising one worker; an unsharded run is simply a chain of
one full-length shard.  Every chain step is a :class:`ShardTask` replayed
by :func:`run_shard_step` from the run's distilled event slices -- one
slice covering the whole run unless a stream window narrows them -- and the
replay loop is picked from what the worker observes, never from a flag.

Exactness is the design center, and there is one discipline: **checkpointed
handoff**.  Shard k starts from the serialized :class:`EngineState` produced
by shard k-1's tail, so by induction the state after shard k equals the
serial engine's state after the same prefix -- the merged result is
*bit-identical* to an unsharded run (the accumulators travel inside the
checkpoint; nothing is ever re-summed, so even float non-associativity
cannot introduce drift).  Chains are sequential internally but independent
of each other, and :func:`repro.sim.parallel.pipelined_map` keeps every
pair's current shard on a worker simultaneously (pipelined handoff).  Tasks
carry only the slice width; workers fetch the slices from the store.

**Exactness contract.**  Sharding is an execution strategy, not a model
change: for every registered mode, at every shard width, the merged result
is *bit-identical* -- every counter, floats included -- to the serial
unsharded engine (pinned by the strategy property in
``tests/sim/test_strategy_property.py`` and the committed golden fixtures).  Because the results are identical, sharded and unsharded
runs **share persistent-store keys**: the shard width never appears in a
result's key, a cached unsharded suite serves a sharded request and vice
versa, and ``repro reproduce-all`` provenance stamps are
strategy-independent.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.sim.configs import ModeParameters, mode_parameters
from repro.sim.engine import (
    EngineOptions,
    EngineState,
    SimulationEngine,
    ordered_modes,
)
from repro.sim.faults import FailureManifest, SupervisionPolicy, TaskFailure
from repro.sim.parallel import pipelined_map, stitch_suite
from repro.sim.results import (
    SuiteResults,
    decode_suite,
    encode_suite,
    suite_key,
)
from repro.sim.store import ResultStore, content_key, default_store
from repro.workloads.base import Trace


@dataclass(frozen=True)
class ShardSpec:
    """How to shard a run: the shard width in accesses."""

    shard_size: int

    def __post_init__(self) -> None:
        if self.shard_size <= 0:
            raise ValueError(f"shard_size must be positive, got {self.shard_size}")


def shard_bounds(total: int, shard_size: int) -> List[Tuple[int, int]]:
    """Contiguous half-open windows covering ``[0, total)``.

    The final window absorbs the remainder; ``shard_size >= total`` yields a
    single full-length window.  Mirrors :meth:`Trace.shards`.
    """
    if total <= 0:
        raise ValueError(f"total access count must be positive, got {total}")
    if shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    return [
        (start, min(start + shard_size, total)) for start in range(0, total, shard_size)
    ]


@dataclass(frozen=True)
class RunPlan:
    """One suite run, described once and passed whole through the pipeline.

    The identity fields -- ``benchmarks`` to ``options`` -- fix the results,
    and :attr:`key` is their :func:`~repro.sim.results.suite_key`.
    ``shard_size`` (accesses per shard; ``None`` is one full-length shard)
    and ``stream`` (the event-slice window; ``None`` is one window) only
    choose how much parallelism and memory the run uses, and ``overrides``
    records the sweep-axis values a grid point was resolved from.  None of
    those three enters the key: every strategy is bit-identical, so they
    all share one store entry.
    """

    benchmarks: Tuple[str, ...]
    modes: Tuple[str, ...]
    scale: float
    num_accesses: int
    seed: int
    config: Optional[SystemConfig]
    options: Optional[EngineOptions]
    shard_size: Optional[int]
    stream: Optional[int]
    overrides: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.shard_size is not None and self.shard_size <= 0:
            raise ValueError(f"shard_size must be positive, got {self.shard_size}")
        if self.stream is not None and self.stream <= 0:
            raise ValueError(f"stream window must be positive, got {self.stream}")

    @property
    def key(self) -> str:
        """The persistent-store key of this run's suite."""
        return suite_key(
            self.benchmarks,
            self.modes,
            self.scale,
            self.num_accesses,
            self.seed,
            self.config,
            self.options,
        )

    @property
    def label(self) -> str:
        if not self.overrides:
            return "(base)"
        return ", ".join(f"{key}={value}" for key, value in self.overrides)


# ---------------------------------------------------------------------------
# Worker bodies
# ---------------------------------------------------------------------------


class ShardTask(NamedTuple):
    """One shard of one (benchmark, mode) pair: the pipeline's one task type.

    The resolved ModeParameters travel in the task (not just the label) so
    runtime registry customisations in the parent process reach workers
    even under the spawn start method, where workers re-import the package
    and would otherwise resolve modes against a fresh default registry.
    ``window`` is the chain's event-slice width: the run length (one slice,
    the run's ``events`` entry) unless a stream window narrows it.  Either
    way the payload stays tiny: workers fetch their inputs from the store.
    """

    name: str
    params: ModeParameters
    scale: float
    num_accesses: int  # full run length
    seed: int
    config: Optional[SystemConfig]
    options: Optional[EngineOptions]
    start: int
    stop: int
    window: int


def run_shard_step(task: ShardTask, carry: Optional[bytes]) -> Any:
    """Pipeline worker: advance one pair's chain over one shard window.

    ``carry`` is the previous shard's serialized checkpoint (``None`` for
    shard 0, which begins from the cold state).  Intermediate shards return
    the next checkpoint; the final shard returns the finished
    :class:`SimulationResult` -- exactly what the serial engine would have
    produced, because the state never diverged from it.

    The window replays slice by slice (:func:`~repro.sim.distill.load_slice`;
    one hierarchy pre-pass per benchmark serves every mode and shard), so
    peak memory is one slice plus the checkpoint.  Every slice, at any
    width, replays through the one event loop
    (:func:`~repro.sim.engine.event_loop`): beside the numpy batch kernels
    when the stack is :func:`~repro.sim.replaycore.vectorizable`, alone
    otherwise.  The kernels read each slice's verdict tiers from the store;
    a tier not there yet is computed by the first shard that needs it, for
    every slice of the run at once (:func:`~repro.sim.replaycore.load_tier_slice`),
    and read back by the chain's later shards and every other plan.  A
    stack that is not even :meth:`~SimulationEngine.distillable` -- a
    third-party sampler without ``access_period`` -- replays the trace
    (re-derived through the per-process ``capture_trace`` memo), which needs
    the run in one window: a windowed chain of such a stack raises
    ``ValueError``.  The choice depends only on the stack and the worker's
    numpy, both constant along a chain, so a chain replays one way end to
    end (a vectorized checkpoint leaves component caches untouched and must
    not be resumed without the kernels; :func:`checkpoint_key` keeps
    resumed chains on their loop too).
    """
    from repro.sim import replaycore
    from repro.sim.distill import load_slice
    from repro.workloads.registry import capture_trace

    name, params, scale, num_accesses, seed, config, options, start, stop, window = task
    engine = SimulationEngine(params, config=config, options=options, seed=seed)
    state = None if carry is None else EngineState.deserialize(carry)
    trace: Optional[Trace] = None
    position = start
    while position < stop:
        events = load_slice(name, scale, seed, num_accesses, window, position // window, config)
        if state is None:
            state = engine.begin(events, num_accesses)
        if state.position != position:
            raise ValueError(
                f"checkpoint resumes at access {state.position}, "
                f"but this shard's window starts at {position}"
            )
        if not engine.distillable(state.components):
            if window < num_accesses:
                raise ValueError(
                    f"mode {params.label!r} has components that cannot be "
                    "event-driven, so it replays the trace and needs the whole "
                    f"run in one window (stream window {window} < {num_accesses} "
                    "accesses); declare access_period or drop the stream window"
                )
            trace = capture_trace(name, scale=scale, seed=seed, num_accesses=num_accesses)
            engine.replay(state, trace, stop=stop)
        elif replaycore.vectorizable(state.components):
            replayer = replaycore.BatchReplayEngine(engine, events, window=window)
            replayer.replay(state, stop=min(stop, events.stop_index))
        else:
            engine.replay_events(state, events, stop=min(stop, events.stop_index))
        position = state.position
    if stop < num_accesses:
        return state.serialize()
    return engine.finish(state, trace if trace is not None else events.run_meta(num_accesses))


# ---------------------------------------------------------------------------
# Checkpoint persistence and resume
# ---------------------------------------------------------------------------


def checkpoint_key(task: ShardTask) -> str:
    """Content key of the checkpoint produced by completing this shard task.

    The key carries the *full* identity of the prefix the checkpoint
    represents -- benchmark, resolved mode parameters, scale, run length,
    seed, config/options, the window's ``stop`` -- plus the two strategy
    axes the state at that stop depends on, even though neither enters a
    *result* key.  One is the chain's slice width: every slice folds its
    hierarchy statistics once, at its own stop, so a shard stop inside a
    slice has folded only the earlier slices' statistics, and how many
    depends on the width.  The other is whether numpy is importable
    (``replaycore.HAVE_NUMPY``): a vectorized checkpoint leaves component
    caches untouched and must not seed a replay without the kernels (and
    vice versa), so a checkpoint written with numpy is never resumed
    without it.  The code fingerprint rides in through :func:`content_key`
    as always, so a source edit strands stale checkpoints exactly like
    every other entry.
    """
    from repro.sim import replaycore

    return content_key(
        "checkpoint",
        benchmark=task.name,
        mode=task.params,
        scale=task.scale,
        num_accesses=task.num_accesses,
        seed=task.seed,
        config=task.config,
        options=task.options,
        stop=task.stop,
        strategy={"window": task.window, "vector": replaycore.HAVE_NUMPY},
    )


def _encode_checkpoint(carry: bytes) -> Dict[str, str]:
    return {"state": base64.b64encode(carry).decode("ascii")}


def _decode_checkpoint(payload: Mapping) -> bytes:
    return base64.b64decode(payload["state"])


class _CheckpointJournal:
    """Parent-side persistence of in-flight chain checkpoints.

    Wired into :func:`~repro.sim.parallel.pipelined_map` through its
    ``on_carry`` hook: every intermediate carry (a serialized
    :class:`EngineState`) is written to the persistent store under its
    :func:`checkpoint_key`, keeping only the latest checkpoint per
    chain, and a chain's completion spends its checkpoint (invalidated --
    a finished run leaves no ``checkpoint-*`` residue).  :meth:`restore`
    is the other half: probe each chain's shard boundaries from the end
    backwards, trim the chain to its unfinished suffix, and seed the first
    remaining step with the restored carry.  A resumed chain replays the
    identical checkpoint sequence an uninterrupted run would, so the final
    results are bit-identical and share the run's normal store keys.

    A chain abandoned by degrade-mode quarantine keeps its last checkpoint
    on purpose: the next attempt resumes from the last good shard instead
    of replaying the prefix.

    Chains of one journal may share checkpoint keys -- a sweep over
    ``shard_size`` runs the same pair at several widths, whose common stops
    hold the same state -- so a checkpoint is invalidated only once no
    chain still holds it as its resume point.
    """

    def __init__(self, chains: Sequence[Sequence], store: Optional[ResultStore] = None):
        self._store = store if store is not None else default_store()
        self._active: List[List] = [list(chain) for chain in chains]
        self._last: List[Optional[str]] = [None] * len(self._active)

    def restore(self) -> Tuple[List[List], List[Optional[bytes]]]:
        """Trim each chain to its unfinished suffix.

        Returns ``(chains, initials)`` ready for ``pipelined_map``: a chain
        with a stored checkpoint at shard k is trimmed to its tasks after k
        and starts from the restored carry; a chain with no checkpoint is
        returned whole with a ``None`` initial (the cold start).  Probing
        runs from the last intermediate shard backwards, so the freshest
        surviving checkpoint wins.
        """
        initials: List[Optional[bytes]] = []
        for chain_index, chain in enumerate(self._active):
            carry: Optional[bytes] = None
            for step in range(len(chain) - 2, -1, -1):
                key = checkpoint_key(chain[step])
                restored = self._store.get(key, decoder=_decode_checkpoint, promote=False)
                if restored is not None:
                    self._active[chain_index] = chain[step + 1 :]
                    self._last[chain_index] = key
                    carry = restored
                    break
            initials.append(carry)
        return self._active, initials

    def on_carry(self, chain_index: int, step_index: int, carry: Any) -> None:
        """Persist an intermediate checkpoint; spend it on chain completion."""
        chain = self._active[chain_index]
        previous = self._last[chain_index]
        if step_index + 1 >= len(chain):
            # Final step: ``carry`` is the chain's result, not a checkpoint,
            # and the run it would have resumed is now complete.
            self._last[chain_index] = None
        elif isinstance(carry, (bytes, bytearray)):
            key = checkpoint_key(chain[step_index])
            self._store.put(key, bytes(carry), encoder=_encode_checkpoint, keep_in_memory=False)
            self._last[chain_index] = key
        if previous is not None and previous not in self._last:
            self._store.invalidate(previous)


# ---------------------------------------------------------------------------
# Chain planning and the suite-level drivers
# ---------------------------------------------------------------------------

def shard_chain(
    name: str,
    mode: str,
    spec: ShardSpec,
    scale: float,
    num_accesses: int,
    seed: int,
    config: Optional[SystemConfig] = None,
    options: Optional[EngineOptions] = None,
    window: Optional[int] = None,
) -> List[ShardTask]:
    """One (benchmark, mode) pair's shard tasks, in window order.

    ``window`` (a stream window) sets the width of the event slices the
    chain replays (see :class:`ShardTask`); without one, or at or beyond
    the run length, the whole run is one slice.
    """
    window = _slice_width(num_accesses, window)
    params = mode_parameters(mode)
    return [
        ShardTask(name, params, scale, num_accesses, seed, config, options, start, stop, window)
        for start, stop in shard_bounds(num_accesses, spec.shard_size)
    ]


def _slice_width(num_accesses: int, stream: Optional[int]) -> int:
    """A chain's event-slice width: the stream window, capped at the run."""
    if stream is None:
        return num_accesses
    if stream <= 0:
        raise ValueError(f"stream window must be positive, got {stream}")
    return min(stream, num_accesses)


def stream_shard_chain(
    name: str,
    mode: str,
    spec: ShardSpec,
    scale: float,
    num_accesses: int,
    seed: int,
    window: int,
    config: Optional[SystemConfig] = None,
    options: Optional[EngineOptions] = None,
) -> List[ShardTask]:
    """One (benchmark, mode) pair's shard tasks over ``window``-wide slices."""
    return shard_chain(name, mode, spec, scale, num_accesses, seed, config, options, window)


def prepare_suite(plan: RunPlan) -> List[List[ShardTask]]:
    """One plan's (benchmark, mode) chains, with their event slices precomputed.

    Chains come benchmark-major, mode-minor -- the serial order -- with
    ``NOPROTECT`` always included first, since it provides the baseline
    time :func:`~repro.sim.parallel.stitch_suite` stitches into every
    result.  Before returning, the parent pays each benchmark's
    mode-independent hierarchy pre-pass once (a no-op when the store
    already holds it), so the workers' loads are warm store hits instead of
    one redundant distillation per worker: the event slices
    (:func:`~repro.sim.distill.stream_event_slices`), and when one window
    covers the run, the run's ``events`` entry is loaded into the store's
    memory layer, which forked workers inherit (spawned workers read it
    back from disk).  No verdict tier is paid here: the first worker whose
    kernel needs one computes it for every slice of the run and puts it in
    the store (:func:`~repro.sim.replaycore.load_tier_slice`), so the
    parent never holds a tier simulator while it ingests.
    """
    from repro.sim.distill import load_slice, stream_event_slices

    scale, num_accesses, seed, config = plan.scale, plan.num_accesses, plan.seed, plan.config
    spec = ShardSpec(plan.shard_size or num_accesses)
    window = _slice_width(num_accesses, plan.stream)
    modes = ordered_modes(plan.modes)
    chains = [
        shard_chain(name, mode, spec, scale, num_accesses, seed, config, plan.options, window)
        for name in plan.benchmarks
        for mode in modes
    ]
    for name in plan.benchmarks:
        stream_event_slices(name, scale, seed, num_accesses, window, config)
        if window == num_accesses:
            load_slice(name, scale, seed, num_accesses, window, 0, config)
    return chains


def run_chains(
    chains: Sequence[Sequence[ShardTask]],
    jobs: Optional[int] = None,
    policy: Optional[SupervisionPolicy] = None,
    manifest: Optional[FailureManifest] = None,
    resume: bool = True,
) -> List[Any]:
    """Pipeline shard chains over one worker pool; one final per chain.

    A chain's final is its :class:`SimulationResult`, or a
    :class:`~repro.sim.faults.TaskFailure` when degrade-mode supervision
    quarantined one of its steps.  ``resume`` persists each chain's
    in-flight checkpoint through the :class:`_CheckpointJournal` and first
    resumes any chain a previous (killed) run left a checkpoint for.
    """
    journal = _CheckpointJournal(chains) if resume else None
    initials = None
    if journal is not None:
        chains, initials = journal.restore()
    return pipelined_map(
        run_shard_step,
        chains,
        jobs=jobs,
        policy=policy,
        manifest=manifest,
        initials=initials,
        on_carry=journal.on_carry if journal is not None else None,
    )


def stitch_chains(
    chains: Sequence[Sequence[ShardTask]], finals: Sequence[Any], modes: Sequence[str]
) -> SuiteResults:
    """Merge one suite's chain finals into the serial driver's suite shape."""
    return stitch_suite(
        ((chain[0].name, chain[0].params.label, final) for chain, final in zip(chains, finals)),
        modes,
    )


def run_plans(
    plans: Sequence[RunPlan],
    *,
    jobs: Optional[int] = None,
    policy: Optional[SupervisionPolicy] = None,
    manifest: Optional[FailureManifest] = None,
    resume: bool = True,
    use_cache: bool = True,
    store: Optional[ResultStore] = None,
) -> Tuple[List[SuiteResults], List[bool]]:
    """Run several plans as one pipeline; the one reader and writer of suites.

    Returns each plan's suite -- the nested shape of
    :func:`repro.sim.engine.run_suite`, and the same bits -- plus whether it
    was served from ``store`` instead of simulated.  A ``repro bench`` run is
    the one-plan case; a sweep passes every grid point.

    With ``use_cache`` on, each plan is first looked up under its
    :attr:`RunPlan.key`, and plans sharing a key (shard widths and stream
    windows never enter it) simulate once while the rest count as served
    from the stored entry; with it off every plan simulates, so a sweep
    over ``shard_size`` times each width.  Every uncached plan's chains
    then run in **one** :func:`run_chains` call -- one pool for the whole
    batch -- and each plan's suite is stitched from its own chains.

    ``resume`` persists each chain's in-flight checkpoint and first resumes
    any chain a previous (killed) run left one for; ``policy``/``manifest``
    are the supervision policy (see
    :func:`~repro.sim.parallel.resolve_supervision`) and its failure record.
    A plan is degraded when one of its own chains ended in a
    :class:`~repro.sim.faults.TaskFailure` (``on_failure="degrade"``): its
    suite lacks the quarantined cells, so it is returned but never stored,
    and neither it nor a plan sharing its key counts as served.
    """
    if store is None:
        store = default_store()
    keys = [plan.key for plan in plans]
    suites: List[Optional[SuiteResults]] = [None] * len(plans)
    served = [False] * len(plans)
    if use_cache:
        for i, key in enumerate(keys):
            suites[i] = store.get(key, decoder=decode_suite)
            served[i] = suites[i] is not None

    # One flat chain list across every uncached plan: maximum fan-out
    # width, one pool startup.  Repeated (trace, geometry) pre-passes across
    # plans dedupe through the store's memory layer.
    chains: List[List[ShardTask]] = []
    spans: List[Tuple[int, int, int]] = []  # (plan index, first chain, end)
    simulating: Dict[str, int] = {}  # suite key -> the plan simulating it
    twins: List[Tuple[int, int]] = []  # (plan index, plan simulating its key)
    for i, plan in enumerate(plans):
        if served[i]:
            continue
        if use_cache and keys[i] in simulating:
            twins.append((i, simulating[keys[i]]))
            continue
        simulating[keys[i]] = i
        plan_chains = prepare_suite(plan)
        spans.append((i, len(chains), len(chains) + len(plan_chains)))
        chains.extend(plan_chains)

    finals = run_chains(chains, jobs, policy, manifest, resume) if chains else []
    stored = set()
    for i, start, stop in spans:
        suites[i] = stitch_chains(chains[start:stop], finals[start:stop], plans[i].modes)
        degraded = any(isinstance(final, TaskFailure) for final in finals[start:stop])
        if use_cache and not degraded:
            store.put(keys[i], suites[i], encoder=encode_suite)
            stored.add(i)
    for i, twin in twins:
        # A twin of a degraded plan shares its lost cells and, like it, was
        # never stored: it counts as simulated, so a rerun retries both.
        suites[i] = suites[twin]
        served[i] = twin in stored
    return suites, served


__all__ = [
    "RunPlan",
    "ShardSpec",
    "ShardTask",
    "checkpoint_key",
    "prepare_suite",
    "run_chains",
    "run_plans",
    "run_shard_step",
    "shard_bounds",
    "shard_chain",
    "stitch_chains",
    "stream_shard_chain",
]
