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
replay loop is picked from what the worker observes, never from a flag; a
stack no event stream can drive is rejected at planning.

The slices and their verdict tiers are produced on the same pool, by two
more chains per *run* -- the identity every slice shares: benchmark, scale,
seed, length, slice width and hierarchy geometry.  :func:`run_chains`
derives them from the replay chains (:func:`producer_chains`): an ingest
chain of one :class:`IngestTask`, which distills the run slice by slice and
reports each slice's stop as it is stored, and a tier chain of one
:class:`TierTask` per slice, which advances the run's tier simulators over
that slice and puts its tiers.  Tier step k waits for ingest progress past
slice k, and replay step j for tier progress (or, for a stack that reads no
tier, ingest progress) past its stop, so replay overlaps ingestion and the
parent never holds an event.  So three task types run on one pool, and
planning (:func:`prepare_suite`) computes nothing.

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
``tests/sim/test_strategy_property.py`` and the committed golden
fixtures).  Because the results are identical, sharded and unsharded runs
**share persistent-store keys**: the shard width never appears in a
result's key, a cached unsharded suite serves a sharded request and vice
versa, and ``repro reproduce-all`` provenance stamps are
strategy-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Type

from repro.core.config import SystemConfig
from repro.sim.configs import ModeParameters, mode_parameters
from repro.sim.engine import (
    EngineOptions,
    EngineState,
    SimulationEngine,
    ordered_modes,
)
from repro.sim.faults import FailureManifest, SupervisionPolicy, TaskFailure
from repro.sim.parallel import Wait, pipelined_map, report_progress, stitch_suite
from repro.sim.results import (
    SuiteResults,
    decode_suite,
    encode_suite,
    suite_key,
)
from repro.sim.store import content_key, default_store


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
    """One shard of one (benchmark, mode) pair: a replay chain's step.

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

    @property
    def label(self) -> str:
        return f"{self.name}/{self.params.label}"


class IngestTask(NamedTuple):
    """One run's ingestion: the one step of its ingest chain.

    A run is what every event slice shares: benchmark, scale, seed, length,
    slice width and hierarchy geometry -- ``config`` is any config of the
    run, since only its cache geometry shapes the slices.
    """

    name: str
    scale: float
    seed: int
    num_accesses: int
    window: int
    config: Optional[SystemConfig]

    @property
    def label(self) -> str:
        return f"{self.name}/ingest"


class TierTask(NamedTuple):
    """One event slice of one run's verdict tiers: a tier chain's step.

    ``tiers`` holds a ``(simulator class, geometry items)`` pair per tier
    family the chain computes; step ``index`` advances them over slice
    ``index`` of the run's ``window``-wide partition.
    """

    name: str
    scale: float
    seed: int
    num_accesses: int
    window: int
    config: Optional[SystemConfig]
    index: int
    tiers: Tuple[Tuple[Type[Any], Tuple[Tuple[str, int], ...]], ...]

    @property
    def label(self) -> str:
        return f"{self.name}/tiers"


def run_ingest(task: IngestTask) -> None:
    """Pipeline worker: distill one run into its stored event slices.

    Reports each slice's stop as the slice is stored
    (:func:`~repro.sim.parallel.report_progress`), which releases the tier
    and replay steps waiting on it and re-arms the task's deadline, so
    supervision bounds one window rather than the whole run.
    """
    from repro.sim.distill import stream_event_slices

    name, scale, seed, num_accesses, window, config = task
    stream_event_slices(name, scale, seed, num_accesses, window, config, progress=report_progress)


def run_tier_step(task: TierTask, carry: Optional[List[Any]]) -> Optional[List[Any]]:
    """Pipeline worker: advance one run's tier simulators over one slice.

    ``carry`` is the previous step's :class:`~repro.sim.replaycore.TierSimulator`
    list (``None`` at slice 0, which builds them cold).  The step puts each
    simulator's tier of its slice, reports the slice's stop and hands the
    simulators -- and nothing else -- to the next step; the last step
    returns ``None``, since nothing would read them.  On the pool the
    parent forwards them as the bytes this worker pickled (:func:`run_chains`
    names the tier chains ``opaque``), never loading them itself.
    """
    from repro.sim import replaycore
    from repro.sim.distill import load_slice

    if carry is None:
        carry = [simulator(**dict(geometry)) for simulator, geometry in task.tiers]
    run = (task.name, task.scale, task.seed, task.num_accesses, task.window)
    events = load_slice(*run, task.index, task.config)
    replaycore.put_tier_slices(carry, events, task.num_accesses, task.window, task.config)
    report_progress(events.stop_index)
    return carry if events.stop_index < task.num_accesses else None


def run_pipeline_step(task: Any, carry: Any) -> Any:
    """The body :func:`run_chains` maps: each task type to its worker."""
    if isinstance(task, IngestTask):
        return run_ingest(task)
    if isinstance(task, TierTask):
        return run_tier_step(task, carry)
    return run_shard_step(task, carry)


def run_shard_step(task: ShardTask, carry: Optional[bytes]) -> Any:
    """Pipeline worker: advance one pair's chain over one shard window.

    ``carry`` is the previous shard's serialized checkpoint (``None`` for
    shard 0, which begins from the cold state).  Intermediate shards return
    the next checkpoint; the final shard returns the finished
    :class:`SimulationResult` -- exactly what the serial engine would have
    produced, because the state never diverged from it.

    The window replays slice by slice (:func:`~repro.sim.distill.load_slice`;
    the run's ingest task distilled them once for every mode and shard, and
    the step was held until it had stored the slices up to ``stop``), so
    peak memory is one slice plus the checkpoint.  Every slice, at any
    width, replays through the numpy batch kernels when the stack is
    :func:`~repro.sim.replaycore.vectorizable`, and through the event loop
    with no kernel (:meth:`~SimulationEngine.replay_events`) otherwise.  The
    kernels read each slice's verdict tiers from the store, where the run's
    tier chain put them before the step was released; a tier still missing
    is computed from the run's first slice up to this one
    (:func:`~repro.sim.replaycore.load_tier_slice`).  Planning has already
    rejected a stack the events cannot drive (:func:`producer_chains`).  The
    choice depends only on the stack and the worker's numpy, both constant
    along a chain, so a chain replays one way end to end (a vectorized
    checkpoint leaves component caches untouched and must not be resumed
    without the kernels; :func:`checkpoint_key` keeps resumed chains on
    their loop too).
    """
    from repro.sim import replaycore
    from repro.sim.distill import load_slice

    name, params, scale, num_accesses, seed, config, options, start, stop, window = task
    engine = SimulationEngine(params, config=config, options=options, seed=seed)
    state = None if carry is None else EngineState.deserialize(carry)
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
        if replaycore.vectorizable(state.components):
            replayer = replaycore.BatchReplayEngine(engine, events, window=window)
            replayer.replay(state, stop=min(stop, events.stop_index))
        else:
            engine.replay_events(state, events, stop=min(stop, events.stop_index))
        position = state.position
    if stop < num_accesses:
        return state.serialize()
    return engine.finish(state, events.run_meta(num_accesses))


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
    (``distill.HAVE_NUMPY``): a vectorized checkpoint leaves component
    caches untouched and must not seed a replay without the kernels (and
    vice versa), so a checkpoint written with numpy is never resumed
    without it.  The code fingerprint rides in through :func:`content_key`
    as always, so a source edit strands stale checkpoints exactly like
    every other entry.
    """
    from repro.sim import distill

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
        strategy={"window": task.window, "vector": distill.HAVE_NUMPY},
    )


def _encode_checkpoint(carry: bytes) -> bytes:
    """A checkpoint's store payload: the serialised state itself, stored raw."""
    return carry


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

    def __init__(self, chains: Sequence[Sequence]):
        self._store = default_store()
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
                # Decoder-less: a checkpoint is the stored bytes themselves.
                # A damaged one fails the store's digest check and is a miss,
                # and only the latest is kept, so its chain starts over.
                restored = self._store.get(key, promote=False)
                if restored is not None:
                    self._active[chain_index] = chain[step + 1 :]
                    self._last[chain_index] = key
                    carry = restored
                    break
            initials.append(carry)
        return self._active, initials

    def on_carry(self, chain_index: int, step_index: int, carry: Any) -> None:
        """Persist an intermediate checkpoint; spend it on chain completion.

        The previous checkpoint is spent before the next is written: a run
        killed between the two leaves its chain none, so the chain resumes
        from its first shard, where the other order would leave two and the
        older would never be spent.
        """
        chain = self._active[chain_index]
        previous, self._last[chain_index] = self._last[chain_index], None
        if previous is not None and previous not in self._last:
            self._store.invalidate(previous)
        # The final step's ``carry`` is the chain's result, not a checkpoint,
        # and the run it would have resumed is now complete.
        if step_index + 1 < len(chain) and isinstance(carry, (bytes, bytearray)):
            key = checkpoint_key(chain[step_index])
            self._store.put(key, bytes(carry), encoder=_encode_checkpoint, keep_in_memory=False)
            self._last[chain_index] = key


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
    """One plan's (benchmark, mode) chains, in the serial order.

    Chains come benchmark-major, mode-minor, with ``NOPROTECT`` always
    included first, since it provides the baseline time
    :func:`~repro.sim.parallel.stitch_suite` stitches into every result.
    Planning only: nothing is distilled, loaded or stored here.  The event
    slices and verdict tiers the chains read are produced on the pool, by
    the ingest and tier chains :func:`run_chains` adds, so the parent never
    holds an event -- and forked workers inherit none.
    """
    scale, num_accesses, seed, config = plan.scale, plan.num_accesses, plan.seed, plan.config
    spec = ShardSpec(plan.shard_size or num_accesses)
    window = _slice_width(num_accesses, plan.stream)
    return [
        shard_chain(name, mode, spec, scale, num_accesses, seed, config, plan.options, window)
        for name in plan.benchmarks
        for mode in ordered_modes(plan.modes)
    ]


def _stack_tiers(task: ShardTask, footprint_bytes: int) -> List[Tuple[Type[Any], Dict[str, int]]]:
    """The verdict tiers a replay chain's kernels read, from its bare stack.

    Raises ``ValueError`` for a sampler without ``access_period``, which no
    event stream can drive (:func:`~repro.sim.engine.run_suite` can).
    """
    from repro.sim import replaycore
    from repro.sim.path import build_components

    components = build_components(
        task.params,
        task.config if task.config is not None else SystemConfig(),
        task.options if task.options is not None else EngineOptions(),
        footprint_bytes=footprint_bytes,
        seed=task.seed,
        num_accesses=task.num_accesses,
    )
    undeclared = [type(c).__name__ for c in components if not SimulationEngine.distillable([c])]
    if undeclared:
        raise ValueError(
            f"mode {task.params.label!r} cannot replay from miss events: "
            f"{', '.join(undeclared)} overrides on_access without declaring "
            "access_period; declare it, or replay the mode with run_suite"
        )
    return replaycore.stack_tiers(components, task.config)


def producer_chains(
    chains: Sequence[Sequence[ShardTask]],
) -> Tuple[List[List[Any]], Dict[int, Wait]]:
    """The ingest and tier chains that feed replay ``chains``, and their gates.

    Returns ``(producers, waits)`` for ``pipelined_map(...,
    producers + chains, waits=waits)``: every run's ingest chain, then every
    run's tier chain, each in the order the runs first appear in
    ``chains`` (benchmark order).  A run's tier chain computes the union of
    the tiers its replay chains read -- over every mode, config and options
    on the run, deduplicated by tier key, so a sweep over
    ``mac_cache_bytes`` finds each point's tiers stored.  Only what the
    default store lacks gets a producer: a run whose slices are all stored has
    no ingest chain, and a tier family whose slices are all stored is left
    out of its tier chain.

    Tier step k waits for ingest progress past slice k; replay step j waits
    for tier progress past its stop when its stack reads a tier the chain
    computes, else for ingest progress past it.  A stack no event stream
    can drive raises ``ValueError`` here, before any task runs.
    """
    from repro.sim import replaycore
    from repro.sim.distill import events_slice_key, slice_bounds
    from repro.workloads.registry import get_workload

    store = default_store()
    runs: Dict[str, List[int]] = {}
    for index, chain in enumerate(chains):
        if chain:
            head = chain[0]
            run = (head.name, head.scale, head.seed, head.num_accesses, head.window)
            runs.setdefault(events_slice_key(*run, 0, head.config), []).append(index)

    ingests: List[List[Any]] = []
    tier_chains: List[List[Any]] = []
    feeds = []  # per run: (ingest, tier chain, slice stops, {member: reads a new tier})
    for members in runs.values():
        head = chains[members[0]][0]
        run = (head.name, head.scale, head.seed, head.num_accesses, head.window)
        stops = [stop for _, stop in slice_bounds(head.num_accesses, head.window)]
        ingest = None
        if not all(events_slice_key(*run, i, head.config) in store for i in range(len(stops))):
            ingest = len(ingests)
            ingests.append([IngestTask(*run, head.config)])
        footprint = get_workload(head.name, scale=head.scale, seed=head.seed).footprint_bytes
        stored: Dict[Any, bool] = {}
        computed: Dict[Any, None] = {}  # insertion-ordered set of tier slots
        reads: Dict[int, bool] = {}
        for member in members:
            reads[member] = False
            for simulator, geometry in _stack_tiers(chains[member][0], footprint):
                slot = (simulator, tuple(sorted(geometry.items())))
                if slot not in stored:
                    keys = replaycore.tier_slice_keys(simulator, geometry, *run, head.config)
                    stored[slot] = all(key in store for key in keys)
                if not stored[slot]:
                    computed[slot] = None
                    reads[member] = True
        tiers = None
        if computed:
            tiers = len(tier_chains)
            tier_chains.append(
                [TierTask(*run, head.config, i, tuple(computed)) for i in range(len(stops))]
            )
        feeds.append((ingest, tiers, stops, reads))

    offset = len(ingests) + len(tier_chains)
    waits: Dict[int, Wait] = {}
    for ingest, tiers, stops, reads in feeds:
        if tiers is not None and ingest is not None:
            waits[len(ingests) + tiers] = (ingest, stops)
        for member, reads_tier in reads.items():
            producer = len(ingests) + tiers if reads_tier else ingest
            if producer is not None:
                waits[offset + member] = (producer, [task.stop for task in chains[member]])
    return ingests + tier_chains, waits


def run_chains(
    chains: Sequence[Sequence[ShardTask]],
    jobs: Optional[int] = None,
    policy: Optional[SupervisionPolicy] = None,
    manifest: Optional[FailureManifest] = None,
) -> List[Any]:
    """Pipeline shard chains, and the chains that feed them, over one pool.

    A chain's final is its :class:`SimulationResult`, or a
    :class:`~repro.sim.faults.TaskFailure` when degrade-mode supervision
    quarantined one of its steps -- or the ingest or tier step it waited
    on, whose failure it then carries.  The ingest and tier chains come
    first (:func:`producer_chains`), so their steps take the lowest
    fault-plan slots, and are ``opaque``: only their own next step reads
    a tier chain's carry.  Each replay chain's in-flight checkpoint is
    persisted through the :class:`_CheckpointJournal`, which first resumes
    any chain a previous (killed) run left a readable checkpoint for.
    """
    journal = _CheckpointJournal(chains)
    chains, initials = journal.restore()
    producers, waits = producer_chains(chains)
    offset = len(producers)

    def on_carry(chain_index: int, step_index: int, carry: Any) -> None:
        # Only replay chains carry checkpoints.
        if chain_index >= offset:
            journal.on_carry(chain_index - offset, step_index, carry)

    finals = pipelined_map(
        run_pipeline_step,
        producers + list(chains),
        jobs=jobs,
        policy=policy,
        manifest=manifest,
        initials=[None] * offset + list(initials),
        on_carry=on_carry,
        waits=waits,
        opaque=range(offset),
    )
    return finals[offset:]


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
    use_cache: bool = True,
) -> Tuple[List[SuiteResults], List[bool]]:
    """Run several plans as one pipeline; the one reader and writer of suites.

    Returns each plan's suite -- the nested shape of
    :func:`repro.sim.engine.run_suite`, and the same bits -- plus whether it
    was served from the store instead of simulated.  A ``repro bench`` run is
    the one-plan case; a sweep passes every grid point.  The store is the
    process's :func:`~repro.sim.store.default_store`, the one store the
    whole run -- suites, slices, tiers and checkpoints -- reads and writes.

    With ``use_cache`` on, each plan is first looked up under its
    :attr:`RunPlan.key`, and plans sharing a key (shard widths and stream
    windows never enter it) simulate once while the rest count as served
    from the stored entry; with it off every plan simulates, so a sweep
    over ``shard_size`` times each width.  Every uncached plan's chains
    then run in **one** :func:`run_chains` call -- one pool for the whole
    batch -- and each plan's suite is stitched from its own chains.

    Each chain's in-flight checkpoint is persisted, and a chain a previous
    (killed) run left one for resumes from it; ``policy``/``manifest``
    are the supervision policy (see
    :func:`~repro.sim.parallel.resolve_supervision`) and its failure record.
    A plan is degraded when one of its own chains ended in a
    :class:`~repro.sim.faults.TaskFailure` (``on_failure="degrade"``): its
    suite lacks the quarantined cells, so it is returned but never stored,
    and neither it nor a plan sharing its key counts as served.
    """
    store = default_store()
    keys = [plan.key for plan in plans]
    suites: List[Optional[SuiteResults]] = [None] * len(plans)
    served = [False] * len(plans)
    if use_cache:
        for i, key in enumerate(keys):
            suites[i] = store.get(key, decoder=decode_suite)
            served[i] = suites[i] is not None

    # One flat chain list across every uncached plan: maximum fan-out
    # width, one pool startup, and one ingest and tier chain per run,
    # however many plans replay it.
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

    finals = run_chains(chains, jobs, policy, manifest) if chains else []
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
    "IngestTask",
    "RunPlan",
    "ShardSpec",
    "ShardTask",
    "TierTask",
    "checkpoint_key",
    "prepare_suite",
    "producer_chains",
    "run_chains",
    "run_ingest",
    "run_pipeline_step",
    "run_plans",
    "run_shard_step",
    "run_tier_step",
    "shard_bounds",
    "shard_chain",
    "stitch_chains",
    "stream_shard_chain",
]
