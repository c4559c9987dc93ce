"""The suite pipeline: every (benchmark, mode) pair runs as a shard chain.

This module is the one suite driver.  A run splits into contiguous shards
and executes each (benchmark, mode) pair as a *chain* of shard windows, so
10M+-access traces spread across the pool instead of monopolising one
worker; an unsharded run is simply a chain of one full-length shard.  Every
chain step is a :class:`ShardTask` replayed by :func:`run_shard_step`, and
the replay loop is picked from what the worker observes -- the batch kernels
when the stack is vectorizable, the scalar event replay when it is only
distillable, the trace otherwise -- never from a flag.

Exactness is the design center, and there is one discipline: **checkpointed
handoff**.  Shard k starts from the serialized :class:`EngineState` produced
by shard k-1's tail, so by induction the state after shard k equals the
serial engine's state after the same prefix -- the merged result is
*bit-identical* to an unsharded run (the accumulators travel inside the
checkpoint; nothing is ever re-summed, so even float non-associativity
cannot introduce drift).  Chains are sequential internally but independent
of each other, and :func:`repro.sim.parallel.pipelined_map` keeps every
pair's current shard on a worker simultaneously (pipelined handoff).  The
captured path ships shard windows of the distilled event stream; the
streamed path ships event-slice store keys.

**Exactness contract.**  Sharding is an execution strategy, not a model
change: for every registered mode, at every shard width, the merged result
is *bit-identical* -- every counter, floats included -- to the serial
unsharded engine (pinned by ``tests/sim/test_sharding.py`` and the committed
golden fixtures).  Because the results are identical, sharded and unsharded
runs **share persistent-store keys**: the shard width never appears in a
result's key, a cached unsharded suite serves a sharded request and vice
versa, and ``repro reproduce-all`` provenance stamps are
strategy-independent.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.sim.configs import (
    EVALUATED_MODES,
    ModeLike,
    ModeParameters,
    mode_parameters,
)
from repro.sim.engine import (
    EngineOptions,
    EngineState,
    SimulationEngine,
    ordered_modes,
)
from repro.sim.faults import FailureManifest, SupervisionPolicy
from repro.sim.parallel import pipelined_map, predistill, resolve_supervision, stitch_suite
from repro.sim.results import SimulationResult, SuiteResults
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


# ---------------------------------------------------------------------------
# Worker bodies
# ---------------------------------------------------------------------------


class ShardTask(NamedTuple):
    """One shard of one (benchmark, mode) pair: the pipeline's one task type.

    The resolved ModeParameters travel in the task (not just the label) so
    runtime registry customisations in the parent process reach workers
    even under the spawn start method, where workers re-import the package
    and would otherwise resolve modes against a fresh default registry.
    ``window`` is the event-slice width of a *streamed* chain; ``None``
    replays windows of the benchmark's full distilled event stream.  Either
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
    window: Optional[int] = None


def run_shard_step(task: ShardTask, carry: Optional[bytes]) -> Any:
    """Pipeline worker: advance one pair's chain over one shard window.

    ``carry`` is the previous shard's serialized checkpoint (``None`` for
    shard 0, which begins from the cold state).  Intermediate shards return
    the next checkpoint; the final shard returns the finished
    :class:`SimulationResult` -- exactly what the serial engine would have
    produced, because the state never diverged from it.  Streamed tasks
    (``task.window`` set) go to :func:`run_stream_shard_step`.

    Captured windows replay from the benchmark's shared
    :class:`~repro.sim.distill.MissEventStream` (one hierarchy pre-pass per
    benchmark, all modes and all shards of a chain reuse it): through the
    numpy batch kernels when the stack is
    :func:`~repro.sim.replaycore.vectorizable`, else through the scalar
    event replay.  A stack that is not even
    :meth:`~SimulationEngine.distillable` -- a third-party sampler without
    ``access_period`` -- replays the trace, which workers re-derive through
    the per-process ``capture_trace`` memo.  The loop depends only on the
    stack and the worker's numpy, both constant along a chain, so a chain
    replays with one loop end to end (a vectorized checkpoint leaves
    component caches untouched and must not be resumed by the scalar replay;
    :func:`checkpoint_key` keeps resumed chains on their loop too).
    """
    if task.window is not None:
        return run_stream_shard_step(task, carry)
    from repro.sim import replaycore
    from repro.sim.distill import distilled_events
    from repro.workloads.registry import capture_trace

    engine = SimulationEngine(task.params, config=task.config, options=task.options, seed=task.seed)
    events = distilled_events(task.name, task.scale, task.seed, task.num_accesses, task.config)
    if carry is None:
        state = engine.begin(events, task.num_accesses)
    else:
        state = EngineState.deserialize(carry)
    if state.position != task.start:
        raise ValueError(
            f"checkpoint resumes at access {state.position}, "
            f"but this shard's window starts at {task.start}"
        )
    subject: Any = events
    if not engine.distillable(state.components):
        subject = capture_trace(
            task.name, scale=task.scale, seed=task.seed, num_accesses=task.num_accesses
        )
        engine.replay(state, subject, stop=task.stop)
    elif replaycore.vectorizable(state.components):
        replaycore.BatchReplayEngine(engine, events).replay(state, stop=task.stop)
    else:
        engine.replay_events(state, events, stop=task.stop)
    if task.stop >= task.num_accesses:
        return engine.finish(state, subject)
    return state.serialize()


def run_stream_shard_step(task: ShardTask, carry: Optional[bytes]) -> Any:
    """Streamed-path worker: advance one pair's chain over one shard window.

    Mirrors :func:`run_shard_step`'s checkpoint-handoff contract, but the
    replay consumes windowed event *slices* fetched from the persistent
    store by :func:`~repro.sim.distill.events_slice_key` (derived from the
    task's identity and ``window`` width) instead of a captured trace or a
    full-run stream: peak memory is bounded by one slice (plus the
    checkpoint), independent of the run length.  A worker whose store is
    missing a slice self-heals by regenerating the run's slices
    (bounded-memory, via :func:`~repro.sim.distill.stream_event_slices`).
    Slices are read with ``promote=False`` so the store's memory layer never
    re-accumulates the run.  Bit-identical to the serial engine by the same
    induction as the captured path; the vectorized batch replay does not
    apply here (it is built around one full-run stream), so streamed replay
    is always scalar.
    """
    from repro.sim.distill import (
        MissEventStream,
        events_slice_key,
        stream_event_slices,
    )

    name, params, scale, num_accesses, seed, config, options, start, stop, window = task
    engine = SimulationEngine(params, config=config, options=options, seed=seed)
    store = default_store()

    def load_slice(position: int) -> MissEventStream:
        index = position // window
        key = events_slice_key(name, scale, seed, num_accesses, window, index, config)
        events = store.get(key, decoder=MissEventStream.from_payload, promote=False)
        if events is None:
            stream_event_slices(name, scale, seed, num_accesses, window, config, store)
            events = store.get(key, decoder=MissEventStream.from_payload, promote=False)
        if events is None:
            raise RuntimeError(
                f"event slice {index} of {name!r} (window {window}) is "
                "missing from the store and could not be regenerated"
            )
        return events

    if carry is None:
        state: Optional[EngineState] = None
    else:
        state = EngineState.deserialize(carry)
    meta: Optional[MissEventStream] = None
    position = start
    while position < stop:
        events = load_slice(position)
        meta = events.run_meta(num_accesses)
        if state is None:
            state = engine.begin(meta, num_accesses)
            if not engine.distillable(state.components):
                raise ValueError(
                    f"mode {params.label!r} has components that cannot be "
                    "event-driven; streamed execution requires distillable "
                    "components (declare access_period or use the captured "
                    "path)"
                )
        if state.position != position:
            raise ValueError(
                f"checkpoint resumes at access {state.position}, "
                f"but this shard's window starts at {position}"
            )
        engine.replay_events(state, events, stop=min(stop, events.stop_index))
        position = state.position
    assert state is not None and meta is not None
    if stop >= num_accesses:
        return engine.finish(state, meta)
    return state.serialize()


# ---------------------------------------------------------------------------
# Checkpoint persistence and resume
# ---------------------------------------------------------------------------


def checkpoint_key(task: ShardTask) -> str:
    """Content key of the checkpoint produced by completing this shard task.

    The key carries the *full* identity of the prefix the checkpoint
    represents -- benchmark, resolved mode parameters, scale, run length,
    seed, config/options, the window's ``stop`` -- plus the replay loop that
    produced it.  The loop matters here even though it never enters a
    *result* key: a vectorized checkpoint leaves component caches untouched
    and must not seed a scalar replay (and vice versa), and a streamed
    chain's checkpoints are keyed to their slice window.  A captured chain's
    loop is keyed by what the resuming worker observes, whether numpy is
    importable (``replaycore.HAVE_NUMPY``), so a checkpoint written with
    numpy is never resumed without it.  The code fingerprint rides in
    through :func:`content_key` as always, so a source edit strands stale
    checkpoints exactly like every other entry.
    """
    from repro.sim import replaycore

    if task.window is not None:
        strategy: Dict[str, Any] = {"path": "streamed", "window": task.window}
    else:
        strategy = {"path": "captured", "vector": replaycore.HAVE_NUMPY}
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
        strategy=strategy,
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
# Single-run and suite-level drivers
# ---------------------------------------------------------------------------

def shard_chain(
    name: str,
    mode: ModeLike,
    spec: ShardSpec,
    scale: float,
    num_accesses: int,
    seed: int,
    config: Optional[SystemConfig] = None,
    options: Optional[EngineOptions] = None,
    window: Optional[int] = None,
) -> List[ShardTask]:
    """One (benchmark, mode) pair's shard tasks, in window order.

    ``window`` makes it a streamed chain replaying event slices of that
    width (see :class:`ShardTask`).
    """
    if window is not None and window <= 0:
        raise ValueError(f"stream window must be positive, got {window}")
    params = mode_parameters(mode)
    return [
        ShardTask(name, params, scale, num_accesses, seed, config, options, start, stop, window)
        for start, stop in shard_bounds(num_accesses, spec.shard_size)
    ]


def stream_shard_chain(
    name: str,
    mode: ModeLike,
    spec: ShardSpec,
    scale: float,
    num_accesses: int,
    seed: int,
    window: int,
    config: Optional[SystemConfig] = None,
    options: Optional[EngineOptions] = None,
) -> List[ShardTask]:
    """One (benchmark, mode) pair's streamed shard tasks, in window order."""
    return shard_chain(name, mode, spec, scale, num_accesses, seed, config, options, window)


def run_sharded(
    mode: ModeLike,
    trace: Trace,
    spec: ShardSpec,
    num_accesses: Optional[int] = None,
    config: Optional[SystemConfig] = None,
    options: Optional[EngineOptions] = None,
    seed: int = 0,
    baseline_time_ns: Optional[float] = None,
    distill: bool = False,
    vector: bool = False,
) -> SimulationResult:
    """Run one captured trace under one mode, shard by shard, in-process.

    This is the single-pair core the differential tests pin: every handoff
    round-trips through ``serialize``/``deserialize`` (so the in-process run
    exercises the same checkpoint machinery the pool path ships between
    processes) and the result is bit-identical to ``SimulationEngine.run``
    on the same trace.  ``distill`` additionally routes every distillable
    window through the event-replay path -- same checkpoints, same result,
    one hierarchy pass total.  ``vector`` batches each distilled window
    through the numpy kernels on top of that (again bit-identical; silently
    scalar when the stack does not support it).
    """
    from repro.sim import replaycore
    from repro.sim.distill import HierarchyDistiller

    params = mode_parameters(mode)
    total = len(trace) if num_accesses is None else num_accesses
    engine = SimulationEngine(params, config=config, options=options, seed=seed)
    events = HierarchyDistiller(config).distill(trace, total) if distill else None
    replayer = None
    if vector and events is not None and replaycore.HAVE_NUMPY:
        # The events were distilled in-process (no store), so the MAC tier
        # is computed in-process too instead of round-tripping through the
        # default store.
        tier = replaycore.compute_mac_tier(events, config) if params.mac_traffic else None
        replayer = replaycore.BatchReplayEngine(engine, events, tier=tier)
    carry: Optional[bytes] = None
    state: Optional[EngineState] = None
    for _, stop in shard_bounds(total, spec.shard_size):
        state = engine.begin(trace, total) if carry is None else EngineState.deserialize(carry)
        if events is not None and engine.distillable(state.components):
            if replayer is not None and replaycore.vectorizable(state.components):
                replayer.replay(state, stop=stop)
            else:
                engine.replay_events(state, events, stop=stop)
        else:
            engine.replay(state, trace, stop=stop)
        if stop < total:
            # n shards, n-1 handoffs: the final state finishes live, it is
            # never shipped, so serializing it would be pure waste.
            carry = state.serialize()
    assert state is not None
    return engine.finish(state, trace, baseline_time_ns=baseline_time_ns)


def prepare_suite(
    names: Sequence[str],
    modes: Sequence[ModeLike],
    spec: ShardSpec,
    scale: float,
    num_accesses: int,
    seed: int,
    config: Optional[SystemConfig] = None,
    options: Optional[EngineOptions] = None,
    stream: Optional[int] = None,
) -> List[List[ShardTask]]:
    """One suite's (benchmark, mode) chains, with their inputs precomputed.

    Chains come benchmark-major, mode-minor -- the serial order -- with
    ``NOPROTECT`` always included first, since it provides the baseline
    time :func:`~repro.sim.parallel.stitch_suite` stitches into every
    result.  Before returning, the parent pays each benchmark's
    mode-independent pre-pass (a no-op when the store already holds it), so
    the workers' loads are warm store hits instead of one redundant
    distillation per worker: the full event stream and MAC tier
    (:func:`~repro.sim.parallel.predistill`), or with ``stream`` the
    window-sized event slices
    (:func:`~repro.sim.distill.stream_event_slices`).
    """
    from repro.sim.distill import stream_event_slices

    chains = [
        shard_chain(name, mode, spec, scale, num_accesses, seed, config, options, stream)
        for name in names
        for mode in ordered_modes(modes)
    ]
    if stream is None:
        predistill(names, modes, scale, num_accesses, seed, config)
    else:
        for name in names:
            stream_event_slices(name, scale, seed, num_accesses, stream, config)
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
    chains: Sequence[Sequence[ShardTask]], finals: Sequence[Any], modes: Sequence[ModeLike]
) -> SuiteResults:
    """Merge one suite's chain finals into the serial driver's suite shape."""
    return stitch_suite(
        ((chain[0].name, chain[0].params.label, final) for chain, final in zip(chains, finals)),
        modes,
    )


def run_suite_sharded(
    benchmark_names: Iterable[str],
    spec: ShardSpec,
    modes: Sequence[ModeLike] = EVALUATED_MODES,
    scale: float = 0.002,
    num_accesses: int = 100_000,
    seed: int = 1234,
    config: Optional[SystemConfig] = None,
    options: Optional[EngineOptions] = None,
    jobs: Optional[int] = None,
    stream: Optional[int] = None,
    policy: Optional[SupervisionPolicy] = None,
    manifest: Optional[FailureManifest] = None,
    on_failure: Optional[str] = None,
    resume: bool = True,
) -> SuiteResults:
    """Run the benchmark suite with every (benchmark, mode) pair as a chain.

    Returns the same nested suite shape as
    :func:`repro.sim.engine.run_suite` -- and the same bits.  Each pair's
    shard chain pipelines through :func:`pipelined_map`, replaying each
    window from the benchmark's shared miss-event stream; an unsharded run
    passes ``ShardSpec(num_accesses)``, one full-length shard per chain.

    ``stream`` (a window width in accesses) selects the bounded-memory
    streamed path instead: the parent distills each benchmark once,
    window by window, into persistent ``events-slice`` store entries
    (:func:`~repro.sim.distill.stream_event_slices`), and every shard task
    replays from slice store keys -- no full trace or full event stream is
    ever materialised, in the parent or in any worker.  Bit-identical to
    the captured path, so streamed runs share the captured runs' persistent
    store entries.

    ``resume`` (the default) persists each chain's in-flight checkpoint as
    a content-keyed ``checkpoint-*`` store entry and, before running,
    resumes any chain whose previous (killed) run left one behind -- the
    resumed run replays the identical checkpoint sequence, so it is
    bit-identical to an uninterrupted run and a completed run spends its
    checkpoints (no residue).  ``policy``/``manifest``/``on_failure``
    select the supervision policy (see
    :func:`~repro.sim.parallel.resolve_supervision`); under
    ``on_failure="degrade"`` a quarantined step abandons only its own
    (benchmark, mode) chain, every other chain completes, and the merged
    suite simply omits the quarantined cells (dropping a benchmark whose
    NoProtect baseline was lost).
    """
    chains = prepare_suite(
        list(benchmark_names), modes, spec, scale, num_accesses, seed, config, options, stream
    )
    finals = run_chains(chains, jobs, resolve_supervision(policy, on_failure), manifest, resume)
    return stitch_chains(chains, finals, modes)


__all__ = [
    "ShardSpec",
    "ShardTask",
    "checkpoint_key",
    "prepare_suite",
    "run_chains",
    "run_shard_step",
    "run_sharded",
    "run_stream_shard_step",
    "run_suite_sharded",
    "shard_bounds",
    "shard_chain",
    "stitch_chains",
    "stream_shard_chain",
]
