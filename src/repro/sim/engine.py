"""The trace-driven simulation engine.

The engine replays a workload's memory-access trace through the on-chip data
hierarchy; every LLC miss and dirty writeback then pays the memory-system
cost of the data fetch plus whatever the selected mode's protection-path
components charge (:mod:`repro.sim.path`):

* AES decryption latency (C and above),
* a MAC(+UV) block fetch when the MAC cache misses (CI and above),
* a stealth-version fetch from Toleo over CXL IDE when both stealth caches
  miss (Toleo),
* a counter-tree walk through the metadata cache (CIF-Tree, Client-SGX),
* EPC page faults for working sets beyond the enclave page cache
  (Client-SGX), and
* packet inflation, dummy traffic and double-encryption latency (InvisiMem).

The engine itself is a thin driver: it owns the cache hierarchy, the rack
memory and the replay loop, and dispatches each LLC miss / writeback to the
component stack built from the mode's registered parameters.  Execution time
combines a fixed-CPI compute component with read-stall time (overlapped by a
memory-level-parallelism factor) and a bandwidth-saturation term, which is
what makes bandwidth-hungry workloads (pr, bfs, llama2-gen) pay more for the
CI metadata traffic than compute-bound ones -- the shape of Figure 6.

The engine has two replay loops over one resumable state: the per-access
:meth:`SimulationEngine.replay` and the distilled :func:`event_loop`
(:meth:`SimulationEngine.replay_events`), which runs every hook per event.
The batch replay of :mod:`repro.sim.replaycore` stands in for the second
when every component of the stack has a batch kernel.  The convenience
drivers :func:`compare_modes` and :func:`run_suite` run only the first:
they are the undistilled serial oracle every other path is pinned against.
"""

from __future__ import annotations

import heapq
import pickle
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.cache.cache import CacheStats
from repro.cache.hierarchy import CacheHierarchy
from repro.core.config import CACHE_BLOCK_BYTES, SystemConfig
from repro.memory.devices import RackMemory
from repro.sim.configs import (
    BASELINE_MODE,
    EVALUATED_MODES,
    ModeParameters,
    mode_label,
    mode_parameters,
)
from repro.sim.distill import WB_NONE, MissEventStream
from repro.sim.path import AccessContext, PathComponent, build_components
from repro.sim.results import LatencyBreakdown, SimulationResult, TrafficBreakdown
from repro.workloads.base import Trace, Workload


@dataclass
class EngineOptions:
    """Tunable parameters of the analytical performance model."""

    base_cpi: float = 0.6
    memory_level_parallelism: float = 4.0
    bandwidth_knee: float = 0.8
    timeline_samples: int = 50
    invisimem_queueing_pressure: float = 0.3
    #: InvisiMem replaces passive DRAM with HMC2 smart-memory stacks, whose
    #: links have substantially more bandwidth than the DDR4+CXL baseline;
    #: its inflated traffic is therefore served by a faster memory system.
    invisimem_bandwidth_multiplier: float = 2.0
    #: Fraction of the MAC-block fetch latency that is exposed on the read
    #: critical path (the rest overlaps with the data fetch).
    integrity_overlap: float = 0.5


@dataclass
class LevelCounters:
    """One cache level's statistics, without the cache."""

    stats: CacheStats = field(default_factory=CacheStats)


@dataclass
class HierarchyCounters:
    """The counters of a :class:`CacheHierarchy`, without its caches.

    The event path never looks a line up -- the distiller already did -- so
    a state begun on a :class:`MissEventStream` carries only what
    :func:`fold_statistics` adds and :meth:`SimulationEngine.finish` reads,
    under the hierarchy's own names: ``l1.stats`` to ``l3.stats``,
    ``memory_accesses`` and ``writebacks``.  Building and pickling it is
    nearly free, where a cold hierarchy is thousands of ``OrderedDict`` sets.
    """

    l1: LevelCounters = field(default_factory=LevelCounters)
    l2: LevelCounters = field(default_factory=LevelCounters)
    l3: LevelCounters = field(default_factory=LevelCounters)
    memory_accesses: int = 0
    writebacks: int = 0


@dataclass
class EngineState:
    """The complete mid-replay state of one simulation.

    Everything the replay loop mutates lives here: the cache hierarchy, the
    protection-path component stack (each component owning its caches, Toleo
    device and RNG) and the shared :class:`AccessContext` whose rack memory
    and traffic/latency accumulators the components charge into.  A state
    begun on a trace holds a live :class:`CacheHierarchy`, which
    :meth:`SimulationEngine.replay` runs every access through; one begun on
    a :class:`MissEventStream` holds its :class:`HierarchyCounters` only,
    since the event path folds the distiller's statistics instead.  ``position``
    is the global index of the next access to replay; ``num_accesses`` is the
    full run length the state was begun with (component construction -- e.g.
    the timeline sampling period -- depends on it, so resuming must preserve
    it).

    The state is plain picklable Python -- counters, dicts, seeded PRNGs --
    which is what makes the sharded execution path exact: a serialized
    checkpoint restored in another process and advanced over the next window
    is *bit-identical* to never having stopped, because the accumulators
    travel inside the state instead of being re-summed from per-shard deltas
    (float addition is not associative; re-summing would drift in the last
    bits).
    """

    hierarchy: Union[CacheHierarchy, HierarchyCounters]
    components: List[PathComponent]
    ctx: AccessContext
    llc_read_misses: int = 0
    writebacks: int = 0
    position: int = 0
    num_accesses: int = 0

    def serialize(self) -> bytes:
        """Checkpoint this state as bytes (shard handoff across processes)."""
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def deserialize(cls, blob: bytes) -> "EngineState":
        """Restore a checkpoint produced by :meth:`serialize`."""
        state = pickle.loads(blob)
        if not isinstance(state, cls):
            raise TypeError(
                f"checkpoint does not hold an EngineState (got {type(state).__name__})"
            )
        return state


class SimulationEngine:
    """Runs one workload under one protection configuration."""

    def __init__(
        self,
        params: ModeParameters,
        config: Optional[SystemConfig] = None,
        options: Optional[EngineOptions] = None,
        seed: int = 0,
    ) -> None:
        self.params = params
        self.config = config if config is not None else SystemConfig()
        self.options = options if options is not None else EngineOptions()
        self.seed = seed

    @classmethod
    def from_mode(
        cls,
        mode: str,
        config: Optional[SystemConfig] = None,
        options: Optional[EngineOptions] = None,
        seed: int = 0,
    ) -> "SimulationEngine":
        """Build an engine for a registered mode label."""
        return cls(mode_parameters(mode), config=config, options=options, seed=seed)

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------

    def run(
        self,
        workload: Workload | Trace,
        num_accesses: int = 100_000,
        baseline_time_ns: Optional[float] = None,
    ) -> SimulationResult:
        """Replay ``num_accesses`` of the workload (or captured trace)."""
        state = self.begin(workload, num_accesses)
        self.replay(state, workload)
        return self.finish(state, workload, baseline_time_ns=baseline_time_ns)

    # ------------------------------------------------------------------
    # Resumable replay: begin / replay / finish
    # ------------------------------------------------------------------

    def begin(
        self, workload: Workload | Trace | MissEventStream, num_accesses: int
    ) -> EngineState:
        """Build the fresh :class:`EngineState` a full ``num_accesses`` run
        starts from (position 0, cold caches, zeroed accumulators).

        On a :class:`MissEventStream` the state's hierarchy is its zeroed
        :class:`HierarchyCounters`, which the event path folds into; on a
        trace or workload it is a cold :class:`CacheHierarchy`, which
        :meth:`replay` drives."""
        cfg = self.config
        components = build_components(
            self.params,
            cfg,
            self.options,
            footprint_bytes=workload.footprint_bytes,
            seed=self.seed,
            num_accesses=num_accesses,
        )
        ctx = AccessContext(
            rack=RackMemory(cfg),
            traffic=TrafficBreakdown(),
            latency=LatencyBreakdown(),
            config=cfg,
            options=self.options,
            footprint_bytes=workload.footprint_bytes,
        )
        on_events = isinstance(workload, MissEventStream)
        return EngineState(
            hierarchy=HierarchyCounters() if on_events else CacheHierarchy(cfg),
            components=components,
            ctx=ctx,
            num_accesses=num_accesses,
        )

    def replay(
        self,
        state: EngineState,
        workload: Workload | Trace,
        stop: Optional[int] = None,
    ) -> EngineState:
        """Advance ``state`` over accesses ``[state.position, stop)``.

        ``workload`` supplies the access stream: resuming mid-trace
        (``position > 0``) needs a :class:`Trace` (workload phase generators
        cannot be fast-forwarded), whose :meth:`~Trace.window` is addressed in
        *global* indices via its ``start_index``.  Replaying a window mutates
        only ``state``, so ``replay(s, t, a); replay(s, t, b)`` is
        bit-identical to ``replay(s, t, b)`` -- the invariant the sharded
        execution path rests on.
        """
        if not isinstance(state.hierarchy, CacheHierarchy):
            raise ValueError(
                "this state was begun on a MissEventStream and holds hierarchy "
                "counters only; replay it from events (replay_events), or "
                "begin it on the trace to replay accesses"
            )
        stop = state.num_accesses if stop is None else stop
        if not state.position <= stop <= state.num_accesses:
            raise ValueError(
                f"cannot replay window [{state.position}, {stop}) of a "
                f"{state.num_accesses}-access run"
            )
        if state.position == stop:
            return state
        if isinstance(workload, Trace):
            offset = workload.start_index
            stream = workload.window(state.position - offset, stop - offset)
        elif state.position == 0:
            stream = workload.access_stream(stop)
        else:
            raise TypeError(
                "resuming mid-trace needs a captured Trace; "
                f"got {type(workload).__name__} at position {state.position}"
            )

        hierarchy = state.hierarchy
        ctx = state.ctx
        rack = ctx.rack
        traffic = ctx.traffic
        latency_sums = ctx.latency

        # Dispatch lists: only components that override a hook are called in
        # the replay loop, so a minimal mode pays for nothing it doesn't use.
        components = state.components
        per_access = [
            c.on_access
            for c in components
            if type(c).on_access is not PathComponent.on_access
        ]
        on_read_miss = [
            c.on_read_miss
            for c in components
            if type(c).on_read_miss is not PathComponent.on_read_miss
        ]
        on_writeback = [
            c.on_writeback
            for c in components
            if type(c).on_writeback is not PathComponent.on_writeback
        ]

        llc_read_misses = state.llc_read_misses
        writebacks = state.writebacks
        i = state.position

        for address, is_write in stream:
            result = hierarchy.access(address, is_write)
            if per_access:
                ctx.index = i
                for hook in per_access:
                    hook(ctx)
            i += 1
            if not result.llc_miss:
                continue

            # ---- data fetch: common to every mode ---------------------------
            ctx.address = address
            ctx.is_write = is_write
            dram_ns = rack.access(address, CACHE_BLOCK_BYTES, is_write=False)
            traffic.data_bytes += CACHE_BLOCK_BYTES
            llc_read_misses += 1
            latency_sums.dram_ns += dram_ns

            # ---- protection path -------------------------------------------
            for hook in on_read_miss:
                hook(ctx)

            # ---- dirty writeback -------------------------------------------
            if result.writeback_address is not None:
                writebacks += 1
                ctx.address = result.writeback_address
                ctx.is_write = True
                rack.access(result.writeback_address, CACHE_BLOCK_BYTES, is_write=True)
                traffic.data_bytes += CACHE_BLOCK_BYTES
                for hook in on_writeback:
                    hook(ctx)

        state.llc_read_misses = llc_read_misses
        state.writebacks = writebacks
        state.position = i
        return state

    # ------------------------------------------------------------------
    # Distilled event replay
    # ------------------------------------------------------------------

    @staticmethod
    def distillable(components: Sequence[PathComponent]) -> bool:
        """Whether a component stack can be driven from a miss-event stream.

        True when every component that overrides ``on_access`` declares its
        :attr:`~PathComponent.access_period`, so the event replay can re-fire
        the hook at exactly the indices the full replay would.  Components
        touched only at read misses and writebacks are always safe: cache
        *hits* affect nothing outside the data hierarchy.
        """
        return all(
            bool(getattr(component, "access_period", None))
            for component in components
            if type(component).on_access is not PathComponent.on_access
        )

    def replay_events(
        self,
        state: EngineState,
        events: MissEventStream,
        stop: Optional[int] = None,
    ) -> EngineState:
        """Advance ``state`` over ``[state.position, stop)`` from events alone.

        ``events`` is a :class:`MissEventStream` distilled from the same
        trace under the same cache geometry -- either the full-run stream or
        a windowed *slice* whose half-open window covers ``[state.position,
        stop)`` (events carry global indices, so a slice replays exactly like
        the matching window of the full stream).  The replay drives the rack
        memory and the protection components through exactly the calls the
        full per-access loop makes -- in the same order, so even float
        accumulation is bit-identical -- while every cache hit costs nothing.
        Index-periodic ``on_access`` telemetry fires at its recorded global
        indices between events.  This is :func:`event_loop`: what a stack
        replays through when numpy is absent or a component has no batch
        kernel.

        When the replay completes the stream's window (``stop ==
        events.stop_index``) the stream's per-window hierarchy counter deltas
        are folded into the state's hierarchy -- once per slice, in window
        order (:func:`fold_statistics`) -- so after the final slice
        :meth:`finish` reads the same statistics a full replay leaves behind.
        """
        stop, lo, hi = event_window(state, events, stop)
        if state.position == stop:
            return state
        event_loop(state, events, lo, hi, stop)
        state.position = stop
        if stop == events.stop_index:
            fold_statistics(state, events)
        return state

    def finish(
        self,
        state: EngineState,
        workload: Workload | Trace,
        baseline_time_ns: Optional[float] = None,
    ) -> SimulationResult:
        """Fold a fully-replayed state into its :class:`SimulationResult`."""
        instructions = workload.instruction_count(
            state.num_accesses, llc_misses=state.hierarchy.l3.stats.misses
        )
        execution_time_ns = self._execution_time_ns(
            instructions, state.ctx.latency, state.ctx.traffic
        )
        latency = self._average_latency(state.ctx.latency, state.llc_read_misses)

        # Telemetry fields contributed by components (MAC/stealth hit rates,
        # Trip format mix, Toleo usage/timeline); defaults cover their absence.
        measured: Dict[str, object] = {}
        for component in state.components:
            measured.update(component.telemetry())

        return SimulationResult(
            workload=workload.name,
            mode=self.params.label,
            instructions=instructions,
            accesses=state.num_accesses,
            llc_misses=state.hierarchy.l3.stats.misses,
            writebacks=state.writebacks,
            execution_time_ns=execution_time_ns,
            traffic=state.ctx.traffic,
            latency=latency,
            baseline_time_ns=baseline_time_ns,
            **measured,
        )

    # ------------------------------------------------------------------
    # Analytical execution-time and latency models
    # ------------------------------------------------------------------

    def _execution_time_ns(
        self,
        instructions: int,
        read_latency_sums: LatencyBreakdown,
        traffic: TrafficBreakdown,
    ) -> float:
        cfg = self.config
        opts = self.options
        compute_ns = instructions * opts.base_cpi * cfg.cycle_ns
        stall_ns = read_latency_sums.total_ns / opts.memory_level_parallelism
        execution_ns = compute_ns + stall_ns

        bandwidth_gbps = cfg.local_dram_bandwidth_gbps + cfg.cxl_link_bandwidth_gbps
        if self.params.invisimem is not None:
            # Smart-memory stacks serve the inflated traffic faster.
            bandwidth_gbps *= opts.invisimem_bandwidth_multiplier
        bytes_per_ns = bandwidth_gbps  # 1 GB/s == 1 byte/ns
        if bytes_per_ns > 0:
            transfer_ns = traffic.total_bytes / bytes_per_ns
            knee_time = transfer_ns / opts.bandwidth_knee
            if knee_time > execution_ns:
                execution_ns = knee_time
        return execution_ns

    @staticmethod
    def _average_latency(sums: LatencyBreakdown, reads: int) -> LatencyBreakdown:
        if reads <= 0:
            return LatencyBreakdown()
        return LatencyBreakdown(
            dram_ns=sums.dram_ns / reads,
            decryption_ns=sums.decryption_ns / reads,
            integrity_ns=sums.integrity_ns / reads,
            freshness_ns=sums.freshness_ns / reads,
            side_channel_ns=sums.side_channel_ns / reads,
        )


# ---------------------------------------------------------------------------
# The event loop
# ---------------------------------------------------------------------------


def event_window(
    state: EngineState, events: MissEventStream, stop: Optional[int]
) -> Tuple[int, int, int]:
    """Check one event-replay window; returns ``(stop, lo, hi)``.

    ``stop`` defaults to the end of ``events`` (capped at the run), and the
    window ``[state.position, stop)`` must lie inside both the run and the
    stream; ``events[lo:hi]`` are the window's events.
    """
    stop = min(state.num_accesses, events.stop_index) if stop is None else stop
    if not state.position <= stop <= state.num_accesses:
        raise ValueError(
            f"cannot replay window [{state.position}, {stop}) of a "
            f"{state.num_accesses}-access run"
        )
    if not (events.start_index <= state.position and stop <= events.stop_index):
        raise ValueError(
            f"event stream covers [{events.start_index}, {events.stop_index}) "
            f"but the replay needs [{state.position}, {stop})"
        )
    return stop, bisect_left(events.indices, state.position), bisect_left(events.indices, stop)


def fold_statistics(state: EngineState, events: MissEventStream) -> None:
    """Fold a stream's per-window hierarchy counter deltas into ``state``.

    Called once per slice, when a replay completes the slice's window.
    Every access hits L1 exactly once, so a hierarchy that has folded the
    slices of ``[0, start_index)`` -- and nothing else -- shows exactly
    ``start_index`` L1 accesses; anything else means a slice was folded
    twice, skipped, or mixed with :meth:`SimulationEngine.replay` in one run.
    """
    hierarchy = state.hierarchy
    l1_accesses = hierarchy.l1.stats.accesses
    if l1_accesses != events.start_index:
        raise ValueError(
            f"cannot fold the [{events.start_index}, {events.stop_index}) "
            f"pre-pass statistics into a hierarchy holding {l1_accesses} "
            "replayed accesses; each slice folds exactly once, in "
            "window order -- do not mix replay() and replay_events() "
            "within one run"
        )
    for level, counters in (("l1", hierarchy.l1), ("l2", hierarchy.l2), ("l3", hierarchy.l3)):
        counters.stats = counters.stats.merge(events.level_stats[level])
    hierarchy.memory_accesses += events.memory_accesses
    hierarchy.writebacks += events.hierarchy_writebacks


def event_loop(
    state: EngineState, events: MissEventStream, lo: int, hi: int, stop: int
) -> None:
    """The per-event replay loop, over ``events[lo:hi]``, ending at ``stop``.

    Performs the engine's data fetch and runs every component's
    ``on_read_miss`` / ``on_writeback`` hooks event by event, and fires
    every index-periodic ``on_access`` sampler at its global indices below
    ``stop`` between events, merged in (index, stack order) -- the order
    the full replay fires them in.  The data fetch's rack traffic is
    inlined rather than routed through ``rack.access()``: each device's
    latency is a constant and the page-to-device mapping a fixed modulus,
    so the device counters are tallied in bulk at the end.
    """
    ctx = state.ctx
    components = state.components
    read_hooks = [
        c.on_read_miss
        for c in components
        if type(c).on_read_miss is not PathComponent.on_read_miss
    ]
    writeback_hooks = [
        c.on_writeback
        for c in components
        if type(c).on_writeback is not PathComponent.on_writeback
    ]

    # Periodic on_access telemetry: one lazy index stream per sampling
    # component, merged in (index, stack order).
    def index_stream(first: int, period: int, order: int, hook):
        return ((index, order, hook) for index in range(first, stop, period))

    sampling = False
    streams = []
    for order, component in enumerate(components):
        if type(component).on_access is PathComponent.on_access:
            continue
        period = getattr(component, "access_period", None)
        if not period:
            raise ValueError(
                f"{type(component).__name__} overrides on_access without "
                "declaring access_period; use the full replay instead"
            )
        sampling = True
        first = -(-state.position // period) * period
        streams.append(index_stream(first, period, order, component.on_access))
    pending = heapq.merge(*streams)
    next_sample = next(pending, None)

    latency = ctx.latency
    traffic = ctx.traffic
    rack = ctx.rack
    page_bytes = rack.config.toleo.page_bytes
    cxl_period = rack._cxl_period
    local_latency = rack.local.latency_ns
    cxl_latency = rack.pool.latency_ns
    local_reads = cxl_reads = local_writes = cxl_writes = 0
    # Iterate the builtin arrays, not numpy views: components do Python
    # arithmetic on the addresses, and numpy scalar division would silently
    # promote to float64.
    window = zip(
        events.indices[lo:hi],
        events.addresses[lo:hi],
        events.writes[lo:hi],
        events.writeback_addresses[lo:hi],
    )
    for index, address, is_write, wb in window:
        while next_sample is not None and next_sample[0] <= index:
            ctx.index, _, hook = next_sample
            hook(ctx)
            next_sample = next(pending, None)
        if sampling:
            ctx.index = index
        ctx.address = address
        ctx.is_write = bool(is_write)
        if (address // page_bytes) % cxl_period == 0:
            cxl_reads += 1
            latency.dram_ns += cxl_latency
        else:
            local_reads += 1
            latency.dram_ns += local_latency
        traffic.data_bytes += CACHE_BLOCK_BYTES
        for hook in read_hooks:
            hook(ctx)
        if wb != WB_NONE:
            ctx.address = wb
            ctx.is_write = True
            if (wb // page_bytes) % cxl_period == 0:
                cxl_writes += 1
            else:
                local_writes += 1
            traffic.data_bytes += CACHE_BLOCK_BYTES
            for hook in writeback_hooks:
                hook(ctx)
    while next_sample is not None:
        ctx.index, _, hook = next_sample
        hook(ctx)
        next_sample = next(pending, None)

    for stats, reads, writes in (
        (rack.local.stats, local_reads, local_writes),
        (rack.pool.stats, cxl_reads, cxl_writes),
    ):
        stats.reads += reads
        stats.writes += writes
        stats.bytes_read += reads * CACHE_BLOCK_BYTES
        stats.bytes_written += writes * CACHE_BLOCK_BYTES
    state.llc_read_misses += local_reads + cxl_reads
    state.writebacks += local_writes + cxl_writes


# ---------------------------------------------------------------------------
# Convenience drivers
# ---------------------------------------------------------------------------

def ordered_modes(modes: Sequence[str]) -> List[str]:
    """The mode execution order: NoProtect first (it provides the baseline)."""
    ordered = [mode_label(mode) for mode in modes]
    if BASELINE_MODE not in ordered:
        ordered.insert(0, BASELINE_MODE)
    return ordered


def compare_modes(
    workload_factory,
    modes: Sequence[str] = EVALUATED_MODES,
    num_accesses: int = 100_000,
    config: Optional[SystemConfig] = None,
    options: Optional[EngineOptions] = None,
    seed: int = 0,
) -> Dict[str, SimulationResult]:
    """Run one workload under several configurations with a shared baseline.

    This is the undistilled serial reference: every mode pushes every access
    through the cache hierarchy (:meth:`SimulationEngine.run`), which is
    what the golden fixtures regenerate from and what every faster path --
    the suite pipeline of :mod:`repro.sim.shard` -- is pinned bit-identical
    against.

    ``workload_factory`` is a zero-argument callable returning a *fresh*
    workload instance; its trace is captured once and replayed for every
    mode.

    ``NOPROTECT`` always *runs* first (it provides the baseline time every
    other result's slowdown is reported against), but the returned dict
    contains only the requested modes -- the baseline result no longer leaks
    into callers that did not ask for it.
    """
    results: Dict[str, SimulationResult] = {}
    baseline_time: Optional[float] = None

    trace = workload_factory().capture(num_accesses)
    requested = {mode_label(mode) for mode in modes}
    for mode in ordered_modes(modes):
        engine = SimulationEngine.from_mode(mode, config=config, options=options, seed=seed)
        result = engine.run(trace, num_accesses=num_accesses, baseline_time_ns=baseline_time)
        if mode == BASELINE_MODE:
            baseline_time = result.execution_time_ns
            result.baseline_time_ns = baseline_time
        if mode in requested:
            results[mode] = result

    # Fill in the baseline for modes that ran before it was known (defensive).
    for result in results.values():
        if result.baseline_time_ns is None:
            result.baseline_time_ns = baseline_time
    return results


def run_suite(
    benchmark_names: Iterable[str],
    modes: Sequence[str] = EVALUATED_MODES,
    scale: float = 0.002,
    num_accesses: int = 100_000,
    seed: int = 1234,
    config: Optional[SystemConfig] = None,
    options: Optional[EngineOptions] = None,
) -> Dict[str, Dict[str, SimulationResult]]:
    """Run a list of named benchmarks under the requested configurations.

    The serial, undistilled reference oracle (see :func:`compare_modes`);
    the experiment harness runs the bit-identical suite pipeline instead.
    """
    from repro.workloads.registry import get_workload

    suite: Dict[str, Dict[str, SimulationResult]] = {}
    for name in benchmark_names:
        suite[name] = compare_modes(
            lambda name=name: get_workload(name, scale=scale, seed=seed),
            modes=modes,
            num_accesses=num_accesses,
            config=config,
            options=options,
            seed=seed,
        )
    return suite


__all__ = [
    "EngineOptions",
    "EngineState",
    "HierarchyCounters",
    "SimulationEngine",
    "compare_modes",
    "event_loop",
    "event_window",
    "fold_statistics",
    "ordered_modes",
    "run_suite",
]
