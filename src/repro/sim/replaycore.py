"""Vectorized event-replay core: numpy batch kernels over miss-event columns.

PR 5 reduced per-mode work to a scalar Python loop over the distilled
:class:`~repro.sim.distill.MissEventStream`.  This module removes the loop
for the constant-cost parts of the protection path:

* :class:`BatchReplayEngine` replays a window of events with numpy kernels
  for the components whose per-event cost depends only on the event columns
  (encryption latency, MAC fetches, InvisiMem packet inflation, the engine's
  own rack data fetch and device tallies), and runs only the *residual*
  stateful components (counter tree, EPC paging, Toleo stealth freshness,
  ``access_period`` samplers) through the original scalar hook loop.

* :func:`distilled_mac_tier` is a second distillation tier keyed per *mode
  family*: the MAC cache's hit/miss verdict for every event depends only on
  the event sequence and the MAC-cache geometry -- not on the mode's
  ``fetch_bytes`` -- so it is simulated once per ``(events_key, mac
  geometry)`` into the :class:`~repro.sim.store.ResultStore` and shared by
  every MAC-bearing mode (CI, Toleo, CIF-Tree, Client-SGX, InvisiMem, ...).

The contract is the repo's differential discipline: the vectorized replay is
**bit-identical** to :meth:`SimulationEngine.replay_events` (which is itself
bit-identical to the full serial replay) for every registered mode and every
shard width.  Floats make that non-trivial: ``np.sum`` uses pairwise
summation, which is a *different* fold than the scalar ``+=`` loop, so every
float accumulator is advanced with :func:`_sequential_sum` -- a seeded
``np.add.accumulate`` scan, the same left fold the loop performs.

Windowed replay composes: seeding each window's scan with the running
accumulator keeps a sharded chain one unbroken fold, so checkpointed chains
match too.  One caveat: the vectorized path never touches the components'
own cache objects (the MAC tier stands in for the MAC-cache lookups), so a
checkpoint produced by a vectorized window can only be resumed vectorized.
A scalar window *can* be resumed vectorized -- the tier's simulator state at
any event position equals the real cache's.  Drivers use one strategy per
chain, so this never arises in practice.

Everything degrades gracefully: without numpy (:data:`HAVE_NUMPY` False) or
with an unknown component type in the stack, :func:`vectorizable` returns
False and callers take the scalar path.  Third-party components opt in via
:func:`declare_scalar_safe` (run in the residual loop) or
:func:`register_batch_kernel` (handled by a custom batch kernel).
"""

from __future__ import annotations

import base64
import heapq
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Set

from repro.core.config import CACHE_BLOCK_BYTES, MACS_PER_BLOCK, SystemConfig
from repro.sim.distill import WB_NONE, MissEventStream, events_key
from repro.sim.path import (
    CounterTreeComponent,
    EncryptionComponent,
    EpcPagingComponent,
    InvisiMemComponent,
    MacIntegrityComponent,
    PathComponent,
    StealthFreshnessComponent,
)
from repro.sim.store import ResultStore, content_key, default_store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import EngineState, SimulationEngine
    from repro.sim.path import AccessContext

try:  # numpy is deliberately optional: the package never requires it, the
    # vectorized path simply switches itself off when it is absent.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on numpy-free installs
    np = None

#: Whether the vectorized replay path is available at all.
HAVE_NUMPY = np is not None


# ---------------------------------------------------------------------------
# Bit-identical float accumulation
# ---------------------------------------------------------------------------


def _sequential_sum(initial: float, values: "np.ndarray") -> float:
    """Fold ``values`` into ``initial`` exactly like a scalar ``+=`` loop.

    ``np.sum`` uses pairwise summation -- a different rounding order than the
    left fold the scalar replay performs -- so it would break bit-identity.
    ``np.add.accumulate`` is a defined sequential left-to-right scan; seeding
    element 0 with the running accumulator makes the whole run (across batch
    windows and shard checkpoints) one unbroken fold.
    """
    if len(values) == 0:
        return initial
    seeded = np.empty(len(values) + 1, dtype=np.float64)
    seeded[0] = initial
    seeded[1:] = values
    return float(np.add.accumulate(seeded)[-1])


# ---------------------------------------------------------------------------
# MAC-tier distillation (per mode family)
# ---------------------------------------------------------------------------

@dataclass
class MacTier:
    """The MAC cache's verdict for every event of one stream.

    ``read_hits[i]`` / ``wb_hits[i]`` are 1 when event ``i``'s read-path /
    writeback-path MAC-cache lookup hits (``wb_hits`` is 0 for events with
    no writeback).  The sequence depends only on the event addresses and the
    MAC-cache geometry -- not on a mode's ``fetch_bytes`` -- so one tier
    serves every mode in the same MAC configuration family.
    """

    num_events: int
    read_hits: bytearray
    wb_hits: bytearray

    def validate(self) -> None:
        if len(self.read_hits) != self.num_events or len(self.wb_hits) != self.num_events:
            raise ValueError(
                f"tier arrays disagree with num_events={self.num_events}: "
                f"{len(self.read_hits)} read flags, {len(self.wb_hits)} wb flags"
            )

    @property
    def read_hits_view(self) -> "np.ndarray":
        """Read-only ``uint8`` view of the read-path hit flags."""
        view = np.frombuffer(self.read_hits, dtype=np.uint8)
        view.flags.writeable = False
        return view

    @property
    def wb_hits_view(self) -> "np.ndarray":
        """Read-only ``uint8`` view of the writeback-path hit flags."""
        view = np.frombuffer(self.wb_hits, dtype=np.uint8)
        view.flags.writeable = False
        return view

    def to_payload(self) -> Dict[str, Any]:
        return {
            "num_events": self.num_events,
            "read_hits": base64.b64encode(bytes(self.read_hits)).decode("ascii"),
            "wb_hits": base64.b64encode(bytes(self.wb_hits)).decode("ascii"),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MacTier":
        tier = cls(
            num_events=int(payload["num_events"]),
            read_hits=bytearray(base64.b64decode(payload["read_hits"])),
            wb_hits=bytearray(base64.b64decode(payload["wb_hits"])),
        )
        tier.validate()
        return tier


def mac_geometry_fields(config: Optional[SystemConfig] = None) -> Dict[str, int]:
    """The MAC-cache geometry a tier is keyed by."""
    cfg = config if config is not None else SystemConfig()
    return {
        "cache_bytes": cfg.mac_cache_bytes,
        "cache_ways": cfg.mac_cache_ways,
        "line_bytes": CACHE_BLOCK_BYTES,
        "macs_per_block": MACS_PER_BLOCK,
    }


def mac_tier_key(events: MissEventStream, config: Optional[SystemConfig] = None) -> str:
    """Store key of the MAC tier for one full-run stream under one config.

    Folds in the stream's own :func:`~repro.sim.distill.events_key` (trace
    identity + hierarchy geometry) plus the MAC-cache geometry -- the *mode
    family* key: every mode sharing a MAC configuration maps here.
    """
    return content_key(
        "mactier",
        events=events_key(
            events.name, events.scale, events.seed, events.num_accesses, config
        ),
        mac=mac_geometry_fields(config),
    )


def compute_mac_tier(events: MissEventStream, config: Optional[SystemConfig] = None) -> MacTier:
    """Simulate the MAC cache over the whole event sequence, once.

    Replicates :class:`~repro.cache.cache.SetAssociativeCache` LRU exactly
    (the :class:`~repro.sim.distill.HierarchyDistiller` idiom: flat per-set
    dicts, move-to-end on hit, evict the first key at way capacity).  Dirty
    bits are not tracked: dirtiness only feeds the ``dirty_evictions``
    statistic, which no lookup verdict -- and no simulation result -- reads.
    """
    cfg = config if config is not None else SystemConfig()
    line_bytes = CACHE_BLOCK_BYTES
    lines = max(1, cfg.mac_cache_bytes // line_bytes)
    ways = min(cfg.mac_cache_ways, lines)
    num_sets = max(1, lines // ways)
    sets: List[Dict[int, bool]] = [dict() for _ in range(num_sets)]
    read_hits = bytearray(len(events))
    wb_hits = bytearray(len(events))
    # MacCache.mac_block_address(a) = (a // line // MACS_PER_BLOCK) * line;
    # SetAssociativeCache then re-divides by line, so the effective block
    # index is a // line // MACS_PER_BLOCK.
    divisor = line_bytes * MACS_PER_BLOCK
    for pos, (address, wb) in enumerate(zip(events.addresses, events.writeback_addresses)):
        block = address // divisor
        tags = sets[block % num_sets]
        tag = block // num_sets
        if tag in tags:
            tags[tag] = tags.pop(tag)
            read_hits[pos] = 1
        else:
            if len(tags) >= ways:
                del tags[next(iter(tags))]
            tags[tag] = True
        if wb != WB_NONE:
            block = wb // divisor
            tags = sets[block % num_sets]
            tag = block // num_sets
            if tag in tags:
                tags[tag] = tags.pop(tag)
                wb_hits[pos] = 1
            else:
                if len(tags) >= ways:
                    del tags[next(iter(tags))]
                tags[tag] = True
    return MacTier(num_events=len(events), read_hits=read_hits, wb_hits=wb_hits)


def distilled_mac_tier(
    events: MissEventStream,
    config: Optional[SystemConfig] = None,
    store: Optional[ResultStore] = None,
) -> MacTier:
    """The MAC tier for ``events``, served from the store when present."""
    if events.start_index != 0:
        raise ValueError("the MAC tier needs a full-run event stream (start_index 0)")
    if store is None:
        store = default_store()
    key = mac_tier_key(events, config)
    cached = store.get(key, decoder=MacTier.from_payload)
    if cached is not None and cached.num_events == len(events):
        return cached
    tier = compute_mac_tier(events, config)
    store.put(key, tier, encoder=MacTier.to_payload)
    return tier


# ---------------------------------------------------------------------------
# Component capability registry
# ---------------------------------------------------------------------------


class EventBatch:
    """One replay window's events in packed numpy column form.

    Built once per :meth:`BatchReplayEngine.replay` call and shared by every
    batch kernel: ``indices`` / ``addresses`` / ``writes`` / ``writebacks``
    are read-only column slices over ``[lo, hi)`` of the stream; ``wb_mask``
    selects the events with a dirty eviction and ``wb_addresses`` their
    (compacted) writeback addresses, in event order.
    """

    __slots__ = (
        "lo",
        "hi",
        "indices",
        "addresses",
        "writes",
        "writebacks",
        "wb_mask",
        "wb_addresses",
    )

    def __init__(self, events: MissEventStream, lo: int, hi: int) -> None:
        self.lo = lo
        self.hi = hi
        self.indices = events.index_view[lo:hi]
        self.addresses = events.address_view[lo:hi]
        self.writes = events.write_view[lo:hi]
        self.writebacks = events.writeback_view[lo:hi]
        self.wb_mask = self.writebacks != WB_NONE
        self.wb_addresses = self.writebacks[self.wb_mask]

    @property
    def num_events(self) -> int:
        return len(self.addresses)

    @property
    def num_writebacks(self) -> int:
        return len(self.wb_addresses)


#: A batch kernel applies one component's whole-window contribution.  It must
#: only touch accumulators that component exclusively owns -- that ownership
#: is what makes lifting it out of the interleaved per-event loop exact.
BatchKernel = Callable[["BatchReplayEngine", PathComponent, "AccessContext", EventBatch], None]


def _cxl_mask(addresses: "np.ndarray", page_bytes: int, cxl_period: int) -> "np.ndarray":
    """Which addresses the CXL pool serves (RackMemory.region_of, columnar)."""
    return (addresses // page_bytes) % cxl_period == 0


def _encryption_kernel(
    replay: "BatchReplayEngine",
    component: EncryptionComponent,
    ctx: "AccessContext",
    batch: EventBatch,
) -> None:
    # One constant AES latency per read miss.  n float adds of c are NOT
    # n * c bit-for-bit, hence the sequential fold.
    ctx.latency.decryption_ns = _sequential_sum(
        ctx.latency.decryption_ns,
        np.full(batch.num_events, component.aes_latency_ns, dtype=np.float64),
    )


def _invisimem_kernel(
    replay: "BatchReplayEngine",
    component: InvisiMemComponent,
    ctx: "AccessContext",
    batch: EventBatch,
) -> None:
    # _inflate() fires on both the read and writeback paths; the added
    # latency only on reads.  All integer counters, plus one constant-float
    # fold.
    per_access = batch.num_events + batch.num_writebacks
    ctx.traffic.data_bytes += per_access * component.packet_overhead_bytes
    ctx.traffic.dummy_bytes += per_access * component.dummy_bytes_per_access
    ctx.latency.side_channel_ns = _sequential_sum(
        ctx.latency.side_channel_ns,
        np.full(batch.num_events, component.added_latency_ns, dtype=np.float64),
    )


def _mac_integrity_kernel(
    replay: "BatchReplayEngine",
    component: MacIntegrityComponent,
    ctx: "AccessContext",
    batch: EventBatch,
) -> None:
    # The MAC tier stands in for the cache lookups; everything else is the
    # scalar hooks' arithmetic, batched.  Device classification uses the
    # *data* (or writeback) address, exactly as rack.access(ctx.address) did.
    tier = replay.mac_tier()
    lo, hi = batch.lo, batch.hi
    read_hits = tier.read_hits_view[lo:hi] != 0
    wb_hit_flags = tier.wb_hits_view[lo:hi] != 0

    rack = ctx.rack
    page_bytes = rack.config.toleo.page_bytes
    cxl_period = rack._cxl_period
    fetch_bytes = component.fetch_bytes

    read_miss_addresses = batch.addresses[~read_hits]
    read_misses = len(read_miss_addresses)
    if read_misses:
        miss_cxl = _cxl_mask(read_miss_addresses, page_bytes, cxl_period)
        mac_latency = (
            np.where(miss_cxl, rack.pool.latency_ns, rack.local.latency_ns)
            * ctx.options.integrity_overlap
        )
        ctx.latency.integrity_ns = _sequential_sum(ctx.latency.integrity_ns, mac_latency)
        ctx.traffic.mac_uv_bytes += read_misses * fetch_bytes
        cxl_fetches = int(miss_cxl.sum())
        local_fetches = read_misses - cxl_fetches
        rack.local.stats.reads += local_fetches
        rack.local.stats.bytes_read += local_fetches * fetch_bytes
        rack.pool.stats.reads += cxl_fetches
        rack.pool.stats.bytes_read += cxl_fetches * fetch_bytes

    wb_miss_addresses = batch.writebacks[batch.wb_mask & ~wb_hit_flags]
    wb_misses = len(wb_miss_addresses)
    if wb_misses:
        miss_cxl = _cxl_mask(wb_miss_addresses, page_bytes, cxl_period)
        ctx.traffic.mac_uv_bytes += wb_misses * fetch_bytes
        cxl_fetches = int(miss_cxl.sum())
        local_fetches = wb_misses - cxl_fetches
        rack.local.stats.writes += local_fetches
        rack.local.stats.bytes_written += local_fetches * fetch_bytes
        rack.pool.stats.writes += cxl_fetches
        rack.pool.stats.bytes_written += cxl_fetches * fetch_bytes

    # The tier replaced the cache lookups; credit the hit/miss (and the
    # one-insertion-per-miss) counters those lookups would have bumped, so
    # the mode's mac_cache_hit_rate telemetry is unchanged.  Eviction
    # counters stay at zero -- no result or telemetry field reads them.
    stats = component.cache.stats
    hits = int(read_hits.sum()) + int(wb_hit_flags.sum())
    misses = (batch.num_events - int(read_hits.sum())) + wb_misses
    stats.hits += hits
    stats.misses += misses
    stats.insertions += misses


#: Component types handled natively by a batch kernel.
_BATCH_KERNELS: Dict[type, BatchKernel] = {
    EncryptionComponent: _encryption_kernel,
    MacIntegrityComponent: _mac_integrity_kernel,
    InvisiMemComponent: _invisimem_kernel,
}

#: Component types safe to run in the residual scalar loop alongside the
#: batch kernels.  Safe means: the component never touches an accumulator a
#: batch kernel owns (dram_ns, decryption_ns, integrity_ns, side_channel_ns,
#: data_bytes, dummy_bytes, mac_uv_bytes) -- otherwise batching would
#: reorder the float fold.
_SCALAR_SAFE_TYPES: Set[type] = {
    StealthFreshnessComponent,
    CounterTreeComponent,
    EpcPagingComponent,
}


def declare_scalar_safe(component_type: type) -> None:
    """Register a third-party component as safe for the residual loop.

    The component promises not to write any batch-owned accumulator (see
    ``_SCALAR_SAFE_TYPES``); its hooks then run per event in the scalar
    residual loop, interleaved exactly as ``replay_events`` interleaves
    them.  See ``docs/extending.md``.
    """
    if not (isinstance(component_type, type) and issubclass(component_type, PathComponent)):
        raise TypeError(f"{component_type!r} is not a PathComponent subclass")
    _SCALAR_SAFE_TYPES.add(component_type)


def register_batch_kernel(component_type: type, kernel: BatchKernel) -> None:
    """Register a custom batch kernel for a third-party component type."""
    if not (isinstance(component_type, type) and issubclass(component_type, PathComponent)):
        raise TypeError(f"{component_type!r} is not a PathComponent subclass")
    _BATCH_KERNELS[component_type] = kernel


def vectorizable(components: Sequence[PathComponent]) -> bool:
    """Whether a component stack can take the vectorized replay path.

    Mirrors :meth:`SimulationEngine.distillable`'s role for the batch tier:
    True only when numpy is importable and every component is either handled
    by a batch kernel or declared scalar-safe.  Unknown component types make
    the whole stack fall back to the scalar ``replay_events`` -- exact,
    just slower.
    """
    if not HAVE_NUMPY:
        return False
    return all(
        type(c) in _BATCH_KERNELS or type(c) in _SCALAR_SAFE_TYPES for c in components
    )


# ---------------------------------------------------------------------------
# The batch replay engine
# ---------------------------------------------------------------------------


class BatchReplayEngine:
    """Replays miss-event windows with numpy kernels, bit-identically.

    One instance wraps one ``(engine, events)`` pair; :meth:`replay` has the
    same window contract as :meth:`SimulationEngine.replay_events` and can
    drive a sharded chain window by window.  The MAC tier is fetched lazily
    (and only for stacks that carry a :class:`MacIntegrityComponent`).
    """

    def __init__(
        self,
        engine: "SimulationEngine",
        events: MissEventStream,
        store: Optional[ResultStore] = None,
        tier: Optional[MacTier] = None,
    ) -> None:
        self.engine = engine
        self.events = events
        self.store = store
        self._tier = tier

    def mac_tier(self) -> MacTier:
        """The MAC tier for this engine's event stream.

        Served from the injected tier when one was supplied (the in-process
        sharding harness computes it directly), else from the result store
        (``self.store`` or the default store) -- one tier entry shared by
        every MAC-bearing mode of the same events/config family.
        """
        if self._tier is None:
            self._tier = distilled_mac_tier(self.events, self.engine.config, self.store)
        return self._tier

    def replay(
        self,
        state: "EngineState",
        stop: Optional[int] = None,
    ) -> "EngineState":
        """Advance ``state`` over ``[state.position, stop)`` in batch form.

        Same validation, same window semantics, same counters -- bit for
        bit -- as :meth:`SimulationEngine.replay_events`; see the module
        docstring for why the float folds stay identical.
        """
        events = self.events
        stop = state.num_accesses if stop is None else stop
        if not state.position <= stop <= state.num_accesses:
            raise ValueError(
                f"cannot replay window [{state.position}, {stop}) of a "
                f"{state.num_accesses}-access run"
            )
        if events.start_index != 0 or events.num_accesses != state.num_accesses:
            raise ValueError(
                f"event stream covers [{events.start_index}, {events.stop_index}) "
                f"but the run needs [0, {state.num_accesses})"
            )
        if not vectorizable(state.components):
            raise ValueError(
                "component stack is not vectorizable; use replay_events() instead"
            )
        if state.position == stop:
            return state

        ctx = state.ctx
        rack = ctx.rack
        traffic = ctx.traffic
        latency_sums = ctx.latency
        components = state.components

        lo = bisect_left(events.indices, state.position)
        hi = bisect_left(events.indices, stop)
        batch = EventBatch(events, lo, hi)
        n = batch.num_events
        n_wb = batch.num_writebacks

        # ---- engine data fetch: common to every mode (batched) ------------
        if n:
            page_bytes = rack.config.toleo.page_bytes
            cxl_period = rack._cxl_period
            read_cxl = _cxl_mask(batch.addresses, page_bytes, cxl_period)
            latency_sums.dram_ns = _sequential_sum(
                latency_sums.dram_ns,
                np.where(read_cxl, rack.pool.latency_ns, rack.local.latency_ns),
            )
            cxl_reads = int(read_cxl.sum())
            local_reads = n - cxl_reads
            wb_cxl = _cxl_mask(batch.wb_addresses, page_bytes, cxl_period)
            cxl_writes = int(wb_cxl.sum())
            local_writes = n_wb - cxl_writes
            traffic.data_bytes += (n + n_wb) * CACHE_BLOCK_BYTES
            state.llc_read_misses += n
            state.writebacks += n_wb
            local_stats = rack.local.stats
            local_stats.reads += local_reads
            local_stats.writes += local_writes
            local_stats.bytes_read += local_reads * CACHE_BLOCK_BYTES
            local_stats.bytes_written += local_writes * CACHE_BLOCK_BYTES
            pool_stats = rack.pool.stats
            pool_stats.reads += cxl_reads
            pool_stats.writes += cxl_writes
            pool_stats.bytes_read += cxl_reads * CACHE_BLOCK_BYTES
            pool_stats.bytes_written += cxl_writes * CACHE_BLOCK_BYTES

        # ---- protection path: batch kernels, residual hooks scalar --------
        residual: List[PathComponent] = []
        for component in components:
            kernel = _BATCH_KERNELS.get(type(component))
            if kernel is not None:
                if n:
                    kernel(self, component, ctx, batch)
            else:
                residual.append(component)

        self._replay_residual(state, residual, batch, stop)

        state.position = stop
        if stop == state.num_accesses:
            hierarchy = state.hierarchy
            if hierarchy.l3.stats.accesses or hierarchy.l1.stats.accesses:
                raise ValueError(
                    "cannot fold pre-pass statistics into a hierarchy that "
                    "already replayed accesses; do not mix replay() and "
                    "replay_events() within one run"
                )
            for level, cache in (("l1", hierarchy.l1), ("l2", hierarchy.l2), ("l3", hierarchy.l3)):
                cache.stats = cache.stats.merge(events.level_stats[level])
            hierarchy.memory_accesses += events.memory_accesses
            hierarchy.writebacks += events.hierarchy_writebacks
        return state

    def _replay_residual(
        self,
        state: "EngineState",
        residual: Sequence[PathComponent],
        batch: EventBatch,
        stop: int,
    ) -> None:
        """Run the stateful components through the scalar per-event loop.

        Mirrors ``replay_events``' loop exactly -- same hook dispatch, same
        sampler merge, same ``ctx`` field updates -- restricted to the
        residual components.  Skipped entirely (cheaply) for fully batched
        stacks with no samplers.
        """
        ctx = state.ctx
        components = state.components
        on_read_miss = [
            c.on_read_miss
            for c in residual
            if type(c).on_read_miss is not PathComponent.on_read_miss
        ]
        on_writeback = [
            c.on_writeback
            for c in residual
            if type(c).on_writeback is not PathComponent.on_writeback
        ]

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

        if on_read_miss or on_writeback or next_sample is not None:
            events = self.events
            lo, hi = batch.lo, batch.hi
            # Iterate the builtin arrays, not the numpy views: the residual
            # components do Python arithmetic on the addresses, and numpy
            # scalar division would silently promote to float64.
            window = zip(
                events.indices[lo:hi],
                events.addresses[lo:hi],
                events.writes[lo:hi],
                events.writeback_addresses[lo:hi],
            )
            for index, address, is_write, wb in window:
                while next_sample is not None and next_sample[0] <= index:
                    ctx.index = next_sample[0]
                    next_sample[2](ctx)
                    next_sample = next(pending, None)
                if sampling:
                    ctx.index = index
                ctx.address = address
                ctx.is_write = bool(is_write)
                for hook in on_read_miss:
                    hook(ctx)
                if wb != WB_NONE:
                    ctx.address = wb
                    ctx.is_write = True
                    for hook in on_writeback:
                        hook(ctx)

        while next_sample is not None:
            ctx.index = next_sample[0]
            next_sample[2](ctx)
            next_sample = next(pending, None)


def mode_vector_profile(params) -> str:
    """How the vectorized core executes a registered mode's stack.

    ``"batch"``: every component has a batch kernel (no residual loop at
    all).  ``"hybrid"``: batch kernels plus a scalar residual loop for the
    stateful components.  ``"scalar"``: numpy unavailable, full fallback.
    Registered modes always build known component types, so stacks built
    from :class:`~repro.sim.configs.ModeParameters` never fall back for an
    unknown type -- only third-party stacks can.
    """
    if not HAVE_NUMPY:
        return "scalar"
    return "batch" if params.batch_replay_safe else "hybrid"


__all__ = [
    "HAVE_NUMPY",
    "BatchReplayEngine",
    "EventBatch",
    "MacTier",
    "compute_mac_tier",
    "declare_scalar_safe",
    "distilled_mac_tier",
    "mac_geometry_fields",
    "mac_tier_key",
    "mode_vector_profile",
    "register_batch_kernel",
    "vectorizable",
]
