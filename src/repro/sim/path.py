"""Composable protection-path pipeline for the trace-driven simulator.

The simulation engine used to hard-code every protection scheme's read-miss
and writeback costs inline (``if mac_cache ...``, ``if toleo ...``,
``if invisimem ...``), so adding a scheme meant editing the hot loop in two
places.  This module factors each scheme into a :class:`PathComponent`:

* the engine drives the common part of every LLC miss (the data fetch) and
  then hands a shared :class:`AccessContext` -- carrying the rack memory, the
  traffic counters and the read-latency sums -- to each component in stack
  order, once per read miss (:meth:`~PathComponent.on_read_miss`) and once
  per dirty writeback (:meth:`~PathComponent.on_writeback`);
* a component owns its own state (MAC cache, Toleo device, counter-tree
  metadata cache, EPC residency set) and its own accounting, so the MAC and
  InvisiMem byte maths that used to be copy-pasted between the read and
  writeback paths now live in exactly one place each;
* :func:`build_components` assembles the stack for a mode from its registered
  :class:`~repro.sim.configs.ModeParameters`, which is what makes the mode
  registry open -- a new scheme is a new component plus a registration.

Component order mirrors the paper's protection path: decryption, integrity,
freshness (Toleo stealth versions or a counter tree), enclave paging, then
InvisiMem's packet machinery.  For the five pre-existing modes the pipeline
is bit-identical to the original inline engine (pinned by
``tests/sim/test_path.py`` against a committed golden fixture).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.baselines.counter_trees import (
    CounterTreeModel,
    client_sgx_tree,
    morphable_tree,
    vault_tree,
)
from repro.baselines.invisimem import InvisiMemModel
from repro.cache.cache import SetAssociativeCache
from repro.cache.mac_cache import MacCache
from repro.core.config import CACHE_BLOCK_BYTES, PAGE_BYTES, SystemConfig
from repro.core.toleo import ToleoDevice
from repro.core.version_cache import StealthVersionCache
from repro.crypto.rng import DRangeRng
from repro.memory.address import block_index_in_page, page_number
from repro.memory.devices import RackMemory
from repro.sim.configs import CounterTreeSpec, EpcPagingSpec, ModeParameters
from repro.sim.results import LatencyBreakdown, TrafficBreakdown

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.engine import EngineOptions

#: Synthetic address space for counter-tree metadata, far above any workload
#: region (workloads start at 1 GiB) so tree nodes never alias workload data
#: in the rack's page-to-device mapping.
TREE_METADATA_BASE = 1 << 45

#: Address stride separating tree levels in the synthetic metadata space.
TREE_LEVEL_STRIDE = 1 << 40

_TREE_FACTORIES = {
    "client_sgx": client_sgx_tree,
    "vault": vault_tree,
    "morphctr": morphable_tree,
}


@dataclass
class AccessContext:
    """Mutable per-run state shared by every component on the path.

    ``address`` and ``index`` are rewritten by the engine for each event
    (for a writeback, ``address`` is the evicted line's address); the rest
    are per-run accumulators the components charge their costs into.
    """

    rack: RackMemory
    traffic: TrafficBreakdown
    latency: LatencyBreakdown
    config: SystemConfig
    options: "EngineOptions"
    footprint_bytes: int
    address: int = 0
    index: int = 0
    is_write: bool = False


class PathComponent:
    """One protection scheme's contribution to the memory-access path.

    Subclasses override the hooks they need; the engine only dispatches a
    hook to components that actually override it, so a no-op default costs
    nothing in the replay loop.
    """

    #: A component overriding :meth:`on_access` must declare the modulus at
    #: which the hook actually does anything: ``on_access`` is a no-op except
    #: at global access indices that are multiples of ``access_period``.
    #: The distilled event-replay path uses the declared period to re-fire
    #: the hook at exactly those indices between miss events; a component
    #: that overrides ``on_access`` without declaring a period cannot replay
    #: from events, so the suite pipeline rejects its mode at planning and
    #: only the serial oracle's full per-access replay runs it.
    access_period: Optional[int] = None

    def on_access(self, ctx: AccessContext) -> None:
        """Called for *every* access (hit or miss) -- telemetry sampling."""

    def on_read_miss(self, ctx: AccessContext) -> None:
        """Charge this component's read-miss costs into the context."""

    def on_writeback(self, ctx: AccessContext) -> None:
        """Charge this component's dirty-writeback costs into the context."""

    def telemetry(self) -> Dict[str, Any]:
        """Result fields contributed by this component (merged by the engine)."""
        return {}


class EncryptionComponent(PathComponent):
    """AES-XTS decryption latency on the read critical path (modes C+)."""

    def __init__(self, config: SystemConfig) -> None:
        self.aes_latency_ns = config.aes_latency_cycles * config.cycle_ns

    def on_read_miss(self, ctx: AccessContext) -> None:
        ctx.latency.decryption_ns += self.aes_latency_ns


class MacIntegrityComponent(PathComponent):
    """MAC(+UV) block fetches through the on-chip MAC cache (modes CI+).

    ``fetch_bytes`` is the on-bus size of one MAC-block fetch; InvisiMem's
    smart memory batches MACs, so its stack builds this component with a
    smaller value -- the one place the read and writeback paths share the
    byte-accounting that used to be duplicated in the engine.
    """

    def __init__(self, config: SystemConfig, fetch_bytes: int = CACHE_BLOCK_BYTES) -> None:
        self.cache = MacCache(config=config)
        self.fetch_bytes = fetch_bytes

    def on_read_miss(self, ctx: AccessContext) -> None:
        if not self.cache.access(ctx.address, is_write=False):
            ctx.traffic.mac_uv_bytes += self.fetch_bytes
            mac_latency = ctx.rack.access(ctx.address, self.fetch_bytes, is_write=False)
            ctx.latency.integrity_ns += mac_latency * ctx.options.integrity_overlap

    def on_writeback(self, ctx: AccessContext) -> None:
        if not self.cache.access(ctx.address, is_write=True):
            ctx.traffic.mac_uv_bytes += self.fetch_bytes
            ctx.rack.access(ctx.address, self.fetch_bytes, is_write=True)

    def telemetry(self) -> Dict[str, Any]:
        return {"mac_cache_hit_rate": self.cache.hit_rate}


class StealthFreshnessComponent(PathComponent):
    """Toleo stealth-version freshness over CXL IDE (the Toleo mode).

    Owns the Toleo device and the on-chip stealth-version cache, and samples
    the device-usage timeline once every ``sample_every`` accesses (Figure 12).
    The vectorized replay reads each lookup's verdict, the timeline and the
    rest of the telemetry from a :class:`~repro.sim.replaycore.StealthTier`
    instead, and leaves the device and the cache untouched; the hooks are the
    oracle that tier is pinned against, and the loop for scalar replays.
    """

    def __init__(
        self,
        config: SystemConfig,
        footprint_bytes: int,
        seed: int,
        sample_every: int,
    ) -> None:
        self.toleo = ToleoDevice(
            config=config.toleo.scaled(footprint_bytes),
            rng=DRangeRng(seed=seed),
            strict_capacity=False,
        )
        self.stealth_cache = StealthVersionCache(config=config)
        self.seed = seed
        self.sample_every = max(1, sample_every)
        self.access_period = self.sample_every
        self.timeline: List[Dict[str, int]] = []
        #: Every telemetry field except the timeline, as the batch kernel
        #: restored it from the stealth tier at the last slice stop it
        #: replayed; ``None`` while the hooks keep the device and the cache.
        self.restored: Optional[Dict[str, Any]] = None

    def on_access(self, ctx: AccessContext) -> None:
        if ctx.index % self.sample_every == 0:
            self.timeline.append(self.toleo.snapshot_usage())

    def on_read_miss(self, ctx: AccessContext) -> None:
        page = page_number(ctx.address)
        fmt = self.toleo.table.format_of(page)
        if not self.stealth_cache.access(page, fmt, is_write=False).hit:
            response = self.toleo.read(page, block_index_in_page(ctx.address))
            ctx.traffic.stealth_bytes += response.bytes_transferred
            ctx.latency.freshness_ns += response.latency_ns

    def on_writeback(self, ctx: AccessContext) -> None:
        page = page_number(ctx.address)
        block = block_index_in_page(ctx.address)
        fmt = self.toleo.table.format_of(page)
        cache_access = self.stealth_cache.access(page, fmt, is_write=True)
        response = self.toleo.update(page, block)
        if not cache_access.hit:
            ctx.traffic.stealth_bytes += response.bytes_transferred
        new_fmt = self.toleo.table.format_of(page)
        if new_fmt is not fmt:
            # The entry changed representation; the cached copy is stale.
            self.stealth_cache.invalidate(page)

    def telemetry(self) -> Dict[str, Any]:
        if self.restored is not None:
            return {**self.restored, "toleo_usage_timeline": self.timeline}
        return {
            "stealth_cache_hit_rate": self.stealth_cache.hit_rate,
            "trip_format_counts": self.toleo.table.format_counts(),
            "toleo_usage_bytes": self.toleo.usage_breakdown(),
            "toleo_peak_bytes": self.toleo.stats.peak_dynamic_bytes + self.toleo.flat_bytes_used(),
            "toleo_usage_timeline": self.timeline,
        }


class CounterTreeComponent(PathComponent):
    """Counter-tree freshness (Client SGX / VAULT / MorphCtr geometries).

    Every protected miss walks the tree from its leaf counter towards the
    on-chip root through a metadata cache of recently verified nodes; the
    walk stops at the first cached ancestor.  Each missing level costs one
    64-byte node fetch -- serialised, because a parent authenticates its
    child -- so both the traffic and the exposed latency grow with the tree
    depth, i.e. with the protected footprint.  This is the scaling behaviour
    the paper's introduction argues makes tree-based freshness untenable at
    rack scale, now observable in simulation against Toleo's flat cost.
    The vectorized replay reads each walk's fetched-level count from a
    :class:`~repro.sim.replaycore.TreeTier` instead; :meth:`_walk` is the
    oracle that tier is pinned against, and the loop for scalar replays.
    """

    def __init__(
        self,
        spec: CounterTreeSpec,
        footprint_bytes: int,
        protected_bytes: Optional[int] = None,
    ) -> None:
        try:
            self.tree: CounterTreeModel = _TREE_FACTORIES[spec.scheme]()
        except KeyError:
            raise ValueError(
                f"unknown counter-tree scheme {spec.scheme!r}; "
                f"available: {', '.join(sorted(_TREE_FACTORIES))}"
            ) from None
        covered = protected_bytes if protected_bytes is not None else footprint_bytes
        self.protected_bytes = max(1, covered)
        self.levels = self.tree.levels(self.protected_bytes)
        self.cache = SetAssociativeCache(
            size_bytes=spec.cache_bytes,
            ways=spec.cache_ways,
            line_bytes=CACHE_BLOCK_BYTES,
            name="tree-cache",
        )
        self.node_fetches = 0

    def _node_address(self, level: int, index: int) -> int:
        return TREE_METADATA_BASE + level * TREE_LEVEL_STRIDE + index * CACHE_BLOCK_BYTES

    def _walk(self, ctx: AccessContext, is_write: bool) -> None:
        index = ctx.address // self.tree.leaf.data_bytes_per_entry
        for level in range(self.levels):
            hit, _ = self.cache.access(self._node_address(level, index), is_write=is_write)
            if hit:
                break
            self.node_fetches += 1
            ctx.traffic.stealth_bytes += CACHE_BLOCK_BYTES
            node_latency = ctx.rack.access(
                self._node_address(level, index), CACHE_BLOCK_BYTES, is_write=is_write
            )
            if not is_write:
                ctx.latency.freshness_ns += node_latency
            index //= self.tree.arity

    def on_read_miss(self, ctx: AccessContext) -> None:
        self._walk(ctx, is_write=False)

    def on_writeback(self, ctx: AccessContext) -> None:
        self._walk(ctx, is_write=True)


class EpcPagingComponent(PathComponent):
    """Client SGX enclave-page-cache residency and paging costs.

    Tracks an LRU set of EPC-resident pages sized as a footprint fraction
    (preserving the paper's 128 MB EPC : ~12 GB RSS ratio at simulation
    scale).  A miss outside the resident set pages 4 KB in -- paying the
    fault penalty on the read critical path, charged to the freshness
    component since EPC eviction/reload is where Client SGX's version
    machinery does its work -- and a dirty eviction pages 4 KB back out.
    The vectorized replay reads faults and dirty evictions from an
    :class:`~repro.sim.replaycore.EpcTier`, pinned against :meth:`_touch`.
    """

    def __init__(self, spec: EpcPagingSpec, footprint_bytes: int) -> None:
        self.spec = spec
        self.epc_pages = max(
            spec.min_epc_pages, int(footprint_bytes * spec.epc_fraction) // PAGE_BYTES
        )
        self.epc_bytes = self.epc_pages * PAGE_BYTES
        self._resident: Dict[int, bool] = {}
        self.page_faults = 0
        self.dirty_evictions = 0

    def _touch(self, ctx: AccessContext, is_write: bool, on_read_path: bool) -> None:
        page = ctx.address // PAGE_BYTES
        resident = self._resident
        if page in resident:
            dirty = resident.pop(page)
            resident[page] = dirty or is_write
            return
        self.page_faults += 1
        ctx.traffic.data_bytes += PAGE_BYTES
        fault_latency = ctx.rack.access(page * PAGE_BYTES, PAGE_BYTES, is_write=False)
        if on_read_path:
            ctx.latency.freshness_ns += fault_latency + self.spec.page_fault_penalty_ns
        resident[page] = is_write
        if len(resident) > self.epc_pages:
            evicted, dirty = next(iter(resident.items()))
            del resident[evicted]
            if dirty:
                self.dirty_evictions += 1
                ctx.traffic.data_bytes += PAGE_BYTES
                ctx.rack.access(evicted * PAGE_BYTES, PAGE_BYTES, is_write=True)

    def on_read_miss(self, ctx: AccessContext) -> None:
        self._touch(ctx, is_write=False, on_read_path=True)

    def on_writeback(self, ctx: AccessContext) -> None:
        self._touch(ctx, is_write=True, on_read_path=False)


class InvisiMemComponent(PathComponent):
    """InvisiMem-far packet machinery: inflation, dummy traffic, latency.

    The driver accounts the raw 64-byte block; this component adds the
    encrypted-header inflation and the constant-rate dummy packets on both
    the read and writeback paths (previously duplicated in the engine), plus
    the double-encryption/queueing latency on reads.
    """

    def __init__(self, model: InvisiMemModel, queueing_pressure: float) -> None:
        self.model = model
        self.packet_overhead_bytes = model.packet_bytes(CACHE_BLOCK_BYTES) - CACHE_BLOCK_BYTES
        self.dummy_bytes_per_access = int(model.dummy_traffic_fraction * model.packet_bytes())
        self.added_latency_ns = model.added_latency_ns(queueing_pressure)

    def _inflate(self, ctx: AccessContext) -> None:
        ctx.traffic.data_bytes += self.packet_overhead_bytes
        ctx.traffic.dummy_bytes += self.dummy_bytes_per_access

    def on_read_miss(self, ctx: AccessContext) -> None:
        self._inflate(ctx)
        ctx.latency.side_channel_ns += self.added_latency_ns

    def on_writeback(self, ctx: AccessContext) -> None:
        self._inflate(ctx)


def build_components(
    params: ModeParameters,
    config: SystemConfig,
    options: "EngineOptions",
    footprint_bytes: int,
    seed: int = 0,
    num_accesses: int = 100_000,
) -> List[PathComponent]:
    """Assemble the protection-path stack for one registered mode.

    Order mirrors the protection path: decryption, MAC integrity, freshness
    (stealth versions or counter tree), EPC paging, InvisiMem packets.  The
    returned components are fresh per run -- each owns its own caches and
    device state, so runs never share state.
    """
    components: List[PathComponent] = []
    if params.aes_on_read:
        components.append(EncryptionComponent(config))
    if params.mac_traffic:
        fetch_bytes = CACHE_BLOCK_BYTES
        if params.invisimem is not None:
            fetch_bytes = int(params.invisimem.metadata_bytes_per_access(CACHE_BLOCK_BYTES))
        components.append(MacIntegrityComponent(config, fetch_bytes=fetch_bytes))
    if params.stealth_traffic:
        sample_every = max(1, num_accesses // max(1, options.timeline_samples))
        components.append(
            StealthFreshnessComponent(
                config,
                footprint_bytes=footprint_bytes,
                seed=seed,
                sample_every=sample_every,
            )
        )
    if params.counter_tree is not None:
        protected = footprint_bytes
        if params.epc_paging is not None:
            # Client SGX's tree only spans the EPC, not the whole footprint.
            epc = EpcPagingComponent(params.epc_paging, footprint_bytes)
            protected = epc.epc_bytes
            components.append(
                CounterTreeComponent(
                    params.counter_tree, footprint_bytes, protected_bytes=protected
                )
            )
            components.append(epc)
        else:
            components.append(CounterTreeComponent(params.counter_tree, footprint_bytes))
    elif params.epc_paging is not None:
        components.append(EpcPagingComponent(params.epc_paging, footprint_bytes))
    if params.invisimem is not None:
        pressure = options.invisimem_queueing_pressure
        components.append(InvisiMemComponent(params.invisimem, pressure))
    return components


__all__ = [
    "AccessContext",
    "PathComponent",
    "EncryptionComponent",
    "MacIntegrityComponent",
    "StealthFreshnessComponent",
    "CounterTreeComponent",
    "EpcPagingComponent",
    "InvisiMemComponent",
    "build_components",
    "TREE_METADATA_BASE",
]
