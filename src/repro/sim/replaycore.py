"""Vectorized event-replay core: numpy batch kernels over miss-event columns.

PR 5 reduced per-mode work to a scalar Python loop over the distilled
:class:`~repro.sim.distill.MissEventStream`.  This module removes the loop
for every protection component whose per-event cost is a function of the
event columns plus a *verdict* that depends only on the event sequence:

* :class:`BatchReplayEngine` replays a window of events -- of a full-run
  stream or of one event slice, at any width -- with numpy kernels for the
  engine's own rack data fetch and device tallies, encryption latency, MAC
  fetches, counter-tree walks, EPC paging and InvisiMem packet inflation,
  and runs only the *residual* components -- Toleo's stealth freshness,
  whose RNG-driven Trip format changes make it truly stateful, and
  third-party components declared scalar-safe -- through the engine's one
  per-event loop (:func:`~repro.sim.engine.event_loop`), along with
  ``access_period`` samplers.

* A **verdict tier** (:class:`VerdictTier`) is a second distillation tier:
  the per-event verdict columns of one stateful component, computed once per
  ``(event slice, component geometry)`` into a content-keyed
  :class:`~repro.sim.store.ResultStore` entry (:func:`tier_slice_key`; a
  one-window run's single slice is keyed as the full-run tier).
  Three families ship: the MAC cache's hit/miss per lookup
  (:class:`MacTier`, shared by every MAC-bearing mode because
  ``fetch_bytes`` is not part of the verdict), the number of levels each
  counter-tree walk fetched (:class:`TreeTier`), and the EPC's page faults
  and dirty evictions (:class:`EpcTier`).  Each is computed by a stateful
  :class:`TierSimulator` whose :meth:`advance` carries its cache state
  across windows, like :meth:`~repro.sim.distill.HierarchyDistiller.advance`,
  so the slices concatenate to the one-shot tier.  The suite pipeline's
  tier chain (:func:`repro.sim.shard.run_tier_step`) advances one simulator
  per tier a run's stacks read (:func:`stack_tiers`) over the run's slices
  in order, as ingestion stores them, and puts each slice's tiers
  (:func:`put_tier_slices`) before the replay steps reading them start; a
  kernel that still misses a slice's tier computes the slices up to it
  from stored events (:func:`load_tier_slice`).  The kernels rebuild node
  addresses, device classes and byte counts from the verdicts alone.

The contract is the repo's differential discipline: the vectorized replay is
**bit-identical** to :meth:`SimulationEngine.replay_events` (which is itself
bit-identical to the full serial replay) for every registered mode and every
shard width.  Floats make that non-trivial: ``np.sum`` uses pairwise
summation, which is a *different* fold than the scalar ``+=`` loop, so every
float accumulator is advanced with :func:`_sequential_sum` -- a seeded
``np.add.accumulate`` scan, the same left fold the loop performs.  A latency
accumulator may have several writers (``freshness_ns`` has two in
Client-SGX and in Toleo+Tree), so writers never add to it directly: each
contributes its addends as columns tagged with their event and phase, and
the window folds every accumulator **once**, with the addends sorted by
(event, phase, stack order) -- the order the scalar loop adds them in.  The
residual hooks' addends to a batch-written accumulator are captured exactly
(see :func:`~repro.sim.engine.event_loop`) and join the same fold; a
residual hook that reads such an accumulator for anything but ``+=`` makes
the window raise.

Windowed replay composes: seeding each window's scan with the running
accumulator keeps a sharded chain one unbroken fold, so checkpointed chains
match too, and each slice's hierarchy statistics fold once, at the slice's
stop (:func:`~repro.sim.engine.fold_statistics`).  One caveat: the
vectorized path never touches the components' own cache objects (the tiers
stand in for the MAC-cache, tree-cache and EPC lookups), so a checkpoint
produced by a vectorized window can only be resumed vectorized.  A scalar
window *can* be resumed vectorized -- a tier's simulator state at any event
position equals the real component's.  Drivers use one strategy per chain,
so this never arises in practice.  The scalar hooks
(``CounterTreeComponent._walk``, ``EpcPagingComponent._touch``, ...) stay
the oracle the tiers are pinned against, and the event loop runs them
alone on numpy-free installs.

Everything degrades gracefully: without numpy (:data:`HAVE_NUMPY` False) or
with an unknown component type in the stack, :func:`vectorizable` returns
False and callers run the event loop with no kernel
(:meth:`SimulationEngine.replay_events`).  Third-party components opt in via
:func:`declare_scalar_safe` (run per event in the event loop) or
:func:`register_batch_kernel` (handled by a custom batch kernel).
"""

from __future__ import annotations

import base64
import sys
from array import array
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from repro.core.config import CACHE_BLOCK_BYTES, MACS_PER_BLOCK, PAGE_BYTES, SystemConfig
from repro.sim.distill import (
    WB_NONE,
    MissEventStream,
    events_key,
    events_slice_key,
    load_slice,
    slice_bounds,
)
from repro.sim.engine import (
    EngineOptions,
    SimulationEngine,
    event_loop,
    event_window,
    fold_statistics,
)
from repro.sim.path import (
    TREE_LEVEL_STRIDE,
    TREE_METADATA_BASE,
    CounterTreeComponent,
    EncryptionComponent,
    EpcPagingComponent,
    InvisiMemComponent,
    MacIntegrityComponent,
    PathComponent,
    StealthFreshnessComponent,
    build_components,
)
from repro.sim.results import LatencyBreakdown
from repro.sim.store import ResultStore, content_key, default_store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.configs import ModeParameters
    from repro.sim.engine import EngineState, _Capture
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
# Verdict tiers: per-event verdict columns of one stateful component
# ---------------------------------------------------------------------------


class VerdictTier:
    """The verdicts of one stateful component for every event of one stream.

    A family names its columns: each ``DENSE`` column holds one ``uint8`` per
    event, and the ``SPARSE`` columns are equal-length ``uint64`` arrays of
    rare outcomes, keyed by the global access index of the event that
    produced them.  ``geometry`` is the :class:`TierSimulator` geometry the
    verdicts were computed under.
    """

    KIND: ClassVar[str] = ""
    DENSE: ClassVar[Tuple[str, ...]] = ()
    SPARSE: ClassVar[Tuple[str, ...]] = ()

    def __init__(
        self, num_events: int, geometry: Optional[Dict[str, int]] = None, **columns: Any
    ) -> None:
        self.num_events = num_events
        self.geometry = dict(geometry or {})
        for name in self.DENSE:
            column = columns.pop(name, None)
            setattr(self, name, bytearray(num_events) if column is None else column)
        for name in self.SPARSE:
            column = columns.pop(name, None)
            setattr(self, name, array("Q") if column is None else column)
        if columns:
            raise TypeError(f"{type(self).__name__} has no columns {sorted(columns)}")

    def validate(self) -> None:
        dense = {name: len(getattr(self, name)) for name in self.DENSE}
        if any(length != self.num_events for length in dense.values()):
            raise ValueError(
                f"tier arrays disagree with num_events={self.num_events}: {dense}"
            )
        if len({len(getattr(self, name)) for name in self.SPARSE}) > 1:
            raise ValueError(f"sparse columns of {type(self).__name__} disagree on length")

    def view(self, name: str) -> "np.ndarray":
        """Read-only zero-copy numpy view of one column."""
        dtype = np.uint8 if name in self.DENSE else np.uint64
        column = np.frombuffer(getattr(self, name), dtype=dtype)
        column.flags.writeable = False
        return column

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.to_payload() == other.to_payload()

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"num_events": self.num_events, "geometry": self.geometry}
        if self.SPARSE:
            payload["byteorder"] = sys.byteorder
        for name in self.DENSE + self.SPARSE:
            payload[name] = base64.b64encode(bytes(getattr(self, name))).decode("ascii")
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "VerdictTier":
        if cls.SPARSE and payload.get("byteorder") != sys.byteorder:
            raise ValueError("tier was packed on a different byte order")
        columns: Dict[str, Any] = {
            name: bytearray(base64.b64decode(payload[name])) for name in cls.DENSE
        }
        for name in cls.SPARSE:
            columns[name] = array("Q")
            columns[name].frombytes(base64.b64decode(payload[name]))
        tier = cls(int(payload["num_events"]), dict(payload["geometry"]), **columns)
        tier.validate()
        return tier


class MacTier(VerdictTier):
    """The MAC cache's verdict for every event of one stream.

    ``read_hits[i]`` / ``wb_hits[i]`` are 1 when event ``i``'s read-path /
    writeback-path MAC-cache lookup hits (``wb_hits`` is 0 for events with
    no writeback).  The sequence depends only on the event addresses and the
    MAC-cache geometry -- not on a mode's ``fetch_bytes`` -- so one tier
    serves every mode in the same MAC configuration family.
    """

    KIND = "mactier"
    DENSE = ("read_hits", "wb_hits")
    read_hits: bytearray
    wb_hits: bytearray


class TreeTier(VerdictTier):
    """How many counter-tree levels each walk fetched.

    ``read_fetched[i]`` / ``wb_fetched[i]`` count the levels event ``i``'s
    read-path / writeback-path walk missed in the tree cache, from the leaf
    up; the walk stopped at the next level (a cached ancestor) or at the
    root.  The fetched nodes' addresses follow from the event address and the
    tree shape, so the count is the whole verdict.
    """

    KIND = "treetier"
    DENSE = ("read_fetched", "wb_fetched")
    read_fetched: bytearray
    wb_fetched: bytearray


class EpcTier(VerdictTier):
    """Which touches faulted in the enclave page cache, and what they evicted.

    ``read_faults[i]`` / ``wb_faults[i]`` are 1 when event ``i``'s read-path
    / writeback-path touch paged in; ``evict_indices[k]`` is the access
    index of the event whose fault evicted the dirty page
    ``evict_pages[k]`` (clean evictions cost nothing and are not recorded).
    """

    KIND = "epctier"
    DENSE = ("read_faults", "wb_faults")
    SPARSE = ("evict_indices", "evict_pages")
    read_faults: bytearray
    wb_faults: bytearray
    evict_indices: array
    evict_pages: array


class TierSimulator:
    """Computes one tier family's verdicts, window by window.

    Built from the family's ``geometry`` (its constructor keywords, which
    are also the tier's store-key axis); :meth:`advance` consumes the next
    abutting window of events and returns that window's tier, carrying the
    simulated cache state across calls.  The loops replicate their
    component's hooks exactly in the :class:`~repro.sim.distill.HierarchyDistiller`
    idiom: flat per-set dicts, move-to-end on hit, evict the first key.
    """

    TIER: ClassVar[Type[VerdictTier]]

    def __init__(self, **geometry: int) -> None:
        self.geometry = geometry
        self.position = 0

    @classmethod
    def geometry_of(cls, component: PathComponent, config: SystemConfig) -> Dict[str, int]:
        """The geometry of ``component``'s verdicts (no simulator is built)."""
        raise NotImplementedError

    def advance(self, events: MissEventStream) -> VerdictTier:
        if events.start_index != self.position:
            raise ValueError(
                f"{type(self).__name__} is at access {self.position}, "
                f"cannot advance from {events.start_index}"
            )
        tier = self.TIER(len(events), self.geometry)
        self._run(events, tier)
        self.position = events.stop_index
        return tier

    def _run(self, events: MissEventStream, tier: VerdictTier) -> None:
        raise NotImplementedError


class MacTierSimulator(TierSimulator):
    """The MAC cache (:class:`~repro.cache.mac_cache.MacCache`) LRU.

    Dirty bits are not tracked: dirtiness only feeds the ``dirty_evictions``
    statistic, which no lookup verdict -- and no simulation result -- reads.
    """

    TIER = MacTier

    def __init__(self, cache_bytes: int, cache_ways: int, line_bytes: int, macs_per_block: int):
        super().__init__(
            cache_bytes=cache_bytes,
            cache_ways=cache_ways,
            line_bytes=line_bytes,
            macs_per_block=macs_per_block,
        )
        lines = max(1, cache_bytes // line_bytes)
        self.ways = min(cache_ways, lines)
        self.num_sets = max(1, lines // self.ways)
        self.sets: List[Dict[int, bool]] = [dict() for _ in range(self.num_sets)]
        # MacCache.mac_block_address(a) = (a // line // MACS_PER_BLOCK) * line;
        # SetAssociativeCache then re-divides by line, so the effective block
        # index is a // line // MACS_PER_BLOCK.
        self.divisor = line_bytes * macs_per_block

    @classmethod
    def geometry_of(cls, component: PathComponent, config: SystemConfig) -> Dict[str, int]:
        return mac_geometry_fields(config)

    def _run(self, events: MissEventStream, tier: VerdictTier) -> None:
        first, each = next, iter  # locals: no global lookup per eviction
        sets, num_sets, ways, divisor = self.sets, self.num_sets, self.ways, self.divisor
        read_hits, wb_hits = tier.read_hits, tier.wb_hits
        for pos, (address, wb) in enumerate(zip(events.addresses, events.writeback_addresses)):
            block = address // divisor
            blocks = sets[block % num_sets]
            if blocks.pop(block, False):
                blocks[block] = True
                read_hits[pos] = 1
            else:
                if len(blocks) >= ways:
                    del blocks[first(each(blocks))]
                blocks[block] = True
            if wb != WB_NONE:
                block = wb // divisor
                blocks = sets[block % num_sets]
                if blocks.pop(block, False):
                    blocks[block] = True
                    wb_hits[pos] = 1
                else:
                    if len(blocks) >= ways:
                        del blocks[first(each(blocks))]
                    blocks[block] = True


class TreeTierSimulator(TierSimulator):
    """The counter-tree walk through its metadata cache
    (:meth:`CounterTreeComponent._walk`).

    A walk looks its levels up from the leaf, inserting every level that
    misses, and stops at the first hit.  As for the MAC cache, the dirty bit
    only feeds eviction statistics no result reports.
    """

    TIER = TreeTier

    def __init__(self, levels: int, arity: int, leaf_bytes: int, num_sets: int, ways: int):
        if levels > 255:
            raise ValueError(f"a {levels}-level tree does not fit the uint8 fetch counts")
        super().__init__(
            levels=levels, arity=arity, leaf_bytes=leaf_bytes, num_sets=num_sets, ways=ways
        )
        self.sets: List[Dict[int, bool]] = [dict() for _ in range(num_sets)]
        # Node (level, index) lives at TREE_METADATA_BASE + level * STRIDE +
        # index * CACHE_BLOCK_BYTES, so its cache block is level_blocks[level]
        # + index.
        self.level_blocks = [
            (TREE_METADATA_BASE + level * TREE_LEVEL_STRIDE) // CACHE_BLOCK_BYTES
            for level in range(levels)
        ]

    @classmethod
    def geometry_of(cls, component: PathComponent, config: SystemConfig) -> Dict[str, int]:
        assert isinstance(component, CounterTreeComponent)
        return {
            "levels": component.levels,
            "arity": component.tree.arity,
            "leaf_bytes": component.tree.leaf.data_bytes_per_entry,
            "num_sets": component.cache.num_sets,
            "ways": component.cache.ways,
        }

    def _run(self, events: MissEventStream, tier: VerdictTier) -> None:
        # Sets are keyed by block rather than tag (a bijection within one
        # set), a hit is one pop (every value is True) plus the re-insert,
        # and the leaf lookup -- the one every walk makes -- is peeled out of
        # the level loop, so a walk that hits its leaf leaves its
        # (zero-initialised) count alone.
        first, each = next, iter  # locals: no global lookup per eviction
        sets = self.sets
        leaf_block, *upper_blocks = self.level_blocks
        num_sets, ways = self.geometry["num_sets"], self.geometry["ways"]
        arity, leaf_bytes = self.geometry["arity"], self.geometry["leaf_bytes"]
        read_fetched, wb_fetched = tier.read_fetched, tier.wb_fetched
        for pos, (address, wb) in enumerate(zip(events.addresses, events.writeback_addresses)):
            index = address // leaf_bytes
            block = leaf_block + index
            blocks = sets[block % num_sets]
            if blocks.pop(block, False):
                blocks[block] = True
            else:
                if len(blocks) >= ways:
                    del blocks[first(each(blocks))]
                blocks[block] = True
                fetched = 1
                for base in upper_blocks:
                    index //= arity
                    block = base + index
                    blocks = sets[block % num_sets]
                    if blocks.pop(block, False):
                        blocks[block] = True
                        break
                    if len(blocks) >= ways:
                        del blocks[first(each(blocks))]
                    blocks[block] = True
                    fetched += 1
                read_fetched[pos] = fetched
            if wb != WB_NONE:
                index = wb // leaf_bytes
                block = leaf_block + index
                blocks = sets[block % num_sets]
                if blocks.pop(block, False):
                    blocks[block] = True
                else:
                    if len(blocks) >= ways:
                        del blocks[first(each(blocks))]
                    blocks[block] = True
                    fetched = 1
                    for base in upper_blocks:
                        index //= arity
                        block = base + index
                        blocks = sets[block % num_sets]
                        if blocks.pop(block, False):
                            blocks[block] = True
                            break
                        if len(blocks) >= ways:
                            del blocks[first(each(blocks))]
                        blocks[block] = True
                        fetched += 1
                    wb_fetched[pos] = fetched


class EpcTierSimulator(TierSimulator):
    """The EPC residency set (:meth:`EpcPagingComponent._touch`).

    An LRU dict of resident pages to dirty bits; a read-path touch never
    dirties a page, a writeback-path touch always does, and a fault beyond
    ``epc_pages`` evicts the least recently touched page.
    """

    TIER = EpcTier

    def __init__(self, epc_pages: int):
        super().__init__(epc_pages=epc_pages)
        self.resident: Dict[int, bool] = {}

    @classmethod
    def geometry_of(cls, component: PathComponent, config: SystemConfig) -> Dict[str, int]:
        assert isinstance(component, EpcPagingComponent)
        return {"epc_pages": component.epc_pages}

    def _run(self, events: MissEventStream, tier: VerdictTier) -> None:
        resident, capacity = self.resident, self.geometry["epc_pages"]
        read_faults, wb_faults = tier.read_faults, tier.wb_faults
        evict_indices, evict_pages = tier.evict_indices, tier.evict_pages
        window = zip(events.indices, events.addresses, events.writeback_addresses)
        for pos, (index, address, wb) in enumerate(window):
            page = address // PAGE_BYTES
            if page in resident:
                resident[page] = resident.pop(page)
            else:
                read_faults[pos] = 1
                resident[page] = False
                if len(resident) > capacity:
                    evicted = next(iter(resident))
                    if resident.pop(evicted):
                        evict_indices.append(index)
                        evict_pages.append(evicted)
            if wb != WB_NONE:
                page = wb // PAGE_BYTES
                if page in resident:
                    del resident[page]
                    resident[page] = True
                else:
                    wb_faults[pos] = 1
                    resident[page] = True
                    if len(resident) > capacity:
                        evicted = next(iter(resident))
                        if resident.pop(evicted):
                            evict_indices.append(index)
                            evict_pages.append(evicted)


#: Component type -> the simulator of its verdict tier.
_TIER_SIMULATORS: Dict[type, Type[TierSimulator]] = {
    MacIntegrityComponent: MacTierSimulator,
    CounterTreeComponent: TreeTierSimulator,
    EpcPagingComponent: EpcTierSimulator,
}


# ---------------------------------------------------------------------------
# Tier keys and the store
# ---------------------------------------------------------------------------


def mac_geometry_fields(config: Optional[SystemConfig] = None) -> Dict[str, int]:
    """The MAC-cache geometry a tier is keyed by."""
    cfg = config if config is not None else SystemConfig()
    return {
        "cache_bytes": cfg.mac_cache_bytes,
        "cache_ways": cfg.mac_cache_ways,
        "line_bytes": CACHE_BLOCK_BYTES,
        "macs_per_block": MACS_PER_BLOCK,
    }


def _tier_key(kind: str, geometry: Dict[str, int], events: str) -> str:
    return content_key(kind, events=events, geometry=geometry)


def _tier_geometry(
    component: PathComponent, config: Optional[SystemConfig]
) -> Tuple[Type[TierSimulator], Dict[str, int]]:
    simulator = _TIER_SIMULATORS[type(component)]
    cfg = config if config is not None else SystemConfig()
    return simulator, simulator.geometry_of(component, cfg)


def stack_tiers(
    components: Sequence[PathComponent], config: Optional[SystemConfig] = None
) -> List[Tuple[Type[TierSimulator], Dict[str, int]]]:
    """The verdict tiers the batch kernels read when replaying this stack.

    One ``(simulator, geometry)`` per component with a tier family, or none
    at all when the stack replays without the kernels (it is not
    :meth:`~SimulationEngine.distillable` or not :func:`vectorizable`, which
    includes every numpy-free install).  Only the components are needed,
    as :func:`~repro.sim.path.build_components` builds them -- no engine
    state.
    """
    if not (SimulationEngine.distillable(components) and vectorizable(components)):
        return []
    return [
        _tier_geometry(component, config)
        for component in components
        if type(component) in _TIER_SIMULATORS
    ]


def _slice_tier_key(
    simulator: Type[TierSimulator],
    geometry: Dict[str, int],
    name: str,
    scale: float,
    seed: int,
    num_accesses: int,
    window: int,
    index: int,
    config: Optional[SystemConfig],
) -> str:
    return _tier_key(
        simulator.TIER.KIND,
        geometry,
        events_slice_key(name, scale, seed, num_accesses, window, index, config),
    )


def tier_slice_key(
    component: PathComponent,
    name: str,
    scale: float,
    seed: int,
    num_accesses: int,
    window: int,
    index: int,
    config: Optional[SystemConfig] = None,
) -> str:
    """Store key of ``component``'s verdict tier over one event slice.

    Folds in the slice's own :func:`~repro.sim.distill.events_slice_key`
    (trace identity, hierarchy geometry, window and slice index) plus the
    simulator geometry, which is all a verdict depends on: latencies, fault
    penalties and engine options never enter it.  Modes sharing a geometry
    -- every MAC-bearing mode of one config -- share the entry.  A window
    covering the run has one slice, so ``index`` 0 of a ``window`` of
    ``num_accesses`` keys the full-run tier.
    """
    return _slice_tier_key(
        *_tier_geometry(component, config), name, scale, seed, num_accesses, window, index, config
    )


def tier_slice_keys(
    simulator: Type[TierSimulator],
    geometry: Dict[str, int],
    name: str,
    scale: float,
    seed: int,
    num_accesses: int,
    window: int,
    config: Optional[SystemConfig] = None,
) -> List[str]:
    """The store keys of one tier family's slices over a whole run, in order."""
    run = (name, scale, seed, num_accesses, window)
    return [
        _slice_tier_key(simulator, geometry, *run, index, config)
        for index in range(len(slice_bounds(num_accesses, window)))
    ]


def mac_tier_key(events: MissEventStream, config: Optional[SystemConfig] = None) -> str:
    """Store key of the MAC tier for one full-run stream under one config."""
    return _tier_key(
        MacTier.KIND,
        mac_geometry_fields(config),
        events_key(events.name, events.scale, events.seed, events.num_accesses, config),
    )


def compute_mac_tier(events: MissEventStream, config: Optional[SystemConfig] = None) -> MacTier:
    """Simulate the MAC cache over the whole event sequence, once."""
    tier = MacTierSimulator(**mac_geometry_fields(config)).advance(events)
    assert isinstance(tier, MacTier)
    return tier


def put_tier_slices(
    simulators: Sequence[TierSimulator],
    events: MissEventStream,
    num_accesses: int,
    window: int,
    config: Optional[SystemConfig] = None,
    store: Optional[ResultStore] = None,
) -> List[VerdictTier]:
    """Advance each simulator over ``events``, the run's next slice, and put
    each slice tier under its :func:`tier_slice_key`.

    Returns the tiers in simulator order.  Like ingested event slices, the
    tiers are written to disk only; a reader promotes a one-window run's
    tier into its memory layer (:func:`load_tier_slice`).
    """
    if store is None:
        store = default_store()
    run = (events.name, events.scale, events.seed, num_accesses, window)
    index = events.start_index // window
    tiers = []
    for running in simulators:
        tier = running.advance(events)
        store.put(
            _slice_tier_key(type(running), running.geometry, *run, index, config),
            tier,
            encoder=VerdictTier.to_payload,
            keep_in_memory=False,
        )
        tiers.append(tier)
    return tiers


def load_tier_slice(
    component: PathComponent,
    events: MissEventStream,
    num_accesses: int,
    window: int,
    config: Optional[SystemConfig] = None,
    store: Optional[ResultStore] = None,
) -> VerdictTier:
    """``component``'s verdict tier over ``events``, one slice of a run, from the store.

    ``events`` is slice ``start_index // window`` of the ``num_accesses``
    run's ``window``-wide partition (:func:`~repro.sim.distill.load_slice`).
    The pipeline's tier chain has normally put it already; on a miss, one
    :class:`TierSimulator` advances over the run's slices from the first up
    to this one, and puts each slice's tier (:func:`put_tier_slices`) --
    so later shards, and every mode sharing the geometry, read theirs back
    -- while slices past this one stay the tier chain's to compute.  Two
    workers that race on one tier put identical bytes.
    """
    start, stop = events.start_index, events.stop_index
    if start % window or stop != min(start + window, num_accesses):
        raise ValueError(
            f"events [{start}, {stop}) are not a slice of the {window}-access "
            f"partition of a {num_accesses}-access run"
        )
    if store is None:
        store = default_store()
    simulator, geometry = _tier_geometry(component, config)
    whole = window >= num_accesses
    run = (events.name, events.scale, events.seed, num_accesses, window)
    wanted = start // window
    cached = store.get(
        tier_slice_key(component, *run, wanted, config),
        decoder=simulator.TIER.from_payload,
        promote=whole,
    )
    if cached is not None and cached.num_events == len(events):
        return cached
    running = simulator(**geometry)
    for index in range(wanted + 1):
        piece = events if index == wanted else load_slice(*run, index, config, store)
        (tier,) = put_tier_slices([running], piece, num_accesses, window, config, store)
    return tier


def _tier_slot(kind: str, geometry: Dict[str, int]) -> Tuple[str, Tuple]:
    return kind, tuple(sorted(geometry.items()))


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


#: A batch kernel applies one component's whole-window contribution: integer
#: counters directly (they commute), latency addends through
#: :meth:`BatchReplayEngine.add_latency` (the window folds them in order).
BatchKernel = Callable[["BatchReplayEngine", PathComponent, "AccessContext", EventBatch], None]


def _cxl_mask(addresses: "np.ndarray", page_bytes: int, cxl_period: int) -> "np.ndarray":
    """Which addresses the CXL pool serves (RackMemory.region_of, columnar)."""
    return (addresses // page_bytes) % cxl_period == 0


def _tally(
    ctx: "AccessContext", addresses: "np.ndarray", nbytes: int, is_write: bool
) -> "np.ndarray":
    """Charge one ``nbytes`` rack access per address; returns the CXL mask.

    The columnar ``rack.access``: the device counters are integers, so
    tallying a window at once is exact.
    """
    rack = ctx.rack
    cxl = _cxl_mask(addresses, rack.config.toleo.page_bytes, rack._cxl_period)
    pool = int(cxl.sum())
    local = len(addresses) - pool
    for stats, accesses in ((rack.pool.stats, pool), (rack.local.stats, local)):
        if is_write:
            stats.writes += accesses
            stats.bytes_written += accesses * nbytes
        else:
            stats.reads += accesses
            stats.bytes_read += accesses * nbytes
    return cxl


def _device_latency(ctx: "AccessContext", cxl: "np.ndarray") -> "np.ndarray":
    """Per-access device latency from a CXL mask."""
    return np.where(cxl, ctx.rack.pool.latency_ns, ctx.rack.local.latency_ns)


def _encryption_kernel(
    replay: "BatchReplayEngine",
    component: EncryptionComponent,
    ctx: "AccessContext",
    batch: EventBatch,
) -> None:
    # One constant AES latency per read miss.  n float adds of c are NOT
    # n * c bit-for-bit, hence the sequential fold.
    replay.add_latency(
        "decryption_ns", np.full(batch.num_events, component.aes_latency_ns, dtype=np.float64)
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
    replay.add_latency(
        "side_channel_ns",
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
    tier = replay.verdict_tier(component)
    lo, hi = batch.lo, batch.hi
    read_hits = tier.view("read_hits")[lo:hi] != 0
    wb_hit_flags = tier.view("wb_hits")[lo:hi] != 0
    fetch_bytes = component.fetch_bytes

    read_misses = np.flatnonzero(~read_hits)
    if len(read_misses):
        miss_cxl = _tally(ctx, batch.addresses[read_misses], fetch_bytes, is_write=False)
        replay.add_latency(
            "integrity_ns",
            _device_latency(ctx, miss_cxl) * ctx.options.integrity_overlap,
            positions=read_misses,
        )
        ctx.traffic.mac_uv_bytes += len(read_misses) * fetch_bytes

    wb_miss_addresses = batch.writebacks[batch.wb_mask & ~wb_hit_flags]
    wb_misses = len(wb_miss_addresses)
    if wb_misses:
        _tally(ctx, wb_miss_addresses, fetch_bytes, is_write=True)
        ctx.traffic.mac_uv_bytes += wb_misses * fetch_bytes

    # The tier replaced the cache lookups; credit the hit/miss (and the
    # one-insertion-per-miss) counters those lookups would have bumped, so
    # the mode's mac_cache_hit_rate telemetry is unchanged.  Eviction
    # counters stay at zero -- no result or telemetry field reads them.
    stats = component.cache.stats
    misses = len(read_misses) + wb_misses
    stats.hits += int(read_hits.sum()) + int(wb_hit_flags.sum())
    stats.misses += misses
    stats.insertions += misses


def _tree_nodes(
    addresses: "np.ndarray", fetched: "np.ndarray", leaf_bytes: int, arity: int
) -> Tuple["np.ndarray", "np.ndarray"]:
    """The node addresses the walks fetched, walk-major and level-minor.

    Returns ``(owners, nodes)``: ``owners[k]`` is the position (in
    ``addresses``) of the walk that fetched node ``nodes[k]``.  A walk that
    fetched ``f`` levels fetched levels ``0 .. f-1``, with level ``l``'s
    index ``(address // leaf_bytes) // arity**l``.
    """
    counts = fetched.astype(np.int64)
    owners = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    levels = np.arange(len(owners)) - np.repeat(starts, counts)
    # arity**l outgrows uint64 on deep trees; any divisor above the largest
    # possible index (< 2**58) yields index 0, as the scalar walk's repeated
    # floor division does.
    divisors = np.array(
        [min(arity**level, 1 << 63) for level in range(int(counts.max()))], dtype=np.uint64
    )
    index = (addresses[owners] // np.uint64(leaf_bytes)) // divisors[levels]
    nodes = (
        np.uint64(TREE_METADATA_BASE)
        + levels.astype(np.uint64) * np.uint64(TREE_LEVEL_STRIDE)
        + index * np.uint64(CACHE_BLOCK_BYTES)
    )
    return owners, nodes


def _counter_tree_kernel(
    replay: "BatchReplayEngine",
    component: CounterTreeComponent,
    ctx: "AccessContext",
    batch: EventBatch,
) -> None:
    # The tree tier says how many levels each walk fetched; the fetched
    # nodes, their devices and the read path's serialised latencies follow.
    tier = replay.verdict_tier(component)
    lo, hi = batch.lo, batch.hi
    leaf_bytes = component.tree.leaf.data_bytes_per_entry
    arity = component.tree.arity
    paths = (
        (tier.view("read_fetched")[lo:hi], batch.addresses, False),
        (tier.view("wb_fetched")[lo:hi][batch.wb_mask], batch.wb_addresses, True),
    )
    for fetched, addresses, is_write in paths:
        if not fetched.any():
            continue
        owners, nodes = _tree_nodes(addresses, fetched, leaf_bytes, arity)
        cxl = _tally(ctx, nodes, CACHE_BLOCK_BYTES, is_write)
        component.node_fetches += len(nodes)
        ctx.traffic.stealth_bytes += len(nodes) * CACHE_BLOCK_BYTES
        if not is_write:
            replay.add_latency("freshness_ns", _device_latency(ctx, cxl), positions=owners)


def _epc_paging_kernel(
    replay: "BatchReplayEngine",
    component: EpcPagingComponent,
    ctx: "AccessContext",
    batch: EventBatch,
) -> None:
    # Every fault pages 4 KB in (a read of the faulting page), a read-path
    # fault also pays the fault on the critical path, and a dirty eviction
    # pages 4 KB out.
    tier = replay.verdict_tier(component)
    lo, hi = batch.lo, batch.hi
    read_faults = np.flatnonzero(tier.view("read_faults")[lo:hi])
    wb_fault_pages = batch.writebacks[tier.view("wb_faults")[lo:hi] != 0] // PAGE_BYTES
    evict_indices = tier.view("evict_indices")
    first = np.searchsorted(evict_indices, batch.indices[0])
    last = np.searchsorted(evict_indices, batch.indices[-1], side="right")
    evicted = tier.view("evict_pages")[first:last]

    read_pages = batch.addresses[read_faults] // PAGE_BYTES
    read_cxl = _tally(ctx, read_pages * PAGE_BYTES, PAGE_BYTES, is_write=False)
    _tally(ctx, wb_fault_pages * PAGE_BYTES, PAGE_BYTES, is_write=False)
    _tally(ctx, evicted * PAGE_BYTES, PAGE_BYTES, is_write=True)
    if len(read_faults):
        replay.add_latency(
            "freshness_ns",
            _device_latency(ctx, read_cxl) + component.spec.page_fault_penalty_ns,
            positions=read_faults,
        )
    faults = len(read_faults) + len(wb_fault_pages)
    component.page_faults += faults
    component.dirty_evictions += len(evicted)
    ctx.traffic.data_bytes += (faults + len(evicted)) * PAGE_BYTES


#: Component types handled natively by a batch kernel.
_BATCH_KERNELS: Dict[type, BatchKernel] = {
    EncryptionComponent: _encryption_kernel,
    MacIntegrityComponent: _mac_integrity_kernel,
    CounterTreeComponent: _counter_tree_kernel,
    EpcPagingComponent: _epc_paging_kernel,
    InvisiMemComponent: _invisimem_kernel,
}

#: Component types safe to run per event, in the engine's event loop,
#: alongside the batch kernels.  Safe means the component's float writes
#: are plain ``+=`` of one addend into ``ctx.latency`` fields (captured into
#: the window's ordered fold whenever a batch kernel writes the same field);
#: integer counters commute and need no promise.
_SCALAR_SAFE_TYPES: Set[type] = {StealthFreshnessComponent}


def declare_scalar_safe(component_type: type) -> None:
    """Register a third-party component as safe for the residual loop.

    The component promises that its hooks change float accumulators only by
    ``ctx.latency.<field> += addend`` and never read them for anything else
    (see ``_SCALAR_SAFE_TYPES``); its hooks then run per event in the
    engine's event loop beside the batch kernels, interleaved exactly as
    ``replay_events`` interleaves them.  See ``docs/extending.md``.
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
    the whole stack fall back to ``replay_events``, the event loop with no
    kernel -- exact, just slower.
    """
    if not HAVE_NUMPY:
        return False
    return all(
        type(c) in _BATCH_KERNELS or type(c) in _SCALAR_SAFE_TYPES for c in components
    )


def residual_components(components: Sequence[PathComponent]) -> List[PathComponent]:
    """The components the batch replay runs per event: those without a kernel."""
    return [c for c in components if type(c) not in _BATCH_KERNELS]


# ---------------------------------------------------------------------------
# The batch replay engine
# ---------------------------------------------------------------------------


#: One writer's latency addends: (event positions or None for one per
#: event, stack order, values in event order).
_Addends = Tuple[Optional["np.ndarray"], int, "np.ndarray"]

#: Addend slots per event: on_access samplers firing before the event (0),
#: the read path (1) and the writeback path (2).  Batch kernels add on the
#: read path; residual hooks may add in any phase.
_PHASES = 3


class BatchReplayEngine:
    """Replays miss-event windows with numpy kernels, bit-identically.

    One instance wraps one ``(engine, events)`` pair; :meth:`replay` has the
    same window contract as :meth:`SimulationEngine.replay_events` and can
    drive a sharded chain window by window.  ``events`` is the full-run
    stream, or -- given the run's slice width ``window`` -- one slice of the
    run's partition (:func:`~repro.sim.distill.load_slice`).  The verdict
    tiers the kernels read are fetched lazily, once per instance: from
    ``tiers`` when supplied (``tier`` is the MAC-only spelling), else the
    slice's tier from the result store (``store`` or the default store),
    where the run's tier chain put it (:func:`load_tier_slice` computes a
    missing one).
    """

    def __init__(
        self,
        engine: "SimulationEngine",
        events: MissEventStream,
        store: Optional[ResultStore] = None,
        tier: Optional[MacTier] = None,
        tiers: Iterable[VerdictTier] = (),
        window: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.events = events
        self.store = store
        self.window = window
        self._tiers: Dict[Tuple[str, Tuple], VerdictTier] = {
            _tier_slot(supplied.KIND, supplied.geometry): supplied for supplied in tiers
        }
        if tier is not None:
            self._tiers[_tier_slot(MacTier.KIND, mac_geometry_fields(engine.config))] = tier
        self._addends: Dict[str, List[_Addends]] = {}
        self._order = -1
        # The length of the run ``events`` belongs to; :meth:`replay` takes
        # it from the state it advances.
        self._num_accesses = events.stop_index

    def verdict_tier(self, component: PathComponent) -> VerdictTier:
        """``component``'s verdict tier over this engine's event stream."""
        simulator, geometry = _tier_geometry(component, self.engine.config)
        slot = _tier_slot(simulator.TIER.KIND, geometry)
        tier = self._tiers.get(slot)
        if tier is None:
            run = self._num_accesses
            window = run if self.window is None else self.window
            tier = load_tier_slice(
                component, self.events, run, window, self.engine.config, self.store
            )
            self._tiers[slot] = tier
        return tier

    def add_latency(
        self, field: str, values: "np.ndarray", positions: Optional["np.ndarray"] = None
    ) -> None:
        """Queue the running kernel's read-path addends to ``ctx.latency.<field>``.

        ``values`` are in event order (several addends of one event in the
        order the scalar hook adds them); ``positions`` are their events'
        positions in the window, ``None`` meaning one addend per event.  The
        window folds each field once, after every writer has contributed.
        """
        self._addends.setdefault(field, []).append((positions, self._order, values))

    def replay(
        self,
        state: "EngineState",
        stop: Optional[int] = None,
    ) -> "EngineState":
        """Advance ``state`` over ``[state.position, stop)`` in batch form.

        Same validation, same window semantics, same counters -- bit for
        bit -- as :meth:`SimulationEngine.replay_events`, including the
        fold of a slice's hierarchy statistics once, at the slice's stop;
        see the module docstring for why the float folds stay identical.
        """
        events = self.events
        stop, lo, hi = event_window(state, events, stop)
        if not vectorizable(state.components):
            raise ValueError(
                "component stack is not vectorizable; use replay_events() instead"
            )
        if state.position == stop:
            return state

        ctx = state.ctx
        self._num_accesses = state.num_accesses
        batch = EventBatch(events, lo, hi)
        n = batch.num_events
        n_wb = batch.num_writebacks
        self._addends = {}

        # ---- engine data fetch: common to every mode (batched) ------------
        if n:
            self._order = -1
            read_cxl = _tally(ctx, batch.addresses, CACHE_BLOCK_BYTES, is_write=False)
            self.add_latency("dram_ns", _device_latency(ctx, read_cxl))
            _tally(ctx, batch.wb_addresses, CACHE_BLOCK_BYTES, is_write=True)
            ctx.traffic.data_bytes += (n + n_wb) * CACHE_BLOCK_BYTES
            state.llc_read_misses += n
            state.writebacks += n_wb

        # ---- protection path: batch kernels, the rest per event -----------
        batched = set()
        for order, component in enumerate(state.components):
            kernel = _BATCH_KERNELS.get(type(component))
            if kernel is not None:
                batched.add(order)
                if n:
                    self._order = order
                    kernel(self, component, ctx, batch)

        captures = event_loop(state, events, lo, hi, stop, batched, tuple(self._addends))
        self._fold(ctx.latency, captures, batch)

        state.position = stop
        if stop == events.stop_index:
            fold_statistics(state, events)
        return state

    def _fold(
        self, latency: LatencyBreakdown, captures: Dict[str, "_Capture"], batch: EventBatch
    ) -> None:
        """Fold each latency field's addends in (event, phase, stack order).

        A field with one batch writer and no captured addends is already in
        event order; otherwise every writer's addends are merged with a
        stable sort, which keeps one writer's addends to one event in the
        order it emitted them.  A captured addend's event is located by its
        global index; samplers after the window's last event sort last.
        """
        for name, writers in self._addends.items():
            capture = captures.get(name)
            if len(writers) == 1 and not (capture and capture.addends):
                ordered = writers[0][2]
            else:
                slot_columns = []
                order_columns = []
                value_columns = []
                if capture:
                    keys = np.array(capture.keys, dtype=np.int64).reshape(-1, 3)
                    at = np.searchsorted(batch.indices, keys[:, 0].astype(np.uint64))
                    slot_columns.append(at * _PHASES + keys[:, 1])
                    order_columns.append(keys[:, 2])
                    value_columns.append(np.array(capture.addends, dtype=np.float64))
                for positions, order, values in writers:
                    if positions is None:
                        positions = np.arange(batch.num_events)
                    slot_columns.append(positions * _PHASES + 1)
                    order_columns.append(np.full(len(values), order, dtype=np.int64))
                    value_columns.append(values)
                permutation = np.lexsort(
                    (np.concatenate(order_columns), np.concatenate(slot_columns))
                )
                ordered = np.concatenate(value_columns)[permutation]
            setattr(latency, name, _sequential_sum(getattr(latency, name), ordered))


def mode_vector_profile(params: "ModeParameters") -> str:
    """How the vectorized core executes a registered mode's stack.

    Derived from the stack :func:`~repro.sim.path.build_components` builds
    for the mode and the kernel registry: ``"batch"`` when every component
    has a batch kernel and none samples ``on_access`` (no residual loop at
    all), ``"hybrid"`` when a residual loop runs beside the kernels, and
    ``"scalar"`` when numpy is unavailable or a component type is unknown
    to both registries (the full scalar fallback).
    """
    stack = build_components(params, SystemConfig(), EngineOptions(), footprint_bytes=1 << 20)
    if not vectorizable(stack):
        return "scalar"
    sampling = any(type(c).on_access is not PathComponent.on_access for c in stack)
    return "hybrid" if residual_components(stack) or sampling else "batch"


__all__ = [
    "HAVE_NUMPY",
    "BatchReplayEngine",
    "EpcTier",
    "EpcTierSimulator",
    "EventBatch",
    "MacTier",
    "MacTierSimulator",
    "TierSimulator",
    "TreeTier",
    "TreeTierSimulator",
    "VerdictTier",
    "compute_mac_tier",
    "declare_scalar_safe",
    "load_tier_slice",
    "mac_geometry_fields",
    "mac_tier_key",
    "mode_vector_profile",
    "put_tier_slices",
    "register_batch_kernel",
    "residual_components",
    "stack_tiers",
    "tier_slice_key",
    "tier_slice_keys",
    "vectorizable",
]
