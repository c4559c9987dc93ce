"""Verdict tiers pinned against the components they stand in for.

A verdict tier replaces a stateful component's per-event lookups with
columns computed once per ``(events, geometry)``.  These tests pin each
family against the real component, verdict for verdict: the counter-tree
tier against ``CounterTreeComponent._walk`` (fetch for fetch) and the EPC
tier against ``EpcPagingComponent._touch`` (fault for fault, dirty eviction
for dirty eviction); the stealth tier's pin against the
``StealthFreshnessComponent`` hooks is ``test_stealth_tier.py``, which runs
without numpy.  The shipped geometries rarely evict on a short trace, so
two runtime-registered tiny-geometry modes make tree-cache evictions,
partial walks and dirty EPC evictions happen (the strategy property in
``test_strategy_property.py`` draws the same geometries through the whole
pipeline).  A hypothesis property pins the windowed ``advance`` of every
family, the stealth one included, against the one-shot tier, the
store-served tier slices are pinned against it too, and the store-key tests
walk every config field to check each tier key -- full run or slice --
moves exactly with the fields that can change a verdict.  Every stack with
stealth versions reports the same stealth telemetry, which is why one tier
serves them all, and Toleo's stealth bytes are the stealth tier's misses.
"""

import dataclasses
import inspect
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim  # noqa: F401  -- registers the variant modes
from repro.core.config import KIB, PAGE_BYTES, CacheConfig, SystemConfig
from repro.core.toleo import ToleoDevice
from repro.sim.configs import (
    CounterTreeSpec,
    EpcPagingSpec,
    ModeParameters,
    mode_parameters,
    register_mode,
    registered_modes,
    unregister_mode,
)
from repro.sim import distill, replaycore
from repro.sim import store as store_module
from repro.sim.distill import (
    HierarchyDistiller,
    MissEventStream,
    events_slice_key,
    load_slice,
    slice_bounds,
    stream_event_slices,
)
from repro.sim.engine import EngineOptions, EngineState, SimulationEngine
from repro.sim.path import (
    CounterTreeComponent,
    EpcPagingComponent,
    MacIntegrityComponent,
    PathComponent,
    StealthFreshnessComponent,
    build_components,
)
from repro.sim.replaycore import (
    BatchReplayEngine,
    EpcTier,
    EpcTierSimulator,
    MacTier,
    MacTierSimulator,
    StealthTier,
    StealthTierSimulator,
    TreeTier,
    TreeTierSimulator,
    load_tier_slice,
    mac_tier_key,
    register_batch_kernel,
    tier_slice_key,
)
from repro.sim.results import LatencyBreakdown
from repro.sim.shard import ShardSpec, run_chains, shard_chain
from repro.sim.store import ResultStore, pack_columns, unpack_columns
from repro.workloads.base import Trace
from repro.workloads.registry import get_workload

np = pytest.importorskip("numpy")

#: The down-scaled geometry of the replay-core matrix (see test_replaycore).
SMALL_CONFIG = dataclasses.replace(
    SystemConfig(),
    l1_config=CacheConfig("L1", 8 * KIB, 4, latency_cycles=4),
    l2_config=CacheConfig("L2", 64 * KIB, 8, latency_cycles=14),
    l3_config=CacheConfig("L3", 256 * KIB, 8, latency_cycles=49),
    mac_cache_bytes=64 * KIB,
)

TRACE_LEN = 260

#: A 32-line, 2-way tree cache: evicts constantly on the fixture trace.
TINY_TREE = CounterTreeSpec(cache_bytes=2 * KIB, cache_ways=2)

#: Eight EPC pages (the fraction is zero, so the floor decides) against the
#: fixture's ~140 distinct pages.  The EPC-bound tree spans 32 KiB, which is
#: two levels deep, so the EPC mode has partial walks too.
TINY_EPC = EpcPagingSpec(epc_fraction=0.0, min_epc_pages=8)

TINY_MODES = (
    ModeParameters(
        "Tiny-SGX",
        aes_on_read=True,
        mac_traffic=True,
        counter_tree=TINY_TREE,
        epc_paging=TINY_EPC,
        description="test geometry: Client-SGX shape with a tiny tree cache and EPC",
    ),
    ModeParameters(
        "Tiny-Tree",
        aes_on_read=True,
        mac_traffic=True,
        counter_tree=TINY_TREE,
        description="test geometry: CIF-Tree shape with a tiny tree cache",
    ),
)

#: Every shipped tree-bearing mode, plus the tiny ones.
TREE_MODES = ("CIF-Tree", "Client-SGX", "Vault-Tree", "Toleo+Tree", "Tiny-SGX", "Tiny-Tree")
EPC_MODES = ("Client-SGX", "Tiny-SGX")


@pytest.fixture(scope="module", autouse=True)
def tiny_modes():
    for params in TINY_MODES:
        register_mode(params)
    yield
    for params in TINY_MODES:
        unregister_mode(params.label)


@pytest.fixture(scope="module")
def trace():
    return get_workload("memcached", scale=0.002, seed=7).capture(TRACE_LEN)


@pytest.fixture(scope="module")
def events(trace):
    return HierarchyDistiller(SMALL_CONFIG).distill(trace)


@pytest.fixture(scope="module")
def quiet_tail_events(trace):
    """The fixture trace followed by a replay of its last 40 accesses.

    The replay hits in L1, so the stream ends in a run of accesses with no
    miss event, and samplers there fire after the window's last event.
    """
    tail = dataclasses.replace(
        trace,
        addresses=trace.addresses + trace.addresses[-40:],
        writes=trace.writes + trace.writes[-40:],
    )
    return HierarchyDistiller(SMALL_CONFIG).distill(tail)


def begin(mode, events):
    engine = SimulationEngine.from_mode(mode, config=SMALL_CONFIG, seed=7)
    return engine, engine.begin(events, events.num_accesses)


def only(components, kind):
    (component,) = [c for c in components if isinstance(c, kind)]
    return component


# ---------------------------------------------------------------------------
# Oracles: the real hooks, one verdict per lookup
# ---------------------------------------------------------------------------


def walked(component, ctx, events):
    """Levels each real ``_walk`` fetched, per event and path."""
    read, writeback = bytearray(len(events)), bytearray(len(events))
    for pos, (_, address, is_write, wb) in enumerate(events.events()):
        before = component.node_fetches
        ctx.address, ctx.is_write = address, is_write
        component.on_read_miss(ctx)
        read[pos] = component.node_fetches - before
        if wb is not None:
            before = component.node_fetches
            ctx.address, ctx.is_write = wb, True
            component.on_writeback(ctx)
            writeback[pos] = component.node_fetches - before
    return read, writeback


def touched(component, ctx, events):
    """Faults and dirty evictions of the real ``_touch``, per event and path."""
    read, writeback = bytearray(len(events)), bytearray(len(events))
    evictions = []
    rack_access = ctx.rack.access
    current = [0]

    def recording(address, nbytes=64, is_write=False):
        if is_write:
            evictions.append((current[0], address // PAGE_BYTES))
        return rack_access(address, nbytes, is_write=is_write)

    ctx.rack.access = recording
    try:
        for pos, (index, address, _, wb) in enumerate(events.events()):
            current[0] = index
            before = component.page_faults
            ctx.address = address
            component.on_read_miss(ctx)
            read[pos] = component.page_faults - before
            if wb is not None:
                before = component.page_faults
                ctx.address = wb
                component.on_writeback(ctx)
                writeback[pos] = component.page_faults - before
    finally:
        del ctx.rack.access
    return read, writeback, evictions


class TestTreeTier:
    """The tree tier equals the real counter-tree walk, fetch for fetch."""

    @pytest.mark.parametrize("mode", TREE_MODES)
    def test_tier_matches_the_walk(self, mode, events, compute_tiers):
        engine, state = begin(mode, events)
        tree = only(state.components, CounterTreeComponent)
        (tier,) = [t for t in compute_tiers(state.components, events, SMALL_CONFIG)
                   if isinstance(t, TreeTier)]
        read, writeback = walked(tree, state.ctx, events)
        assert bytes(tier.read_fetched) == bytes(read)
        assert bytes(tier.wb_fetched) == bytes(writeback)

    @pytest.mark.parametrize("mode", ("Tiny-SGX", "Tiny-Tree"))
    def test_tiny_geometry_evicts_and_stops_part_way(self, mode, events, compute_tiers):
        # The differential above only proves something if the cache state
        # actually matters: evictions happen, and walks stop at a cached
        # ancestor above the leaf as well as at the leaf or the root.
        engine, state = begin(mode, events)
        tree = only(state.components, CounterTreeComponent)
        walked(tree, state.ctx, events)
        assert tree.cache.stats.evictions > 0
        (tier,) = [t for t in compute_tiers(state.components, events, SMALL_CONFIG)
                   if isinstance(t, TreeTier)]
        counts = set(tier.read_fetched) | set(tier.wb_fetched)
        assert tree.levels >= 2
        assert {0, tree.levels} <= counts
        assert any(0 < count < tree.levels for count in counts)


class TestEpcTier:
    """The EPC tier equals the real residency set, fault for fault."""

    @pytest.mark.parametrize("mode", EPC_MODES)
    def test_tier_matches_the_touches(self, mode, events, compute_tiers):
        engine, state = begin(mode, events)
        epc = only(state.components, EpcPagingComponent)
        (tier,) = [t for t in compute_tiers(state.components, events, SMALL_CONFIG)
                   if isinstance(t, EpcTier)]
        read, writeback, evictions = touched(epc, state.ctx, events)
        assert bytes(tier.read_faults) == bytes(read)
        assert bytes(tier.wb_faults) == bytes(writeback)
        assert list(zip(tier.evict_indices, tier.evict_pages)) == evictions
        assert epc.dirty_evictions == len(evictions)

    def test_tiny_epc_evicts_dirty_pages(self, events, compute_tiers):
        engine, state = begin("Tiny-SGX", events)
        (tier,) = [t for t in compute_tiers(state.components, events, SMALL_CONFIG)
                   if isinstance(t, EpcTier)]
        assert len(tier.evict_pages) > 0
        assert sum(tier.wb_faults) > 0


class TestTinyModesAreBitIdentical:
    """The tiny geometries through one batch replay loop, against serial."""

    @pytest.fixture(scope="class")
    def serial(self, trace):
        return {
            mode: SimulationEngine.from_mode(mode, config=SMALL_CONFIG, seed=7)
            .run(trace, num_accesses=TRACE_LEN)
            .to_dict()
            for mode in ("Tiny-SGX", "Tiny-Tree")
        }

    @pytest.mark.parametrize("mode", ("Tiny-SGX", "Tiny-Tree"))
    def test_checkpoint_roundtrip_between_vector_windows(
        self, mode, events, serial, compute_tiers
    ):
        engine, state = begin(mode, events)
        tiers = compute_tiers(state.components, events, SMALL_CONFIG)
        for stop in range(7, TRACE_LEN, 7):
            BatchReplayEngine(engine, events, tiers=tiers).replay(state, stop=stop)
            state = EngineState.deserialize(state.serialize())
        BatchReplayEngine(engine, events, tiers=tiers).replay(state)
        assert engine.finish(state, events).to_dict() == serial[mode]

    @pytest.mark.parametrize("mode", ("Tiny-SGX", "Tiny-Tree"))
    def test_scalar_then_vector_handoff(self, mode, events, serial, compute_tiers):
        engine, state = begin(mode, events)
        engine.replay_events(state, events, stop=TRACE_LEN // 2)
        tiers = compute_tiers(state.components, events, SMALL_CONFIG)
        BatchReplayEngine(engine, events, tiers=tiers).replay(state)
        assert engine.finish(state, events).to_dict() == serial[mode]


# ---------------------------------------------------------------------------
# Windowed advance == one-shot tier (hypothesis)
# ---------------------------------------------------------------------------

#: Caches far smaller than the hierarchy's, so every family sees hits,
#: misses and evictions on a few hundred accesses over 64 KiB.
TINY_HIERARCHY = dataclasses.replace(
    SystemConfig(),
    l1_config=CacheConfig("L1", 1 * KIB, 2, latency_cycles=4),
    l2_config=CacheConfig("L2", 2 * KIB, 2, latency_cycles=14),
    l3_config=CacheConfig("L3", 4 * KIB, 2, latency_cycles=49),
)

SIMULATORS = {
    "mac": lambda: MacTierSimulator(cache_bytes=256, cache_ways=2, line_bytes=64, macs_per_block=8),
    "tree": lambda: TreeTierSimulator(levels=3, arity=8, leaf_bytes=64, num_sets=4, ways=2),
    "epc": lambda: EpcTierSimulator(epc_pages=3),
    "stealth": lambda: StealthTierSimulator(
        tlb_entries=2,
        overflow_bytes=4 * 56,
        overflow_ways=2,
        stealth_bits=8,
        reset_probability=0.05,
        seed=3,
        sample_every=7,
    ),
}

ACCESS_STRATEGY = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1023), st.booleans()),
    min_size=1,
    max_size=300,
)


def synthetic_trace(accesses) -> Trace:
    return Trace(
        name="synthetic",
        scale=1.0,
        seed=0,
        footprint_bytes=1 << 20,
        llc_mpki=1.0,
        instructions_per_access=3.0,
        addresses=array("Q", (block * 64 for block, _ in accesses)),
        writes=bytearray(1 if write else 0 for _, write in accesses),
    )


def concatenated(tiers):
    """The tier of abutting windows' union: each column, window after window."""
    merged = type(tiers[0])(0, tiers[0].geometry)
    for tier in tiers:
        assert tier.geometry == merged.geometry
        merged.num_events += tier.num_events
        for name in merged.DENSE + merged.SPARSE:
            getattr(merged, name).extend(getattr(tier, name))
    if isinstance(merged, StealthTier):
        merged.at_stop = dict(tiers[-1].at_stop)
    return merged


def windowed(trace, window):
    distiller = HierarchyDistiller(TINY_HIERARCHY)
    return [
        distiller.advance(trace, start, min(start + window, len(trace)))
        for start in range(0, len(trace), window)
    ]


class TestWindowedAdvance:
    """``advance`` over any window partition concatenates to the one-shot tier."""

    @settings(max_examples=40, deadline=None)
    @given(
        accesses=ACCESS_STRATEGY,
        family=st.sampled_from(sorted(SIMULATORS)),
        width=st.sampled_from(("1", "7", "len/3", "len")),
    )
    def test_windows_concatenate_to_the_one_shot_tier(self, accesses, family, width):
        trace = synthetic_trace(accesses)
        window = {"1": 1, "7": 7, "len/3": max(1, len(trace) // 3), "len": len(trace)}[width]
        slices = windowed(trace, window)
        one_shot = SIMULATORS[family]().advance(MissEventStream.concat(slices))
        simulator = SIMULATORS[family]()
        tier = concatenated([simulator.advance(window) for window in slices])
        assert tier == one_shot
        assert tier.num_events == sum(len(window) for window in slices)

    def test_advance_rejects_a_gap(self):
        slices = windowed(synthetic_trace([(block, False) for block in range(20)]), 5)
        simulator = SIMULATORS["tree"]()
        simulator.advance(slices[0])
        with pytest.raises(ValueError, match="cannot advance"):
            simulator.advance(slices[2])

    @pytest.mark.parametrize("tier_type", (MacTier, TreeTier, EpcTier, StealthTier))
    def test_payload_round_trips(self, tier_type, events):
        family = {MacTier: "mac", TreeTier: "tree", EpcTier: "epc", StealthTier: "stealth"}
        tier = SIMULATORS[family[tier_type]]().advance(events)
        assert isinstance(tier, tier_type)
        restored = tier_type.from_payload(tier.to_payload())
        assert restored == tier
        assert restored.geometry == tier.geometry

    @pytest.mark.parametrize("spill", (False, True), ids=("inline", "bin-blob"))
    @pytest.mark.parametrize("family", ("mac", "tree", "epc", "stealth"))
    def test_each_family_round_trips_through_the_store(
        self, family, spill, events, tmp_path, monkeypatch
    ):
        if spill:
            monkeypatch.setattr(store_module, "INLINE_LIMIT", 0)
        tier = SIMULATORS[family]().advance(events)
        ResultStore(tmp_path).put("tier-x", tier, encoder=type(tier).to_payload)
        (entry,) = ResultStore(tmp_path).query()
        assert entry.inline is not spill
        served = ResultStore(tmp_path).get("tier-x", decoder=type(tier).from_payload)
        assert served == tier and served.geometry == tier.geometry
        if family == "stealth":
            assert served.at_stop == tier.at_stop and any(tier.at_stop.values())

    def test_corrupt_payload_is_rejected(self, events):
        header, columns = unpack_columns(SIMULATORS["tree"]().advance(events).to_payload())
        header["num_events"] += 1
        with pytest.raises(ValueError):
            TreeTier.from_payload(pack_columns(header, columns))


class TestTierSlices:
    """A run's tier slices, served from the store, are the one-shot tier cut
    at the slice boundaries."""

    RUN = ("memcached", 0.002, 7, TRACE_LEN)

    @pytest.mark.parametrize("mode", ("Tiny-SGX", "Toleo+Tree"))
    @pytest.mark.parametrize("window", (7, TRACE_LEN // 3))
    def test_served_slices_concatenate_to_the_one_shot_tier(
        self, window, mode, events, monkeypatch, compute_tiers, fresh_default_store
    ):
        stream_event_slices(*self.RUN, window, SMALL_CONFIG)
        slices = [
            load_slice(*self.RUN, window, index, SMALL_CONFIG)
            for index in range(len(slice_bounds(TRACE_LEN, window)))
        ]
        engine, state = begin(mode, events)
        one_shot = compute_tiers(state.components, events, SMALL_CONFIG)
        advances = []
        for simulator in set(replaycore._TIER_SIMULATORS.values()):
            original = simulator.advance

            def counting(self, events, _original=original):
                advances.append(type(self))
                return _original(self, events)

            monkeypatch.setattr(simulator, "advance", counting)
        middle = len(slices) // 2
        for component in state.components:
            if type(component) not in KINDS:
                continue
            # A first need at a middle slice computes the slices up to it, and
            # one at the last slice the whole run.
            advances.clear()
            load_tier_slice(component, slices[middle], TRACE_LEN, window, SMALL_CONFIG)
            assert len(advances) == middle + 1
            advances.clear()
            load_tier_slice(component, slices[-1], TRACE_LEN, window, SMALL_CONFIG)
            assert len(advances) == len(slices)
            advances.clear()
            served = [
                load_tier_slice(component, piece, TRACE_LEN, window, SMALL_CONFIG)
                for piece in slices
            ]
            assert advances == []
            (expected,) = [tier for tier in one_shot if tier.KIND == KINDS[type(component)]]
            assert concatenated(served) == expected
        # Narrow tier slices, like narrow event slices, skip the memory layer.
        assert fresh_default_store._memory == {}

    def test_a_damaged_tier_slice_is_recomputed(self, events, binary_damage, fresh_default_store):
        window = TRACE_LEN // 3
        stream_event_slices(*self.RUN, window, SMALL_CONFIG)
        piece = load_slice(*self.RUN, window, 1, SMALL_CONFIG)
        _, state = begin("Toleo", events)
        component = only(state.components, StealthFreshnessComponent)
        first = load_tier_slice(component, piece, TRACE_LEN, window, SMALL_CONFIG)
        key = tier_slice_key(component, *self.RUN, window, 1, SMALL_CONFIG)
        binary_damage(fresh_default_store, key)
        disk = ResultStore(fresh_default_store.root)
        assert disk.get(key, decoder=StealthTier.from_payload) is None
        recomputed = load_tier_slice(component, piece, TRACE_LEN, window, SMALL_CONFIG)
        assert recomputed == first
        assert disk.get(key, decoder=StealthTier.from_payload) == first

    def test_a_miss_stops_at_its_slice_and_reads_only_stored_events(
        self, events, monkeypatch, fresh_default_store
    ):
        # Five slices, of which ingestion has stored the first three so far.
        window = TRACE_LEN // 5
        store = fresh_default_store
        stream_event_slices(*self.RUN, window, SMALL_CONFIG)
        for index in (3, 4):
            store.invalidate(events_slice_key(*self.RUN, window, index, SMALL_CONFIG))
        wanted = load_slice(*self.RUN, window, 2, SMALL_CONFIG)

        def no_ingestion(*args, **kwargs):
            raise AssertionError("a tier miss re-ran ingestion")

        monkeypatch.setattr(distill, "stream_event_slices", no_ingestion)
        _, state = begin("CI", events)
        (component,) = [c for c in state.components if type(c) is MacIntegrityComponent]
        load_tier_slice(component, wanted, TRACE_LEN, window, SMALL_CONFIG)
        assert [
            tier_slice_key(component, *self.RUN, window, index, SMALL_CONFIG) in store
            for index in range(5)
        ] == [True, True, True, False, False]


# ---------------------------------------------------------------------------
# The stealth versions do not depend on the rest of the stack
# ---------------------------------------------------------------------------

#: The result fields the stealth-version component alone reports.
STEALTH_TELEMETRY = (
    "stealth_cache_hit_rate",
    "trip_format_counts",
    "toleo_usage_bytes",
    "toleo_peak_bytes",
    "toleo_usage_timeline",
)

#: A stack of stealth versions and nothing else, registered at runtime.
STEALTH_ONLY = ModeParameters(
    "Stealth-Only", stealth_traffic=True, description="test stack: stealth versions alone"
)


class TestStealthTelemetryIsStackIndependent:
    """Every stack with stealth versions reports the same stealth telemetry,
    serially and through the pipeline: the premise that lets one stealth
    tier per run serve Toleo, Toleo+Tree and any other such stack."""

    RUN = ("redis", 0.002, 7, 3000)

    def test_every_stealth_stack_reports_the_same_telemetry(self, fresh_default_store):
        name, scale, seed, num_accesses = self.RUN
        register_mode(STEALTH_ONLY)
        try:
            modes = [m for m in registered_modes() if mode_parameters(m).stealth_traffic]
            assert {"Toleo", "Toleo+Tree", "Stealth-Only"} <= set(modes)
            trace = get_workload(name, scale=scale, seed=seed).capture(num_accesses)
            serial = [
                SimulationEngine.from_mode(mode, config=SMALL_CONFIG, seed=seed).run(
                    trace, num_accesses=num_accesses
                )
                for mode in modes
            ]
            chains = [
                shard_chain(name, mode, ShardSpec(1100), scale, num_accesses, seed,
                            config=SMALL_CONFIG, window=num_accesses // 3)
                for mode in modes
            ]
            piped = run_chains(chains, jobs=1)
        finally:
            unregister_mode(STEALTH_ONLY.label)
        reported = [
            {field: getattr(result, field) for field in STEALTH_TELEMETRY}
            for result in serial + piped
        ]
        assert all(telemetry == reported[0] for telemetry in reported), modes
        assert serial[0].writebacks > 0 and len(serial[0].toleo_usage_timeline) > 1


# ---------------------------------------------------------------------------
# Store keys move exactly with the fields that can change a verdict
# ---------------------------------------------------------------------------

HIERARCHY_GEOMETRY = {
    f"config.{level}_config.{field}"
    for level in ("l1", "l2", "l3")
    for field in ("size_bytes", "ways", "line_bytes")
}

#: Field path -> the tier keys it must change.  Every other field of
#: CounterTreeSpec, EpcPagingSpec, SystemConfig (nested configs included)
#: and EngineOptions must change none: latencies, penalties, bandwidths and
#: engine options shape costs, never verdicts.
MUST_CHANGE = {
    "tree.scheme": {"treetier"},
    "tree.cache_bytes": {"treetier"},
    "tree.cache_ways": {"treetier"},
    # Client-SGX's tree spans the EPC, so the EPC size shapes it too.
    "epc.epc_fraction": {"treetier", "epctier"},
    "epc.min_epc_pages": {"treetier", "epctier"},
    "config.mac_cache_bytes": {"mactier"},
    "config.mac_cache_ways": {"mactier"},
    "config.tlb_stealth_entries": {"stealthtier"},
    "config.stealth_overflow_buffer_bytes": {"stealthtier"},
    "config.stealth_overflow_ways": {"stealthtier"},
    # The Trip table's version width and reset rate drive its format changes.
    "config.toleo.stealth_bits": {"stealthtier"},
    "config.toleo.reset_probability": {"stealthtier"},
    # The timeline's sample period.
    "options.timeline_samples": {"stealthtier"},
    **{path: {"mactier", "stealthtier", "treetier", "epctier"} for path in HIERARCHY_GEOMETRY},
}

KINDS = {MacIntegrityComponent: "mactier", StealthFreshnessComponent: "stealthtier",
         CounterTreeComponent: "treetier", EpcPagingComponent: "epctier"}

#: Slice 1 of the fixture run's 64-access partition, as ``tier_slice_key``'s
#: slice axes: benchmark, scale, seed, run length, window, slice index.
SLICE = ("memcached", 0.002, 7, TRACE_LEN, 64, 1)

#: Which key each key test checks: the full-run tier or one tier slice.
KEYINGS = pytest.mark.parametrize("keyed_by", (None, SLICE), ids=("full-run", "slice"))


def full_run(events):
    """``tier_slice_key``'s slice axes for the one slice of a one-window run."""
    run = events.num_accesses
    return events.name, events.scale, events.seed, run, run, 0


def tier_keys(events, tree, epc, config, options, keyed_by=None):
    """Each tier kind's key for a Client-SGX stack with stealth versions
    added, so it reads all four tiers: the full-run key, or the key of the
    tier slice ``keyed_by`` names."""
    params = dataclasses.replace(
        mode_parameters("Client-SGX"), counter_tree=tree, epc_paging=epc, stealth_traffic=True
    )
    stack = build_components(params, config, options, footprint_bytes=events.footprint_bytes)
    return {
        KINDS[type(component)]: tier_slice_key(
            component, *(keyed_by or full_run(events)), config
        )
        for component in stack
        if type(component) in KINDS
    }


def probe_keys(events, keyed_by):
    base = mode_parameters("Client-SGX")
    return tier_keys(
        events, base.counter_tree, base.epc_paging, SMALL_CONFIG, EngineOptions(), keyed_by
    )


class TestTierKeys:
    """Store-key completeness by introspection, scoped to the tier keys."""

    @KEYINGS
    def test_every_field_moves_exactly_the_keys_it_can_change(
        self, events, keyed_by, leaves, replaced, perturbed
    ):
        base = mode_parameters("Client-SGX")
        roots = {
            "tree": base.counter_tree,
            "epc": base.epc_paging,
            "config": SMALL_CONFIG,
            "options": EngineOptions(),
        }
        reference = tier_keys(events, *roots.values(), keyed_by)
        assert set(reference) == set(KINDS.values())
        seen = set()
        for root, value in roots.items():
            for path, leaf in leaves(value, root):
                seen.add(path)
                variant = dict(roots)
                variant[root] = replaced(value, path.partition(".")[2], perturbed(path, leaf))
                keys = tier_keys(events, *variant.values(), keyed_by)
                changed = {kind for kind in reference if keys[kind] != reference[kind]}
                assert changed == MUST_CHANGE.get(path, set()), path
        # The table names only real fields, so a rename cannot hide a gap.
        assert set(MUST_CHANGE) <= seen

    @KEYINGS
    def test_cost_parameters_share_the_tiers(self, events, keyed_by):
        # The cost parameters most easily mistaken for geometry, spelled out.
        base = mode_parameters("Client-SGX")
        slower = dataclasses.replace(
            SMALL_CONFIG,
            local_dram_latency_ns=99.0,
            cxl_link_latency_ns=300.0,
            toleo=dataclasses.replace(
                SMALL_CONFIG.toleo, link_latency_ns=300.0, dram_access_latency_ns=40.0
            ),
        )
        penalty = dataclasses.replace(base.epc_paging, page_fault_penalty_ns=1.0)
        overlap = EngineOptions(integrity_overlap=1.0)
        assert tier_keys(
            events, base.counter_tree, penalty, slower, overlap, keyed_by
        ) == probe_keys(events, keyed_by)

    def test_a_tier_slice_key_moves_with_every_slice_axis(self, events):
        # The slice axes are events_slice_key's, checked by name so an axis
        # added there cannot be missed here; the hierarchy geometry rides in
        # through the config (test_every_field_moves_exactly_the_keys_it_can_change).
        axes = list(inspect.signature(events_slice_key).parameters)
        assert axes == ["name", "scale", "seed", "num_accesses", "window", "index", "config"]
        moved = ("bsw", 0.004, 8, 2 * TRACE_LEN, 65, 2)
        reference = probe_keys(events, SLICE)
        for position, axis in enumerate(axes[:-1]):
            keyed_by = SLICE[:position] + (moved[position],) + SLICE[position + 1 :]
            keys = probe_keys(events, keyed_by)
            assert all(keys[kind] != reference[kind] for kind in reference), axis

    @pytest.mark.parametrize("window", (TRACE_LEN, TRACE_LEN + 13))
    def test_a_one_window_tier_key_is_the_full_run_key(self, events, window):
        one_window = ("memcached", 0.002, 7, TRACE_LEN, window, 0)
        assert probe_keys(events, one_window) == probe_keys(events, None)
        assert probe_keys(events, one_window)["mactier"] == mac_tier_key(
            events, SMALL_CONFIG
        )


# ---------------------------------------------------------------------------
# Where tiers come from, and which modes batch
# ---------------------------------------------------------------------------


class TestTierProvenance:
    """The run's tier chain computes each tier family once, slice by slice;
    every shard reads its slices' tiers back."""

    @pytest.mark.parametrize("window", (TRACE_LEN, 64))
    def test_shards_read_the_tier_chains_tiers(
        self, window, monkeypatch, trace, fresh_default_store
    ):
        # A simulator built outside the tier chain means a replay step
        # missed a stored tier slice -- one that failed to decode, say.
        runs = []
        for simulator in (StealthTierSimulator, TreeTierSimulator, EpcTierSimulator):
            original = simulator.__init__

            def counting(self, *args, _original=original, **kwargs):
                runs.append(type(self).__name__)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(simulator, "__init__", counting)
        modes = ("Client-SGX", "Toleo")
        serial = [
            SimulationEngine.from_mode(mode, seed=7).run(trace, num_accesses=TRACE_LEN)
            for mode in modes
        ]
        chains = [
            shard_chain("memcached", mode, ShardSpec(100), 0.002, TRACE_LEN, 7, window=window)
            for mode in modes
        ]
        results = run_chains(chains, jobs=1)
        assert [r.to_dict() for r in results] == [r.to_dict() for r in serial]
        assert sorted(runs) == ["EpcTierSimulator", "StealthTierSimulator", "TreeTierSimulator"]
        kinds = [key.rsplit("-", 1)[0] for key in fresh_default_store.disk_keys()]
        slices = len(slice_bounds(TRACE_LEN, window))
        assert {kind: kinds.count(kind) for kind in KINDS.values()} == dict.fromkeys(
            KINDS.values(), slices
        )

    @pytest.mark.parametrize("window", (TRACE_LEN, 64))
    def test_stealth_bytes_are_the_stealth_tiers_misses(self, window, fresh_default_store):
        # Conservation: each stealth-cache miss, on either path, moves one
        # version over the link, and nothing else in Toleo moves any.
        run = ("memcached", 0.002, 7, TRACE_LEN)
        chain = shard_chain(
            "memcached", "Toleo", ShardSpec(100), 0.002, TRACE_LEN, 7, SMALL_CONFIG, window=window
        )
        (result,) = run_chains([chain], jobs=1)
        misses = 0
        for index in range(len(slice_bounds(TRACE_LEN, window))):
            piece = load_slice(*run, window, index, SMALL_CONFIG)
            stack = build_components(
                mode_parameters("Toleo"), SMALL_CONFIG, EngineOptions(),
                footprint_bytes=piece.footprint_bytes, seed=7, num_accesses=TRACE_LEN,
            )
            key = tier_slice_key(
                only(stack, StealthFreshnessComponent), *run, window, index, SMALL_CONFIG
            )
            tier = fresh_default_store.get(key, decoder=StealthTier.from_payload)
            writebacks = piece.writeback_view != distill.WB_NONE
            misses += int(np.count_nonzero(tier.view("read_hits") == 0))
            misses += int(np.count_nonzero(writebacks & (tier.view("wb_hits") == 0)))
        assert misses > 0
        assert result.traffic.stealth_bytes == misses * ToleoDevice.TRANSFER_BYTES


# ---------------------------------------------------------------------------
# The latency fold: several kernels write one accumulator
# ---------------------------------------------------------------------------


class Skew(PathComponent):
    """A batch-kernel freshness writer with non-integer addends, so where
    they land among the other writers' addends changes the fold's bits."""

    def on_read_miss(self, ctx) -> None:
        ctx.latency.freshness_ns += 1.0 / (3 + ctx.address % 97)


def _skew_kernel(replay, component, ctx, batch) -> None:
    replay.add_latency("freshness_ns", 1.0 / (3 + batch.addresses % 97))


register_batch_kernel(Skew, _skew_kernel)


class RecordingLatency(LatencyBreakdown):
    """Reads ``freshness_ns`` as 0.0 and records every addend stored into it."""

    freshness_ns = property(
        lambda self: 0.0,
        lambda self, addend: self.__dict__.setdefault("addends", []).append(addend),
    )


def skewed_stack(events, place):
    """Toleo+Tree ([encryption, MAC, stealth, tree]) plus the Skew writer
    right after the stealth versions or last: three kernels -- stealth,
    tree and Skew -- write freshness_ns."""
    engine, state = begin("Toleo+Tree", events)
    assert isinstance(state.components[2], StealthFreshnessComponent)
    at = 3 if place == "after-stealth" else len(state.components)
    state.components = [*state.components[:at], Skew(), *state.components[at:]]
    return engine, state


class TestLatencyFold:
    """Several kernels writing one accumulator fold in (event, stack
    order) -- the per-event loop's order."""

    @pytest.mark.parametrize("stop", (TRACE_LEN // 3, TRACE_LEN))
    @pytest.mark.parametrize("place", ("after-stealth", "last"))
    def test_batch_writers_fold_in_stack_order(self, events, stop, place, compute_tiers):
        engine, scalar = skewed_stack(events, place)
        engine.replay_events(scalar, events, stop=stop)
        _, batched = skewed_stack(events, place)
        tiers = compute_tiers(batched.components, events, SMALL_CONFIG)
        BatchReplayEngine(engine, events, tiers=tiers).replay(batched, stop=stop)
        assert type(batched.ctx.latency) is type(scalar.ctx.latency)
        assert vars(batched.ctx.latency) == vars(scalar.ctx.latency)
        assert batched.ctx.traffic == scalar.ctx.traffic
        assert batched.ctx.rack.local.stats == scalar.ctx.rack.local.stats
        assert batched.ctx.rack.pool.stats == scalar.ctx.rack.pool.stats

    @pytest.mark.parametrize("stream", ("events", "quiet_tail_events"))
    @pytest.mark.parametrize("place", ("after-stealth", "last"))
    def test_the_fold_adds_the_loops_addends_in_the_loops_order(
        self, request, stream, place, monkeypatch, compute_tiers
    ):
        # Bit-identity alone is a weak witness: once the accumulator is
        # large, small addends round to its grid one by one and commute.
        # So compare the sequences themselves.
        events = request.getfixturevalue(stream)
        engine, scalar = skewed_stack(events, place)
        scalar.ctx.latency = recording = RecordingLatency()
        recording.addends.clear()
        engine.replay_events(scalar, events)
        folds = []
        sequential_sum = replaycore._sequential_sum

        def spy(initial, values):
            folds.append(list(values))
            return sequential_sum(initial, values)

        monkeypatch.setattr(replaycore, "_sequential_sum", spy)
        _, batched = skewed_stack(events, place)
        tiers = compute_tiers(batched.components, events, SMALL_CONFIG)
        BatchReplayEngine(engine, events, tiers=tiers).replay(batched)
        # Skew adds once per event, the stealth kernel once per version
        # fetch (a stealth-cache read miss, counted from the tier: the
        # batched component's device stays cold), and the tree kernel too.
        (stealth,) = [tier for tier in tiers if isinstance(tier, StealthTier)]
        fetches = stealth.num_events - sum(stealth.read_hits)
        assert fetches > 0
        assert only(batched.components, StealthFreshnessComponent).toleo.stats.reads == 0
        assert len(recording.addends) > len(events) + fetches
        assert recording.addends in folds

    def test_a_window_with_no_event_fires_its_due_samples(
        self, quiet_tail_events, compute_tiers
    ):
        # The quiet tail holds no miss event, but the timeline sampler is
        # due in it: the stealth kernel runs on the empty window anyway.
        events = quiet_tail_events
        quiet = events.indices[-1] + 1
        engine, scalar = begin("Toleo", events)
        engine.replay_events(scalar, events)
        _, batched = begin("Toleo", events)
        tiers = compute_tiers(batched.components, events, SMALL_CONFIG)
        replayer = BatchReplayEngine(engine, events, tiers=tiers)
        replayer.replay(batched, stop=quiet)
        timeline = only(batched.components, StealthFreshnessComponent).timeline
        sampled = len(timeline)
        replayer.replay(batched)
        assert len(timeline) > sampled
        expected = engine.finish(scalar, events).to_dict()
        result = engine.finish(batched, events).to_dict()
        assert result["toleo_usage_timeline"] == expected["toleo_usage_timeline"]
        assert result == expected
