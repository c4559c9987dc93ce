"""Differential and property tests for the vectorized replay core.

The contract of :mod:`repro.sim.replaycore` is the one every execution
strategy keeps: *bit-identical* to the serial engine -- every counter,
floats included, no tolerance.  These tests pin one batch replay loop per
mode, unsharded and across checkpoint round-trips; the strategy property in
``test_strategy_property.py`` runs the kernels through the whole pipeline
at every shard width and slice window.
The MAC tier is additionally pinned against the real
:class:`~repro.cache.mac_cache.MacCache`, hit for hit, and the packed numpy
column views are pinned against ``MissEventStream.events()`` with Hypothesis.
"""

import dataclasses
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim  # noqa: F401  -- registers the variant modes
from repro.cache.mac_cache import MacCache
from repro.core.config import KIB, CacheConfig, SystemConfig
from repro.sim.configs import mode_parameters, registered_modes
from repro.sim.distill import WB_NONE, HierarchyDistiller, MissEventStream
from repro.sim.engine import EngineOptions, EngineState, SimulationEngine
from repro.sim import distill, replaycore
from repro.sim.path import MacIntegrityComponent, PathComponent, build_components
from repro.sim.replaycore import (
    BatchReplayEngine,
    MacTier,
    compute_mac_tier,
    load_tier_slice,
    mac_tier_key,
    mode_vector_profile,
    register_batch_kernel,
    vectorizable,
)
from repro.sim.store import ResultStore
from repro.workloads.base import Trace
from repro.workloads.registry import get_workload

np = pytest.importorskip("numpy")

#: Same down-scaled geometry as the distillation/sharding matrices: small
#: caches make evictions (and therefore writeback events) frequent on short
#: traces, and the small MAC cache keeps both tier verdicts exercised.
SMALL_CONFIG = dataclasses.replace(
    SystemConfig(),
    l1_config=CacheConfig("L1", 8 * KIB, 4, latency_cycles=4),
    l2_config=CacheConfig("L2", 64 * KIB, 8, latency_cycles=14),
    l3_config=CacheConfig("L3", 256 * KIB, 8, latency_cycles=49),
    mac_cache_bytes=64 * KIB,
)

TRACE_LEN = 260

#: Every shipped mode: each of its components has a batch kernel, so each
#: profiles ``batch`` with numpy.
SHIPPED_MODES = (
    "NoProtect",
    "C",
    "CI",
    "Toleo",
    "InvisiMem",
    "CIF-Tree",
    "Client-SGX",
    "Vault-Tree",
    "Scalable-SGX",
    "Toleo+Tree",
)

ALL_MODES = registered_modes()


@pytest.fixture(scope="module")
def trace():
    return get_workload("memcached", scale=0.002, seed=7).capture(TRACE_LEN)


@pytest.fixture(scope="module")
def events(trace):
    return HierarchyDistiller(SMALL_CONFIG).distill(trace)


@pytest.fixture(scope="module")
def tier(events):
    return compute_mac_tier(events, SMALL_CONFIG)


@pytest.fixture(scope="module")
def serial_results(trace):
    """The full per-access engine's result per mode (the ground truth)."""
    return {
        mode: SimulationEngine.from_mode(mode, config=SMALL_CONFIG, seed=7).run(
            trace, num_accesses=TRACE_LEN
        )
        for mode in ALL_MODES
    }


def vectorized_run(mode, events, tier):
    """One full vectorized replay: begin / batch replay / finish."""
    engine = SimulationEngine.from_mode(mode, config=SMALL_CONFIG, seed=7)
    state = engine.begin(events, events.num_accesses)
    BatchReplayEngine(engine, events, tier=tier).replay(state)
    return engine.finish(state, events)


class TestVectorizedReplayIsBitIdentical:
    """Batch replay == full replay, for every mode."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_unsharded_batch_replay_matches_serial(self, mode, events, tier, serial_results):
        result = vectorized_run(mode, events, tier)
        assert result.to_dict() == serial_results[mode].to_dict()

    @pytest.mark.parametrize("mode", ("CI", "Toleo", "Client-SGX", "Toleo+Tree"))
    def test_checkpoint_roundtrip_between_vector_windows(
        self, mode, events, tier, serial_results
    ):
        # Serialize/deserialize the state at every window boundary, exactly
        # as the cross-process shard chain does.
        engine = SimulationEngine.from_mode(mode, config=SMALL_CONFIG, seed=7)
        state = engine.begin(events, events.num_accesses)
        for stop in range(7, TRACE_LEN, 7):
            BatchReplayEngine(engine, events, tier=tier).replay(state, stop=stop)
            state = EngineState.deserialize(state.serialize())
        BatchReplayEngine(engine, events, tier=tier).replay(state)
        result = engine.finish(state, events)
        assert result.to_dict() == serial_results[mode].to_dict()

    @pytest.mark.parametrize("mode", ("Toleo", "InvisiMem", "Client-SGX", "Toleo+Tree"))
    def test_scalar_then_vector_handoff(self, mode, events, tier, serial_results):
        # Strategy compatibility is one-way: a scalar prefix leaves every
        # component cache in its true state, so a vectorized continuation
        # (whose tier verdicts equal the true cache state at any position)
        # stays exact -- for the MAC, tree and EPC tiers alike.  The reverse
        # handoff is forbidden by construction -- a chain's loop is fixed by
        # its stack and the worker's numpy, and checkpoint keys record the
        # latter.
        engine = SimulationEngine.from_mode(mode, config=SMALL_CONFIG, seed=7)
        state = engine.begin(events, events.num_accesses)
        engine.replay_events(state, events, stop=TRACE_LEN // 2)
        BatchReplayEngine(engine, events, tier=tier).replay(state)
        result = engine.finish(state, events)
        assert result.to_dict() == serial_results[mode].to_dict()

    def test_default_config_matches_serial(self):
        # One mode at the real (Table 3) geometry, so the scaled matrix
        # config cannot mask a geometry-dependent divergence.
        trace = get_workload("bsw", scale=0.002, seed=3).capture(2000)
        serial = SimulationEngine.from_mode("Toleo", seed=3).run(trace, num_accesses=2000)
        events = HierarchyDistiller(None).distill(trace)
        engine = SimulationEngine.from_mode("Toleo", seed=3)
        state = engine.begin(events, events.num_accesses)
        BatchReplayEngine(engine, events, tier=compute_mac_tier(events)).replay(state)
        assert engine.finish(state, events).to_dict() == serial.to_dict()


class TestMacTier:
    """The distilled MAC tier equals the real MAC cache, hit for hit."""

    def test_tier_matches_real_mac_cache(self, events, tier):
        cache = MacCache(config=SMALL_CONFIG)
        for pos, (_, address, _, wb) in enumerate(events.events()):
            assert tier.read_hits[pos] == int(cache.access(address)), pos
            if wb is not None:
                assert tier.wb_hits[pos] == int(cache.access(wb, is_write=True)), pos
        assert int(np.sum(tier.view("read_hits"))) + int(np.sum(tier.view("wb_hits"))) == (
            cache.stats.hits
        )

    def test_tier_covers_both_verdicts(self, tier):
        # The fixture geometry must exercise hits *and* misses, or the
        # differential above proves nothing.
        hits = int(np.sum(tier.view("read_hits")))
        assert 0 < hits < tier.num_events

    def test_payload_round_trips(self, tier):
        restored = MacTier.from_payload(tier.to_payload())
        assert restored.to_payload() == tier.to_payload()
        assert bytes(restored.read_hits) == bytes(tier.read_hits)
        assert bytes(restored.wb_hits) == bytes(tier.wb_hits)

    def test_key_tracks_mac_geometry_only(self, events):
        base_key = mac_tier_key(events, SMALL_CONFIG)
        # Non-MAC config changes (latencies, fetch width) share the tier.
        slower = dataclasses.replace(
            SMALL_CONFIG, local_dram_latency_ns=99.0, aes_latency_cycles=80
        )
        assert mac_tier_key(events, slower) == base_key
        # MAC geometry changes invalidate it.
        bigger = dataclasses.replace(SMALL_CONFIG, mac_cache_bytes=128 * KIB)
        assert mac_tier_key(events, bigger) != base_key
        fewer_ways = dataclasses.replace(SMALL_CONFIG, mac_cache_ways=2)
        assert mac_tier_key(events, fewer_ways) != base_key

    @staticmethod
    def _mac(events):
        stack = build_components(
            mode_parameters("CI"), SMALL_CONFIG, EngineOptions(), events.footprint_bytes
        )
        (mac,) = [c for c in stack if isinstance(c, MacIntegrityComponent)]
        return mac

    def test_stored_tier_persists_and_reloads(self, events, tier, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        mac = self._mac(events)
        first = load_tier_slice(mac, events, TRACE_LEN, TRACE_LEN, SMALL_CONFIG, store=store)
        assert first == tier
        # A one-window run's tier keeps the full-run key.
        assert mac_tier_key(events, SMALL_CONFIG) in store.disk_keys()

        # A fresh store over the same directory serves the tier from disk,
        # not recomputed.
        def recompute(*args):
            raise AssertionError("MAC tier recomputed instead of served from disk")

        monkeypatch.setattr(replaycore.MacTierSimulator, "advance", recompute)
        reloaded = load_tier_slice(
            mac, events, TRACE_LEN, TRACE_LEN, SMALL_CONFIG, store=ResultStore(tmp_path)
        )
        assert reloaded == first

    def test_tier_slice_must_belong_to_its_partition(self, trace, events, tmp_path):
        distiller = HierarchyDistiller(SMALL_CONFIG)
        distiller.advance(trace, 0, 10)
        window = distiller.advance(trace, 10, 20)
        store = ResultStore(tmp_path)
        mac = self._mac(events)
        for stream, width in ((window, 7), (window, 20), (events, 64)):
            with pytest.raises(ValueError, match="not a slice"):
                load_tier_slice(mac, stream, TRACE_LEN, width, SMALL_CONFIG, store=store)
        assert list(store.disk_keys()) == []


class TestCapabilityRegistry:
    """Component gating: batch where declared, scalar fallback everywhere."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_registered_modes_are_vectorizable(self, mode, events):
        engine = SimulationEngine.from_mode(mode, config=SMALL_CONFIG, seed=7)
        state = engine.begin(events, events.num_accesses)
        assert vectorizable(state.components)

    def test_unknown_component_blocks_vectorization(self):
        class Opaque(PathComponent):
            def on_event(self, ctx):  # pragma: no cover - never dispatched
                pass

        assert not vectorizable([Opaque()])

    def test_registration_rejects_non_components(self):
        with pytest.raises(TypeError):
            register_batch_kernel(int, lambda replay, comp, ctx, batch: None)

    def test_replay_refuses_unvectorizable_stacks(self, events):
        class Opaque2(PathComponent):
            def on_event(self, ctx):  # pragma: no cover - never dispatched
                pass

        engine = SimulationEngine.from_mode("CI", config=SMALL_CONFIG, seed=7)
        state = engine.begin(events, events.num_accesses)
        state.components = list(state.components) + [Opaque2()]
        with pytest.raises(ValueError, match="not vectorizable"):
            BatchReplayEngine(engine, events).replay(state)

    @pytest.mark.parametrize("mode", SHIPPED_MODES)
    def test_mode_vector_profile(self, mode):
        assert mode_vector_profile(mode_parameters(mode)) == "batch"

    def test_every_registered_mode_has_a_profile(self):
        # Listing all ten makes a new registration decide its row.
        assert set(SHIPPED_MODES) == set(ALL_MODES)

    @pytest.mark.parametrize("mode", SHIPPED_MODES)
    def test_without_numpy_every_mode_profiles_scalar(self, mode, monkeypatch):
        monkeypatch.setattr(distill, "HAVE_NUMPY", False)
        assert mode_vector_profile(mode_parameters(mode)) == "scalar"

    def test_unknown_components_profile_scalar(self, monkeypatch):
        class Opaque3(PathComponent):
            pass

        monkeypatch.setattr(replaycore, "build_components", lambda *args, **kwargs: [Opaque3()])
        assert mode_vector_profile(mode_parameters("CI")) == "scalar"


# ---------------------------------------------------------------------------
# Column views (satellite: numpy views pinned against events())
# ---------------------------------------------------------------------------

#: Random access streams over a small region (the distillation suite's
#: strategy): contended sets make evictions, hence writeback columns, common.
ACCESS_STRATEGY = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1023), st.booleans()),
    min_size=1,
    max_size=300,
)

TINY_CONFIG = dataclasses.replace(
    SystemConfig(),
    l1_config=CacheConfig("L1", 1 * KIB, 2, latency_cycles=4),
    l2_config=CacheConfig("L2", 2 * KIB, 2, latency_cycles=14),
    l3_config=CacheConfig("L3", 4 * KIB, 2, latency_cycles=49),
)


def synthetic_trace(addresses, writes) -> Trace:
    return Trace(
        name="synthetic",
        scale=1.0,
        seed=0,
        footprint_bytes=1 << 20,
        llc_mpki=1.0,
        instructions_per_access=3.0,
        addresses=array("Q", addresses),
        writes=bytearray(writes),
    )


def empty_stream() -> MissEventStream:
    return MissEventStream(
        name="empty",
        scale=1.0,
        seed=0,
        footprint_bytes=1 << 20,
        llc_mpki=1.0,
        instructions_per_access=3.0,
        num_accesses=0,
    )


def views_as_events(stream):
    """Reassemble ``events()`` tuples from the packed column views."""
    return [
        (int(i), int(a), bool(w), None if int(wb) == WB_NONE else int(wb))
        for i, a, w, wb in zip(
            stream.index_view, stream.address_view, stream.write_view, stream.writeback_view
        )
    ]


class TestColumnViews:
    """The numpy column views are the events() iterator, column-packed."""

    @settings(max_examples=60, deadline=None)
    @given(accesses=ACCESS_STRATEGY)
    def test_views_match_events_on_random_streams(self, accesses):
        trace = synthetic_trace(
            (block * 64 for block, _ in accesses),
            (1 if write else 0 for _, write in accesses),
        )
        stream = HierarchyDistiller(TINY_CONFIG).distill(trace)
        assert views_as_events(stream) == list(stream.events())

    @settings(max_examples=30, deadline=None)
    @given(accesses=ACCESS_STRATEGY)
    def test_views_survive_payload_round_trip(self, accesses):
        trace = synthetic_trace(
            (block * 64 for block, _ in accesses),
            (1 if write else 0 for _, write in accesses),
        )
        stream = HierarchyDistiller(TINY_CONFIG).distill(trace)
        restored = MissEventStream.from_payload(stream.to_payload())
        assert views_as_events(restored) == list(stream.events())

    def test_views_on_real_stream(self, events):
        assert views_as_events(events) == list(events.events())
        assert events.index_view.dtype == np.uint64
        assert events.address_view.dtype == np.uint64
        assert events.write_view.dtype == np.uint8
        assert events.writeback_view.dtype == np.uint64

    def test_empty_stream_views(self):
        stream = empty_stream()
        stream.validate()
        assert len(stream.index_view) == 0
        assert len(stream.address_view) == 0
        assert len(stream.write_view) == 0
        assert len(stream.writeback_view) == 0
        assert views_as_events(stream) == []

    def test_single_event_stream_views(self):
        # One access, one compulsory miss, no writeback.
        trace = synthetic_trace([0], [1])
        stream = HierarchyDistiller(TINY_CONFIG).distill(trace)
        assert len(stream) == 1
        assert views_as_events(stream) == [(0, 0, True, None)]

    def test_views_are_read_only(self, events):
        with pytest.raises(ValueError):
            events.index_view[0] = 1
        with pytest.raises(ValueError):
            events.write_view[0] = 1

    def test_views_are_zero_copy(self):
        trace = synthetic_trace([0, 64, 128], [1, 0, 1])
        stream = HierarchyDistiller(TINY_CONFIG).distill(trace)
        view = stream.address_view
        # A live view exports the packed buffer: growing the stream now must
        # fail loudly rather than silently detach the view.
        with pytest.raises(BufferError):
            stream.addresses.append(0)
        del view
        stream.addresses.append(0)  # and succeeds once the view is gone
        stream.addresses.pop()
