"""Differential and property tests for miss-event distillation.

The design center of :mod:`repro.sim.distill` is *exactness*: the distilled
event-replay path must be bit-identical to the full per-access engine for
every registered mode, and the fast pre-pass must agree with
:class:`repro.cache.hierarchy.CacheHierarchy` in every counter.  Results are
compared through ``SimulationResult.to_dict()`` -- floats included, no
tolerance.  The strategy property in ``test_strategy_property.py`` runs the
event replay through the whole pipeline at every shard width.
"""

import dataclasses
from array import array
from itertools import cycle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sim  # noqa: F401  -- registers the variant modes
from repro.cache.hierarchy import CacheHierarchy
from repro.core.config import KIB, CacheConfig, SystemConfig
from repro.experiments.harness import run_benchmarks
from repro.sim import distill
from repro.sim.configs import registered_modes
from repro.sim.distill import (
    WB_NONE,
    HierarchyDistiller,
    MissEventStream,
    events_key,
    events_slice_key,
    load_slice,
)
from repro.sim.engine import EngineState, HierarchyCounters, SimulationEngine, run_suite
from repro.sim.path import PathComponent, StealthFreshnessComponent
from repro.sim.store import ResultStore, pack_columns, unpack_columns
from repro.workloads.base import Trace
from repro.workloads.registry import get_workload

#: Same down-scaled geometry as the sharding matrix: small caches make
#: evictions (and therefore writeback events) frequent on short traces.
SMALL_CONFIG = dataclasses.replace(
    SystemConfig(),
    l1_config=CacheConfig("L1", 8 * KIB, 4, latency_cycles=4),
    l2_config=CacheConfig("L2", 64 * KIB, 8, latency_cycles=14),
    l3_config=CacheConfig("L3", 256 * KIB, 8, latency_cycles=49),
    mac_cache_bytes=64 * KIB,
)

TRACE_LEN = 260

ALL_MODES = registered_modes()


@pytest.fixture(scope="module")
def trace():
    return get_workload("memcached", scale=0.002, seed=7).capture(TRACE_LEN)


@pytest.fixture(scope="module")
def events(trace):
    return HierarchyDistiller(SMALL_CONFIG).distill(trace)


@pytest.fixture(scope="module")
def serial_results(trace):
    """The full per-access engine's result per mode (the ground truth)."""
    return {
        mode: SimulationEngine.from_mode(mode, config=SMALL_CONFIG, seed=7).run(
            trace, num_accesses=TRACE_LEN
        )
        for mode in ALL_MODES
    }


def event_run(mode, events, config=SMALL_CONFIG, seed=7):
    """One simulation entirely from a full-run event stream (no kernels)."""
    engine = SimulationEngine.from_mode(mode, config=config, seed=seed)
    state = engine.begin(events, events.num_accesses)
    engine.replay_events(state, events)
    return engine.finish(state, events)


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


#: The distiller's two passes: the dict loop, which is the oracle, and
#: the numpy lockstep pass, wherever numpy imports.
PASSES = ("dict", "lockstep") if distill.HAVE_NUMPY else ("dict",)


def make_distiller(config, hierarchy_pass):
    """A distiller on the named pass; it picks its pass when constructed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distill, "HAVE_NUMPY", hierarchy_pass == "lockstep")
        distiller = HierarchyDistiller(config)
    assert distiller.lockstep == (hierarchy_pass == "lockstep")
    return distiller


def reference_events(trace, config):
    """Ground truth: the real CacheHierarchy, access by access."""
    hierarchy = CacheHierarchy(config)
    recorded = []
    for i, (address, is_write) in enumerate(trace.access_stream()):
        result = hierarchy.access(address, is_write)
        if result.llc_miss:
            recorded.append((i, address, bool(is_write), result.writeback_address))
    return hierarchy, recorded


class TestDistilledReplayIsBitIdentical:
    """Event replay == full replay, for every mode."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_unsharded_event_replay_matches_serial(self, mode, events, serial_results):
        distilled = event_run(mode, events)
        assert distilled.to_dict() == serial_results[mode].to_dict()

    def test_default_config_matches_serial(self):
        # One mode at the real (Table 3) geometry, so the scaled matrix
        # config cannot mask a geometry-dependent divergence.
        trace = get_workload("bsw", scale=0.002, seed=3).capture(2000)
        serial = SimulationEngine.from_mode("Toleo", seed=3).run(trace, num_accesses=2000)
        events = HierarchyDistiller(None).distill(trace)
        distilled = event_run("Toleo", events, config=None, seed=3)
        assert distilled.to_dict() == serial.to_dict()


@pytest.mark.parametrize("hierarchy_pass", PASSES)
class TestDistillerMatchesCacheHierarchy:
    """Both passes of the pre-pass agree with the reference model, counter
    for counter, on real benchmark traces."""

    @pytest.mark.parametrize("name", ("bsw", "pr", "memcached"))
    @pytest.mark.parametrize("config", (None, SMALL_CONFIG), ids=("table3", "small"))
    def test_events_and_stats_match(self, name, config, hierarchy_pass):
        trace = get_workload(name, scale=0.002, seed=11).capture(3000)
        resolved = config if config is not None else SystemConfig()
        hierarchy, expected = reference_events(trace, resolved)
        stream = make_distiller(config, hierarchy_pass).distill(trace)
        stream.validate()
        assert list(stream.events()) == expected
        for level, cache in (("l1", hierarchy.l1), ("l2", hierarchy.l2), ("l3", hierarchy.l3)):
            assert vars(stream.level_stats[level]) == vars(cache.stats), level
        assert stream.memory_accesses == hierarchy.memory_accesses
        assert stream.hierarchy_writebacks == hierarchy.writebacks

    def test_distill_requires_fresh_distiller(self, trace, hierarchy_pass):
        distiller = make_distiller(SMALL_CONFIG, hierarchy_pass)
        distiller.advance(trace, 0, 10)
        with pytest.raises(ValueError, match="fresh distiller"):
            distiller.distill(trace)

    def test_advance_rejects_non_contiguous_window(self, trace, hierarchy_pass):
        distiller = make_distiller(SMALL_CONFIG, hierarchy_pass)
        distiller.advance(trace, 0, 10)
        with pytest.raises(ValueError, match="cannot advance from"):
            distiller.advance(trace, 20, 30)


#: Random access streams over a small region: addresses within 64 KiB keep
#: the tiny geometry's sets contended, so evictions and writebacks occur.
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


@pytest.mark.parametrize("hierarchy_pass", PASSES)
class TestStreamProperties:
    """Hypothesis property tests for the MissEventStream invariants, on both
    passes."""

    @settings(max_examples=60, deadline=None)
    @given(accesses=ACCESS_STRATEGY)
    def test_distillation_matches_reference_on_random_streams(self, accesses, hierarchy_pass):
        trace = synthetic_trace(
            (block * 64 for block, _ in accesses),
            (1 if write else 0 for _, write in accesses),
        )
        hierarchy, expected = reference_events(trace, TINY_CONFIG)
        stream = make_distiller(TINY_CONFIG, hierarchy_pass).distill(trace)
        stream.validate()
        assert list(stream.events()) == expected
        assert vars(stream.level_stats["l3"]) == vars(hierarchy.l3.stats)

    @settings(max_examples=60, deadline=None)
    @given(accesses=ACCESS_STRATEGY, data=st.data())
    def test_indices_increase_and_count_equals_l3_misses(self, accesses, data, hierarchy_pass):
        trace = synthetic_trace(
            (block * 64 for block, _ in accesses),
            (1 if write else 0 for _, write in accesses),
        )
        stream = make_distiller(TINY_CONFIG, hierarchy_pass).distill(trace)
        indices = list(stream.indices)
        assert indices == sorted(set(indices))
        assert len(stream) == stream.level_stats["l3"].misses
        assert all(0 <= i < len(trace) for i in indices)

    @settings(max_examples=60, deadline=None)
    @given(accesses=ACCESS_STRATEGY, data=st.data())
    def test_windowed_stats_telescope_like_trace_shards(self, accesses, data, hierarchy_pass):
        """concat(per-window streams) == one-shot distillation, exactly."""
        trace = synthetic_trace(
            (block * 64 for block, _ in accesses),
            (1 if write else 0 for _, write in accesses),
        )
        total = len(trace)
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=1, max_value=max(1, total - 1)),
                    max_size=5,
                    unique=True,
                )
            )
        ) if total > 1 else []
        bounds = list(zip([0] + cuts, cuts + [total]))
        whole = make_distiller(TINY_CONFIG, hierarchy_pass).distill(trace)
        windowed = make_distiller(TINY_CONFIG, hierarchy_pass)
        parts = [windowed.advance(trace, start, stop) for start, stop in bounds]
        merged = MissEventStream.concat(parts)
        merged.validate()
        assert list(merged.indices) == list(whole.indices)
        assert list(merged.addresses) == list(whole.addresses)
        assert bytes(merged.writes) == bytes(whole.writes)
        assert list(merged.writeback_addresses) == list(whole.writeback_addresses)
        for level in ("l1", "l2", "l3"):
            assert vars(merged.level_stats[level]) == vars(whole.level_stats[level])
        assert merged.memory_accesses == whole.memory_accesses
        assert merged.hierarchy_writebacks == whole.hierarchy_writebacks

    def test_concat_rejects_non_abutting_windows(self, trace, hierarchy_pass):
        distiller = make_distiller(SMALL_CONFIG, hierarchy_pass)
        first = distiller.advance(trace, 0, 100)
        distiller.advance(trace, 100, 200)
        tail = distiller.advance(trace, 200, TRACE_LEN)
        with pytest.raises(ValueError, match="abut"):
            MissEventStream.concat([first, tail])


#: Blocks in four contended sets (16 tags each) of both test geometries' L3
#: -- 512 is a multiple of either's set count -- beside a small region that
#: hits: every level evicts, and writes make dirty L3 victims.
CONTENDED_ACCESSES = st.lists(
    st.tuples(
        st.one_of(
            st.integers(min_value=0, max_value=1023),
            st.builds(lambda tag, at: tag * 512 + at, st.integers(0, 15), st.integers(0, 3)),
        ),
        st.booleans(),
    ),
    min_size=1,
    max_size=300,
)

#: A write, then eight more tags in its L3 set: a dirty L3 eviction under
#: either geometry.
DIRTY_L3_EVICTION = [(0, True)] + [(tag * 512, False) for tag in range(1, 9)]


@pytest.mark.skipif(not distill.HAVE_NUMPY, reason="the lockstep pass needs numpy")
@pytest.mark.parametrize("config", (TINY_CONFIG, SMALL_CONFIG), ids=("tiny", "small"))
class TestLockstepMatchesTheDictPass:
    """The lockstep pass against its oracle, window by window: every
    window's stream and the running level counters."""

    @settings(max_examples=80, deadline=None)
    @given(
        accesses=CONTENDED_ACCESSES,
        widths=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=6),
    )
    @example(accesses=DIRTY_L3_EVICTION, widths=[1])
    def test_every_window_matches(self, config, accesses, widths):
        trace = synthetic_trace(
            (block * 64 for block, _ in accesses),
            (1 if write else 0 for _, write in accesses),
        )
        oracle = make_distiller(config, "dict")
        lockstep = make_distiller(config, "lockstep")
        start = 0
        for width in cycle(widths):
            stop = min(start + width, len(trace))
            expected = oracle.advance(trace, start, stop)
            assert lockstep.advance(trace, start, stop).to_payload() == expected.to_payload()
            for level in ("l1", "l2", "l3"):
                assert vars(getattr(lockstep, level).stats()) == vars(
                    getattr(oracle, level).stats()
                ), level
            if stop == len(trace):
                break
            start = stop

    def test_the_example_evicts_a_dirty_l3_line(self, config):
        trace = synthetic_trace(
            (block * 64 for block, _ in DIRTY_L3_EVICTION),
            (1 if write else 0 for _, write in DIRTY_L3_EVICTION),
        )
        stream = make_distiller(config, "lockstep").distill(trace)
        assert stream.hierarchy_writebacks == 1
        assert [wb for wb in stream.writeback_addresses if wb != WB_NONE] == [0]


class TestValidateOnBothPaths:
    """``validate`` checks the index order and the writeback count over the
    column views where numpy imports, and event by event otherwise."""

    @pytest.fixture(params=("columns", "loop") if distill.HAVE_NUMPY else ("loop",))
    def numpy(self, request, monkeypatch):
        monkeypatch.setattr(distill, "HAVE_NUMPY", request.param == "columns")

    def test_validate_catches_miscounted_events(self, events, numpy):
        broken = MissEventStream.from_payload(events.to_payload())
        broken.indices.append(broken.stop_index - 1 + 1_000_000)
        with pytest.raises(ValueError):
            broken.validate()

    @pytest.mark.parametrize("at", (0, 5, -1), ids=("first", "middle", "last"))
    def test_a_non_increasing_index_is_rejected(self, events, numpy, at):
        broken = MissEventStream.from_payload(events.to_payload())
        if at == 0:
            # The first event now sits before the stream's window.
            broken.start_index = broken.indices[0] + 1
            broken.num_accesses -= broken.start_index
        else:
            broken.indices[at] = broken.indices[at - 1]
        with pytest.raises(ValueError, match="not strictly increasing at"):
            broken.validate()

    def test_a_wrong_writeback_count_is_rejected(self, events, numpy):
        broken = MissEventStream.from_payload(events.to_payload())
        broken.hierarchy_writebacks += 1
        with pytest.raises(ValueError, match="writeback events but"):
            broken.validate()


class TestStreamPersistence:
    def test_payload_round_trips(self, events):
        restored = MissEventStream.from_payload(events.to_payload())
        assert restored.to_payload() == events.to_payload()
        assert list(restored.events()) == list(events.events())

    def test_byteorder_mismatch_is_rejected(self, events):
        header, columns = unpack_columns(events.to_payload())
        header["byteorder"] = "big" if header["byteorder"] == "little" else "little"
        with pytest.raises(ValueError, match="byte order"):
            MissEventStream.from_payload(pack_columns(header, columns))

    def test_one_window_slice_persists_and_reloads(self, tmp_path):
        # A one-window run's single slice is its full ``events`` entry.
        store = ResultStore(tmp_path)
        first = load_slice("bsw", 0.002, 1234, 1500, 1500, 0, None, store=store)
        assert list(store.disk_keys()) == [events_key("bsw", 0.002, 1234, 1500, None)]
        # A fresh store over the same directory: served from disk, and the
        # stream replays to the same result as a fresh distillation.
        reloaded = load_slice("bsw", 0.002, 1234, 1500, 1500, 0, None, store=ResultStore(tmp_path))
        assert reloaded.to_payload() == first.to_payload()
        trace = get_workload("bsw", scale=0.002, seed=1234).capture(1500)
        assert first.to_payload() == HierarchyDistiller().distill(trace, 1500).to_payload()

    def test_corrupt_disk_entry_degrades_to_recompute(self, tmp_path):
        import sqlite3

        store = ResultStore(tmp_path)
        first = load_slice("bsw", 0.002, 1234, 1500, 1500, 0, None, store=store)
        key = events_key("bsw", 0.002, 1234, 1500, None)
        with sqlite3.connect(store.db_path) as conn:
            conn.execute(
                "UPDATE entries SET payload = '42', blob = NULL WHERE key = ?", (key,)
            )
        recomputed = load_slice("bsw", 0.002, 1234, 1500, 1500, 0, None, store=ResultStore(tmp_path))
        assert recomputed.to_payload() == first.to_payload()

    def test_damaged_binary_slice_is_recomputed(self, tmp_path, binary_damage):
        run = ("memcached", 0.002, 7, TRACE_LEN, 64)
        store = ResultStore(tmp_path)
        first = load_slice(*run, 1, SMALL_CONFIG, store=store)
        key = events_slice_key(*run, 1, SMALL_CONFIG)
        binary_damage(store, key)
        assert ResultStore(tmp_path).get(key, decoder=MissEventStream.from_payload) is None
        recomputed = load_slice(*run, 1, SMALL_CONFIG, store=ResultStore(tmp_path))
        assert recomputed.to_payload() == first.to_payload()
        served = ResultStore(tmp_path).get(key, decoder=MissEventStream.from_payload)
        assert served.to_payload() == first.to_payload()


class TestEventKeySemantics:
    """One stream per (trace, cache geometry) -- and nothing else."""

    def test_key_ignores_non_geometry_config_fields(self):
        base = SystemConfig()
        slower = dataclasses.replace(
            base, local_dram_latency_ns=99.0, aes_latency_cycles=80, cores=8
        )
        assert events_key("bsw", 0.002, 1, 1000, base) == events_key(
            "bsw", 0.002, 1, 1000, slower
        )
        assert events_key("bsw", 0.002, 1, 1000, None) == events_key(
            "bsw", 0.002, 1, 1000, base
        )

    def test_key_tracks_geometry_and_trace_identity(self):
        base = SystemConfig()
        bigger_l3 = dataclasses.replace(
            base,
            l3_config=dataclasses.replace(base.l3_config, size_bytes=32 * 1024 * 1024),
        )
        key = events_key("bsw", 0.002, 1, 1000, base)
        assert events_key("bsw", 0.002, 1, 1000, bigger_l3) != key
        assert events_key("pr", 0.002, 1, 1000, base) != key
        assert events_key("bsw", 0.004, 1, 1000, base) != key
        assert events_key("bsw", 0.002, 2, 1000, base) != key
        assert events_key("bsw", 0.002, 1, 2000, base) != key


class TestSuiteStoreSharing:
    """Suite runs share persistent event-stream entries."""

    def test_event_streams_shared_across_mode_sets(self, tmp_path):
        # A later run over *different* modes re-uses the first run's event
        # stream: after the cold run, no second events entry appears.  Every
        # jobs value runs the same pipeline, so the in-process jobs=1 run
        # persists its stream just as the pool path does.
        from repro.experiments.harness import run_benchmarks
        from repro.sim.store import default_store, set_default_store

        previous = default_store()
        store = ResultStore(tmp_path)
        set_default_store(store)
        try:
            run_benchmarks(
                ("bsw",), modes=("CI",), num_accesses=1500, store=store, jobs=1,
            )
            events_entries = [k for k in store.disk_keys() if k.startswith("events-")]
            assert len(events_entries) == 1
            run_benchmarks(
                ("bsw",), modes=("Toleo", "CIF-Tree"), num_accesses=1500,
                store=store, jobs=2,
            )
            assert [
                k for k in store.disk_keys() if k.startswith("events-")
            ] == events_entries
        finally:
            set_default_store(previous)


class TestFallbackForUndeclaredSamplers:
    """Components with per-access hooks but no declared period replay only
    through the full per-access replay of the serial oracle; the pipeline
    rejects them at planning."""

    def test_distillable_requires_declared_period(self):
        class Opaque(PathComponent):
            def on_access(self, ctx):  # pragma: no cover - never dispatched
                pass

        assert SimulationEngine.distillable([Opaque()]) is False
        assert SimulationEngine.distillable([PathComponent()]) is True
        stealthy = object.__new__(StealthFreshnessComponent)
        stealthy.access_period = 50
        assert SimulationEngine.distillable([stealthy]) is True

    def test_replay_events_refuses_undistillable_mode(self, events, monkeypatch):
        monkeypatch.setattr(StealthFreshnessComponent, "access_period", None)
        original = StealthFreshnessComponent.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            del self.access_period

        monkeypatch.setattr(StealthFreshnessComponent, "__init__", init)
        with pytest.raises(ValueError, match="access_period"):
            event_run("Toleo", events)

    @pytest.mark.parametrize("shard_size", (None, 7))
    @pytest.mark.parametrize("jobs", (1, 2))
    def test_pipeline_rejects_the_stack_at_planning(
        self, jobs, shard_size, monkeypatch, fresh_default_store
    ):
        run = dict(
            modes=("Toleo",), scale=0.002, num_accesses=TRACE_LEN, seed=7,
            config=SMALL_CONFIG,
        )
        reference = run_suite(("memcached",), **run)["memcached"]["Toleo"]

        original = StealthFreshnessComponent.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            del self.access_period

        monkeypatch.setattr(StealthFreshnessComponent, "__init__", init)
        # The serial oracle still replays the stack, from the trace.
        oracle = run_suite(("memcached",), **run)["memcached"]["Toleo"]
        assert oracle.to_dict() == reference.to_dict()
        with pytest.raises(ValueError, match="StealthFreshnessComponent .*access_period"):
            run_benchmarks(
                ("memcached",), jobs=jobs, shard_size=shard_size, use_cache=False,
                store=fresh_default_store, **run
            )
        # Raised in the parent, before any task ran: nothing was ingested.
        assert list(fresh_default_store.disk_keys()) == []


class TestReplayEventsContract:
    def test_window_must_match_the_run(self, trace, events):
        engine = SimulationEngine.from_mode("CI", config=SMALL_CONFIG, seed=7)
        state = engine.begin(events, TRACE_LEN)
        with pytest.raises(ValueError, match="cannot replay window"):
            engine.replay_events(state, events, stop=TRACE_LEN + 1)

    def test_stream_must_cover_the_requested_window(self, trace):
        # PR 9 dropped the full-run-stream requirement: a windowed slice
        # replays its own window, but a replay reaching past the slice's
        # stop index must still fail loudly.
        engine = SimulationEngine.from_mode("CI", config=SMALL_CONFIG, seed=7)
        distiller = HierarchyDistiller(SMALL_CONFIG)
        partial = distiller.advance(trace, 0, 100)
        state = engine.begin(partial, TRACE_LEN)
        with pytest.raises(ValueError, match="event stream covers"):
            engine.replay_events(state, partial, stop=TRACE_LEN)

    def test_slice_replays_only_its_own_window(self, trace):
        # Defaulting ``stop`` on a slice advances to the slice's stop index,
        # not the run's end; a second slice must then pick up exactly there.
        engine = SimulationEngine.from_mode("CI", config=SMALL_CONFIG, seed=7)
        distiller = HierarchyDistiller(SMALL_CONFIG)
        first = distiller.advance(trace, 0, 100)
        second = distiller.advance(trace, 100, TRACE_LEN)
        state = engine.begin(first.run_meta(TRACE_LEN), TRACE_LEN)
        engine.replay_events(state, first)
        assert state.position == 100
        with pytest.raises(ValueError, match="event stream covers"):
            # The first slice cannot serve the second window.
            engine.replay_events(state, first, stop=TRACE_LEN)
        engine.replay_events(state, second)
        assert state.position == TRACE_LEN

    def test_mixing_full_and_event_replay_is_rejected(self, trace, events):
        engine = SimulationEngine.from_mode("CI", config=SMALL_CONFIG, seed=7)
        state = engine.begin(trace, TRACE_LEN)
        engine.replay(state, trace, stop=100)
        with pytest.raises(ValueError, match="do not mix"):
            engine.replay_events(state, events)

    def test_an_event_state_holds_counters_only(self, trace, events):
        # Begun on events, a state carries the hierarchy's counters and no
        # cache; begun on the trace, the live hierarchy the oracle drives.
        engine = SimulationEngine.from_mode("NoProtect", config=SMALL_CONFIG, seed=7)
        state = engine.begin(events, TRACE_LEN)
        assert isinstance(state.hierarchy, HierarchyCounters)
        assert isinstance(engine.begin(trace, TRACE_LEN).hierarchy, CacheHierarchy)
        assert len(state.serialize()) < 4096
        with pytest.raises(ValueError, match="hierarchy counters only"):
            engine.replay(state, trace)
        engine.replay_events(state, events)
        restored = EngineState.deserialize(state.serialize())
        assert vars(restored.hierarchy.l3.stats) == vars(events.level_stats["l3"])
        assert restored.hierarchy.memory_accesses == events.memory_accesses
        assert restored.hierarchy.writebacks == events.hierarchy_writebacks
        oracle = engine.run(trace, num_accesses=TRACE_LEN)
        assert engine.finish(restored, events).to_dict() == oracle.to_dict()


class TestCliDistillFlags:
    def test_sweep_prints_measured_throughput(self, capsys):
        from repro.cli import main

        assert main(
            ["sweep", "--param", "scale=0.001,0.002", "--benchmarks", "bsw",
             "--modes", "CI", "--accesses", "1200", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "accesses/s" in out

    def test_bench_footer_names_no_replay_strategy(self, capsys):
        # The worker picks its replay loop from the stack, so there is no
        # strategy left for the footer to report.
        from repro.cli import main

        assert main(
            ["bench", "--benchmarks", "bsw", "--modes", "CI",
             "--accesses", "1200", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "accesses/s" in out
        assert "distill=" not in out and "vector=" not in out

    @pytest.mark.parametrize("flag", ("--no-distill", "--no-vector"))
    def test_retired_strategy_flags_are_usage_errors(self, flag, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--benchmarks", "bsw", "--modes", "CI", flag])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
