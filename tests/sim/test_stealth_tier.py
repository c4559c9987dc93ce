"""The stealth tier pinned against the stealth-version hooks it stands in for.

``StealthTierSimulator`` replaces ``StealthFreshnessComponent``'s per-event
hooks with one pass per run: the TLB extension and the overflow buffer as
LRU dicts in front of a real Toleo device.  These tests pin it hit for hit
on both paths, sample for sample, and on every counter the component's
telemetry reads, one-shot and window by window.  No shipped workload leaves
the flat Trip format at test size, so the events are built directly, to
reach the uneven and full formats, fire resets and evict from a tiny TLB
extension and overflow buffer.  The simulator is pure Python, so only the
batch kernel's test needs numpy.
"""

import dataclasses
import random
from array import array
from types import SimpleNamespace

import pytest

from repro.core.config import PAGE_BYTES, SystemConfig
from repro.sim.distill import WB_NONE, MissEventStream
from repro.sim.engine import EngineState, SimulationEngine
from repro.sim.path import StealthFreshnessComponent
from repro.sim.replaycore import BatchReplayEngine, StealthTier, StealthTierSimulator
from repro.sim.results import LatencyBreakdown, TrafficBreakdown

#: A four-page TLB extension and an eight-block, two-way overflow buffer,
#: 8-bit stealth versions and a reset on one leading update in 200.
TINY_STEALTH = dataclasses.replace(
    SystemConfig(),
    tlb_stealth_entries=4,
    stealth_overflow_buffer_bytes=8 * 56,
    stealth_overflow_ways=2,
    toleo=dataclasses.replace(SystemConfig().toleo, stealth_bits=8, reset_probability=0.005),
)


def hot_block_events(num_events=3000, seed=11):
    """Miss events whose writebacks hammer block 0 of six hot pages.

    A second write to one block upgrades a flat page to uneven, and some
    128 more overflow its 7-bit offsets into full, so the hot pages (about
    280 block-0 writebacks each) climb flat -> uneven -> full while resets
    drop them back; 24 pages of reads overflow the tiny TLB extension.
    Events sit two accesses apart, so the timeline sampler fires between
    them.
    """
    rng = random.Random(seed)
    indices, addresses, writebacks = array("Q"), array("Q"), array("Q")
    for pos in range(num_events):
        indices.append(2 * pos + 1)
        addresses.append((rng.randrange(24) << 12) + (rng.randrange(64) << 6))
        if rng.random() < 0.7:
            block = 0 if rng.random() < 0.8 else rng.randrange(64)
            writebacks.append(((24 + rng.randrange(6)) << 12) + (block << 6))
        else:
            writebacks.append(WB_NONE)
    return MissEventStream(
        name="hot-block",
        scale=1.0,
        seed=seed,
        footprint_bytes=30 * PAGE_BYTES,
        llc_mpki=1.0,
        instructions_per_access=3.0,
        num_accesses=2 * num_events + 5,
        indices=indices,
        addresses=addresses,
        writes=bytearray(num_events),
        writeback_addresses=writebacks,
    )


def cut(events, width):
    """``events`` as abutting windows of ``width`` accesses."""
    windows = []
    for start in range(events.start_index, events.stop_index, width):
        stop = min(start + width, events.stop_index)
        keep = [pos for pos, index in enumerate(events.indices) if start <= index < stop]
        windows.append(dataclasses.replace(
            events,
            start_index=start,
            num_accesses=stop - start,
            indices=array("Q", (events.indices[pos] for pos in keep)),
            addresses=array("Q", (events.addresses[pos] for pos in keep)),
            writes=bytearray(len(keep)),
            writeback_addresses=array("Q", (events.writeback_addresses[pos] for pos in keep)),
        ))
    return windows


def versioned(component, events):
    """Hits of the real stealth hooks, per event and path, and the access
    indices the timeline sampler fired at, in the event loop's order."""
    read, writeback, sampled = bytearray(len(events)), bytearray(len(events)), []
    ctx = SimpleNamespace(traffic=TrafficBreakdown(), latency=LatencyBreakdown(), address=0)
    period = component.access_period
    ctx.index = -(-events.start_index // period) * period

    def fire(stop):
        while ctx.index < stop:
            component.on_access(ctx)
            sampled.append(ctx.index)
            ctx.index += period

    for pos, (index, address, _, wb) in enumerate(events.events()):
        fire(index + 1)
        fetched = ctx.traffic.stealth_bytes
        ctx.address = address
        component.on_read_miss(ctx)
        read[pos] = ctx.traffic.stealth_bytes == fetched
        if wb is not None:
            fetched = ctx.traffic.stealth_bytes
            ctx.address = wb
            component.on_writeback(ctx)
            writeback[pos] = ctx.traffic.stealth_bytes == fetched
    fire(events.stop_index)
    return read, writeback, sampled


@pytest.fixture(scope="module")
def hot():
    return hot_block_events()


def stealth_component(events):
    return StealthFreshnessComponent(
        TINY_STEALTH, footprint_bytes=events.footprint_bytes, seed=5, sample_every=97
    )


class TestStealthTier:
    """The stealth tier equals the real stealth hooks, verdict for verdict,
    and its telemetry equals the component's."""

    @pytest.mark.parametrize("width", (None, 97, 1000))
    def test_tier_matches_the_hooks(self, hot, width):
        component = stealth_component(hot)
        simulator = StealthTierSimulator(
            **StealthTierSimulator.geometry_of(component, TINY_STEALTH)
        )
        windows = [hot] if width is None else cut(hot, width)
        tiers = [simulator.advance(window) for window in windows]
        read, writeback, sampled = versioned(component, hot)
        # Each window's tier holds its own events' verdicts and the samples
        # due before its stop, in order.
        lo = 0
        for window, tier in zip(windows, tiers):
            hi = lo + len(window)
            assert bytes(tier.read_hits) == bytes(read[lo:hi])
            assert bytes(tier.wb_hits) == bytes(writeback[lo:hi])
            lo = hi
        assert [index for tier in tiers for index in tier.sample_indices] == sampled
        assert [
            sample for tier, window in zip(tiers, windows)
            for sample in tier.samples(window.start_index, window.stop_index)
        ] == component.timeline
        # At the last stop: the lookup counters, and through the telemetry
        # the format counts, usage and peak bytes and the hit rate.
        last = tiers[-1]
        tlb, overflow = component.stealth_cache.tlb_stats, component.stealth_cache.overflow_stats
        assert [last.at_stop[name] for name in StealthTier.AT_STOP[:4]] == [
            tlb.hits, tlb.misses, overflow.hits, overflow.misses
        ]
        hooks = component.telemetry()
        assert {**last.telemetry(), "toleo_usage_timeline": hooks["toleo_usage_timeline"]} == hooks

    def test_the_stream_reaches_every_format_resets_and_evicts(self, hot):
        # The pin above only proves something if every path runs.
        component = stealth_component(hot)
        versioned(component, hot)
        table, cache = component.toleo.table, component.stealth_cache
        assert table.stats.upgrades_to_uneven > 0
        assert table.stats.upgrades_to_full > 0
        assert table.stats.resets > 0
        counts = table.format_counts()
        assert all(counts[fmt] > 0 for fmt in counts)
        assert cache.tlb.translation_stats.evictions > 0
        assert cache.overflow_stats.evictions > 0
        assert cache.overflow_stats.hits > 0 and cache.overflow_stats.misses > 0

    @pytest.mark.parametrize("hooks_until", (0, 2501), ids=("batched", "hooks-then-batched"))
    def test_the_kernel_restores_the_hooks_result(self, hot, hooks_until, compute_tiers):
        # Through the engine: the batch kernel prices the tier's misses and
        # restores the telemetry, across checkpoints.  A chain may also start
        # on the hooks and finish on the kernel, whose device stays as the
        # hooks left it.
        pytest.importorskip("numpy")
        engine = SimulationEngine.from_mode("Toleo", config=TINY_STEALTH, seed=5)
        scalar = engine.begin(hot, hot.num_accesses)
        engine.replay_events(scalar, hot)
        batched = engine.begin(hot, hot.num_accesses)
        engine.replay_events(batched, hot, stop=hooks_until)
        (stealth,) = [c for c in batched.components if isinstance(c, StealthFreshnessComponent)]
        pages = len(stealth.toleo.table)
        tiers = compute_tiers(batched.components, hot, TINY_STEALTH)
        for stop in (hooks_until + 500, 4001, hot.stop_index):
            BatchReplayEngine(engine, hot, tiers=tiers).replay(batched, stop=stop)
            batched = EngineState.deserialize(batched.serialize())
        assert engine.finish(batched, hot).to_dict() == engine.finish(scalar, hot).to_dict()
        (stealth,) = [c for c in batched.components if isinstance(c, StealthFreshnessComponent)]
        assert len(stealth.toleo.table) == pages
        assert (pages > 0) == (hooks_until > 0)
