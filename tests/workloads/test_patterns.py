"""Tests for the reusable access-pattern generators."""

import random
from array import array
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CACHE_BLOCK_BYTES, PAGE_BYTES
from repro.workloads.base import Workload, WorkloadCharacteristics, WorkloadPhase
from repro.workloads import patterns


class PatternHarness(Workload):
    """A workload exposing two regions so individual patterns can be driven."""

    name = "pattern-harness"
    characteristics = WorkloadCharacteristics(
        rss_bytes=4 * 1024 * 1024, llc_mpki=1.0, category="test"
    )

    def region_plan(self):
        return [("alpha", 0.5), ("beta", 0.5)]

    def build_phases(self):
        return [WorkloadPhase("noop", 1.0, patterns.streaming_reads("alpha"))]


@pytest.fixture
def harness():
    return PatternHarness(scale=1.0, seed=1)


def concatenated(chunks):
    addresses, writes = array("Q"), bytearray()
    for more_addresses, more_writes in chunks:
        addresses += more_addresses
        writes += more_writes
    return addresses, writes


def run_pattern(pattern, harness, count=500, chunk=64):
    """The pattern's accesses as ``(address, is_write)`` pairs."""
    addresses, writes = concatenated(pattern(random.Random(0), harness, count, chunk))
    return list(zip(addresses, map(bool, writes)))


def page(address):
    return address // PAGE_BYTES


class TestSequentialWriteSweep:
    def test_all_writes_and_sequential(self, harness):
        trace = run_pattern(patterns.sequential_write_sweep("alpha"), harness, 100)
        assert all(w for _, w in trace)
        deltas = {trace[i + 1][0] - trace[i][0] for i in range(98)}
        region = harness.region("alpha")
        assert deltas <= {CACHE_BLOCK_BYTES, -(region.size - CACHE_BLOCK_BYTES)}

    def test_read_fraction_mixes_reads(self, harness):
        trace = run_pattern(
            patterns.sequential_write_sweep("alpha", read_fraction=0.5), harness, 400
        )
        reads = sum(1 for _, w in trace if not w)
        assert 100 < reads < 300


class TestStencilSweep:
    def test_read_write_ratio(self, harness):
        trace = run_pattern(patterns.stencil_sweep("alpha", reads_per_write=2), harness, 300)
        writes = sum(1 for _, w in trace if w)
        assert writes == pytest.approx(100, abs=2)

    def test_reads_from_separate_region(self, harness):
        trace = run_pattern(
            patterns.stencil_sweep("alpha", read_region="beta"), harness, 300
        )
        beta = harness.region("beta")
        alpha = harness.region("alpha")
        assert all(beta.contains(a) for a, w in trace if not w)
        assert all(alpha.contains(a) for a, w in trace if w)


class TestRandomReads:
    def test_read_only(self, harness):
        trace = run_pattern(patterns.random_reads("alpha"), harness, 200)
        assert not any(w for _, w in trace)

    def test_hot_bias_concentrates_accesses(self, harness):
        trace = run_pattern(
            patterns.random_reads("alpha", hot_fraction=0.05, hot_weight=0.9), harness, 2000
        )
        region = harness.region("alpha")
        hot_limit = region.base + int(region.size * 0.05) + PAGE_BYTES
        hot = sum(1 for a, _ in trace if a < hot_limit)
        assert hot / len(trace) > 0.7


class TestRandomBlockWrites:
    def test_write_fraction_respected(self, harness):
        trace = run_pattern(
            patterns.random_block_writes("alpha", write_fraction=0.3), harness, 2000
        )
        writes = sum(1 for _, w in trace if w)
        assert writes / len(trace) == pytest.approx(0.3, abs=0.05)


class TestZipfWrites:
    def test_skewed_distribution(self, harness):
        trace = run_pattern(
            patterns.zipf_writes("alpha", write_fraction=1.0, exponent=1.3), harness, 2000
        )
        counts = {}
        for address, _ in trace:
            counts[address] = counts.get(address, 0) + 1
        top = max(counts.values())
        assert top > len(trace) * 0.02  # some block is much hotter than uniform


class TestGaussianKvWrites:
    def test_page_popularity_is_gaussian_centered(self, harness):
        trace = run_pattern(
            patterns.gaussian_kv_writes("alpha", sigma_fraction=0.05), harness, 3000
        )
        region = harness.region("alpha")
        pages = [(a - region.base) // PAGE_BYTES for a, _ in trace]
        mean_page = sum(pages) / len(pages)
        assert mean_page == pytest.approx(region.pages / 2, rel=0.2)

    def test_within_page_coverage_is_uniform(self, harness):
        # The per-page cursor means no block is written twice before the page
        # has been fully covered: the property that keeps KV pages flat.
        trace = run_pattern(
            patterns.gaussian_kv_writes("alpha", sigma_fraction=0.01), harness, 3000
        )
        per_page_counts = {}
        for address, _ in trace:
            block = (address % PAGE_BYTES) // CACHE_BLOCK_BYTES
            per_page_counts.setdefault(page(address), {}).setdefault(block, 0)
            per_page_counts[page(address)][block] += 1
        for blocks in per_page_counts.values():
            assert max(blocks.values()) - min(blocks.values()) <= 1


class TestPointerChase:
    def test_read_only_and_in_region(self, harness):
        trace = run_pattern(patterns.pointer_chase("alpha"), harness, 500)
        region = harness.region("alpha")
        assert all(not w for _, w in trace)
        assert all(region.contains(a) for a, _ in trace)


class TestStreamingReads:
    def test_monotone_addresses(self, harness):
        trace = run_pattern(patterns.streaming_reads("alpha"), harness, 50)
        assert all(
            trace[i + 1][0] > trace[i][0] for i in range(len(trace) - 2)
        )


class TestPageSequentialWrites:
    def test_page_covered_before_moving_on(self, harness):
        trace = run_pattern(
            patterns.page_sequential_writes("alpha", rewrites=1), harness, 128
        )
        first_page = page(trace[0][0])
        assert all(page(a) == first_page for a, _ in trace[:64])
        assert page(trace[64][0]) != first_page


class TestTransactionalWrites:
    def test_reads_precede_writes_within_span(self, harness):
        trace = run_pattern(
            patterns.transactional_writes("alpha", txn_span_blocks=4, write_fraction=1.0),
            harness,
            64,
        )
        # The first four accesses of each transaction are reads.
        assert not any(w for _, w in trace[:4])
        assert any(w for _, w in trace[4:8])


class TestMatrixMultiply:
    def test_reads_from_weights_writes_to_output(self, harness):
        trace = run_pattern(
            patterns.matrix_multiply("alpha", "beta", tile_blocks=8), harness, 300
        )
        alpha, beta = harness.region("alpha"), harness.region("beta")
        assert all(alpha.contains(a) for a, w in trace if not w)
        assert all(beta.contains(a) for a, w in trace if w)
        writes = sum(1 for _, w in trace if w)
        assert writes == pytest.approx(len(trace) / 9, abs=3)


FACTORIES = {
    "sequential_write_sweep": patterns.sequential_write_sweep("alpha", read_fraction=0.3),
    "stencil_sweep": patterns.stencil_sweep("alpha", read_region="beta"),
    "random_reads": patterns.random_reads("alpha", hot_fraction=0.1, hot_weight=0.5),
    "random_block_writes": patterns.random_block_writes("alpha"),
    "zipf_writes": patterns.zipf_writes("alpha"),
    "gaussian_kv_writes": patterns.gaussian_kv_writes("alpha", write_fraction=0.5),
    "pointer_chase": patterns.pointer_chase("alpha", chain_length=5),
    "streaming_reads": patterns.streaming_reads("alpha"),
    "page_sequential_writes": patterns.page_sequential_writes("alpha"),
    "transactional_writes": patterns.transactional_writes("alpha"),
    "matrix_multiply": patterns.matrix_multiply("alpha", "beta", tile_blocks=7),
}

#: Draws a pattern makes after an access rather than before it, in accesses:
#: ``pointer_chase`` picks the next hop once the current one is emitted.
#: ``zipf_writes`` is absent: its rank draws depend on ``count`` as a whole.
DRAWS_AFTER_ACCESS = {
    name: int(name == "pointer_chase") for name in FACTORIES if name != "zipf_writes"
}


class TestAllPatternsEmitExactCount:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_exact_count(self, harness, name):
        assert len(run_pattern(FACTORIES[name], harness, 137)) == 137

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    @given(count=st.integers(0, 600), chunk=st.integers(1, 700), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_chunk_size_changes_neither_the_trace_nor_the_rng(self, name, count, chunk, seed):
        """The concatenated chunks equal the chunks of one, and the shared
        RNG ends in the same state: what lets ``SyntheticWorkload`` pull
        any pattern one access at a time."""
        harness = PatternHarness(scale=1.0, seed=1)
        chunked_rng, single_rng = random.Random(seed), random.Random(seed)
        chunks = list(FACTORIES[name](chunked_rng, harness, count, chunk))
        assert all(0 < len(writes) == len(addresses) <= chunk for addresses, writes in chunks)
        assert all(len(writes) == chunk for _, writes in chunks[:-1])
        singles = FACTORIES[name](single_rng, harness, count, 1)
        assert concatenated(chunks) == concatenated(singles)
        assert sum(len(writes) for _, writes in chunks) == count
        assert chunked_rng.getstate() == single_rng.getstate()

    @pytest.mark.parametrize("name", sorted(DRAWS_AFTER_ACCESS))
    @given(count=st.integers(0, 400), chunk=st.integers(1, 500), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_a_run_draws_exactly_what_its_accesses_need(self, name, count, chunk, seed):
        """Run to exhaustion, a pattern leaves the shared RNG where a longer
        run of it stands once it has yielded the same accesses (plus the one
        whose hop it drew after its last access): no draw runs ahead of the
        access it serves, and none a longer run makes is skipped."""
        harness = PatternHarness(scale=1.0, seed=1)
        short_rng, long_rng = random.Random(seed), random.Random(seed)
        short = concatenated(FACTORIES[name](short_rng, harness, count, chunk))
        pulled = count + DRAWS_AFTER_ACCESS[name]
        longer = concatenated(islice(FACTORIES[name](long_rng, harness, count + 1, 1), pulled))
        assert longer[0][:count] == short[0] and longer[1][:count] == short[1]
        assert long_rng.getstate() == short_rng.getstate()
