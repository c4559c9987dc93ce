"""Streaming-capture invariants: windows telescope to the captured trace.

``Workload.stream`` is the bounded-memory twin of ``Workload.capture``: it
must yield the *same* access sequence, cut into contiguous windows, while
never materialising more than one window of packed arrays.  These tests pin
the telescoping contract per workload family (hypothesis-driven where the
window geometry is the variable), the shared llc_mpki -> instructions
calibration helper, and the memory bound itself (tracemalloc over a
multi-million-access streamed run).
"""

import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.base import calibrated_instruction_count
from repro.workloads.registry import get_workload

#: One representative per workload family (database, graph, genomics, LLM).
FAMILY_REPRESENTATIVES = ("memcached", "pr", "bsw", "llama2-gen")

TRACE_LEN = 300


def streamed_windows(name, num_accesses, window, scale=0.002, seed=7):
    workload = get_workload(name, scale=scale, seed=seed)
    return list(workload.stream(num_accesses, window))


@pytest.fixture(scope="module")
def captured():
    """Reference captures, one per family representative."""
    return {
        name: get_workload(name, scale=0.002, seed=7).capture(TRACE_LEN)
        for name in FAMILY_REPRESENTATIVES
    }


class TestWindowsTelescopeToCapture:
    @pytest.mark.parametrize("name", FAMILY_REPRESENTATIVES)
    @given(window=st.integers(1, TRACE_LEN + 40))
    @settings(max_examples=25, deadline=None)
    def test_concatenated_windows_equal_the_captured_trace(
        self, name, window, captured
    ):
        windows = streamed_windows(name, TRACE_LEN, window)
        merged_addresses = array("Q")
        merged_writes = bytearray()
        position = 0
        for trace_window in windows:
            assert trace_window.start_index == position
            assert 0 < len(trace_window) <= window
            merged_addresses.extend(trace_window.addresses)
            merged_writes.extend(trace_window.writes)
            position += len(trace_window)
        reference = captured[name]
        assert position == TRACE_LEN
        assert merged_addresses == reference.addresses
        assert merged_writes == reference.writes

    @pytest.mark.parametrize("name", FAMILY_REPRESENTATIVES)
    @given(window=st.integers(1, TRACE_LEN + 40))
    @settings(max_examples=25, deadline=None)
    def test_window_metadata_matches_the_capture(self, name, window, captured):
        reference = captured[name]
        for trace_window in streamed_windows(name, TRACE_LEN, window):
            assert trace_window.name == reference.name
            assert trace_window.scale == reference.scale
            assert trace_window.seed == reference.seed
            assert trace_window.footprint_bytes == reference.footprint_bytes
            assert trace_window.llc_mpki == reference.llc_mpki
            assert (
                trace_window.instructions_per_access
                == reference.instructions_per_access
            )

    @pytest.mark.parametrize("name", FAMILY_REPRESENTATIVES)
    @given(window=st.integers(1, TRACE_LEN + 40))
    @settings(max_examples=15, deadline=None)
    def test_uncalibrated_instruction_counts_telescope(self, name, window, captured):
        windows = streamed_windows(name, TRACE_LEN, window)
        parts = [w.instruction_count(len(w)) for w in windows]
        assert sum(parts) == captured[name].instruction_count(TRACE_LEN)

    def test_streaming_is_deterministic(self):
        first = streamed_windows("memcached", TRACE_LEN, 64)
        second = streamed_windows("memcached", TRACE_LEN, 64)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.addresses == b.addresses
            assert a.writes == b.writes
            assert a.start_index == b.start_index

    @pytest.mark.parametrize("bad_window", (0, -3))
    def test_nonpositive_window_raises(self, bad_window):
        workload = get_workload("bsw", scale=0.002, seed=7)
        with pytest.raises(ValueError, match="window"):
            list(workload.stream(100, bad_window))


class TestSharedCalibrationHelper:
    """Satellite 3: one llc_mpki -> instructions formula for every caller."""

    def test_workload_routes_through_the_helper(self):
        workload = get_workload("memcached", scale=0.002, seed=7)
        assert workload.instruction_count(1000, llc_misses=50) == (
            calibrated_instruction_count(
                1000,
                workload.characteristics.llc_mpki,
                workload.instructions_per_access,
                llc_misses=50,
            )
        )
        assert workload.instruction_count(1000) == calibrated_instruction_count(
            1000, workload.characteristics.llc_mpki, workload.instructions_per_access
        )

    def test_trace_routes_through_the_helper(self):
        trace = get_workload("memcached", scale=0.002, seed=7).capture(200)
        shard = trace.slice(60, 140)
        assert shard.instruction_count(len(shard)) == calibrated_instruction_count(
            len(shard),
            shard.llc_mpki,
            shard.instructions_per_access,
            start_index=60,
        )
        # Calibrated path: a shard handed the whole run's miss count must
        # reproduce the serial formula, start_index notwithstanding.
        assert shard.instruction_count(200, llc_misses=40) == (
            calibrated_instruction_count(
                200, trace.llc_mpki, trace.instructions_per_access, llc_misses=40
            )
        )

    @given(
        misses=st.integers(0, 10_000),
        mpki=st.floats(min_value=0.1, max_value=200.0, allow_nan=False),
        accesses=st.integers(1, 5_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_calibrated_count_is_floored_at_the_access_count(
        self, misses, mpki, accesses
    ):
        count = calibrated_instruction_count(accesses, mpki, 3.0, llc_misses=misses)
        assert count >= accesses
        assert count == max(int(misses * 1000.0 / mpki), accesses)

    @given(
        length=st.integers(1, 400),
        window=st.integers(1, 450),
        ipa=st.floats(min_value=0.25, max_value=16.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_uncalibrated_fallback_telescopes_for_any_partition(
        self, length, window, ipa
    ):
        parts = []
        start = 0
        while start < length:
            stop = min(start + window, length)
            parts.append(
                calibrated_instruction_count(stop - start, 0.0, ipa, start_index=start)
            )
            start = stop
        assert sum(parts) == calibrated_instruction_count(length, 0.0, ipa)


class TestBoundedMemoryStreaming:
    """Satellite 4: the stream never holds the full packed arrays."""

    @pytest.mark.parametrize("name", ["llama2-gen", "pr"])
    def test_five_million_access_stream_stays_window_sized(self, name):
        # A 5M-access capture packs ~45 MB of address/write arrays; streaming
        # in 100k windows must peak near a few windows (~0.9 MB each) plus
        # workload state, whatever the run length.  The 8 MB ceiling sits far
        # below the full-capture footprint, so a regression that accumulates
        # windows, or a phase that draws state proportional to its length up
        # front (pr's Zipf ranks), trips it.
        num_accesses, window = 5_000_000, 100_000
        workload = get_workload(name, scale=0.002, seed=7)
        tracemalloc.start()
        try:
            total = 0
            for trace_window in workload.stream(num_accesses, window):
                assert len(trace_window) <= window
                total += len(trace_window)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total == num_accesses
        assert peak < 8 * 1024 * 1024, f"streamed peak {peak} bytes exceeds ceiling"
