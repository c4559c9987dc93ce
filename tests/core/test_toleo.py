"""Tests for the Toleo smart-memory device model."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import BLOCKS_PER_PAGE, UNEVEN_MAX_STRIDE, ToleoConfig, GIB, MIB
from repro.core.toleo import (
    ToleoCapacityError,
    ToleoDevice,
    ToleoRequest,
    ToleoRequestType,
)
from repro.core.trip import TripFormat
from repro.crypto.rng import DRangeRng


def _tiny_device(strict=True, reset_probability=None, pages=64):
    # A device provisioned for a very small protected footprint so the
    # dynamic region is only a few entries: 17 uneven ones at 64 pages,
    # four uneven or one full one at 16.
    config = ToleoConfig().scaled(pages * 4096)
    if reset_probability is not None:
        config = dataclasses.replace(config, reset_probability=reset_probability)
    return ToleoDevice(config=config, rng=DRangeRng(seed=1), strict_capacity=strict)


class TestRequestValidation:
    def test_negative_page_rejected(self):
        with pytest.raises(ValueError):
            ToleoRequest(ToleoRequestType.READ, page=-1)

    def test_block_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ToleoRequest(ToleoRequestType.READ, page=0, block=BLOCKS_PER_PAGE)


class TestBasicOperation:
    def test_read_returns_stealth_version(self, toleo_device):
        response = toleo_device.read(page=1, block=2)
        assert response.stealth is not None
        assert 0 <= response.stealth < (1 << 27)
        assert not response.uv_update

    def test_update_increments_version(self, toleo_device):
        before = toleo_device.read(1, 2).stealth
        after = toleo_device.update(1, 2).stealth
        assert after == (before + 1) % (1 << 27)

    def test_read_after_update_sees_new_version(self, toleo_device):
        updated = toleo_device.update(1, 2).stealth
        assert toleo_device.read(1, 2).stealth == updated

    def test_handle_dispatches_by_request_type(self, toleo_device):
        read = toleo_device.handle(ToleoRequest(ToleoRequestType.READ, 3, 1))
        update = toleo_device.handle(ToleoRequest(ToleoRequestType.UPDATE, 3, 1))
        reset = toleo_device.handle(ToleoRequest(ToleoRequestType.RESET, 3))
        assert read.stealth is not None
        assert update.stealth == (read.stealth + 1) % (1 << 27)
        assert reset.stealth is None
        assert toleo_device.stats.reads == 1
        assert toleo_device.stats.updates == 1
        assert toleo_device.stats.resets == 1

    def test_per_host_request_accounting(self, toleo_device):
        toleo_device.handle(ToleoRequest(ToleoRequestType.READ, 0, 0), host_id=0)
        toleo_device.handle(ToleoRequest(ToleoRequestType.READ, 0, 0), host_id=1)
        toleo_device.handle(ToleoRequest(ToleoRequestType.READ, 0, 0), host_id=1)
        assert toleo_device.stats.requests_per_host == {0: 1, 1: 2}

    def test_response_latency_and_bytes(self, toleo_device):
        response = toleo_device.read(0, 0)
        assert response.latency_ns == pytest.approx(
            toleo_device.config.access_latency_ns
        )
        assert response.bytes_transferred == ToleoDevice.TRANSFER_BYTES


class TestUvUpdate:
    def test_reset_triggers_uv_update_flag_and_callback(self):
        pages_to_reencrypt = []
        device = ToleoDevice(
            config=ToleoConfig(reset_probability=1.0),
            rng=DRangeRng(seed=5),
            uv_update_callback=pages_to_reencrypt.append,
        )
        response = device.update(7, 0)
        assert response.uv_update
        assert pages_to_reencrypt == [7]
        assert device.stats.uv_updates == 1

    def test_no_uv_update_when_reset_disabled(self):
        device = ToleoDevice(
            config=ToleoConfig(reset_probability=0.0), rng=DRangeRng(seed=5)
        )
        for _ in range(200):
            assert not device.update(7, 0).uv_update


class TestReset:
    def test_reset_downgrades_page(self, toleo_device):
        toleo_device.update(4, 0)
        toleo_device.update(4, 0)
        assert toleo_device.table.format_of(4) is TripFormat.UNEVEN
        toleo_device.reset(4)
        assert toleo_device.table.format_of(4) is TripFormat.FLAT


class TestSpaceAccounting:
    def test_flat_bytes_grow_with_touched_pages(self, toleo_device):
        for page in range(10):
            toleo_device.read(page, 0)
        assert toleo_device.flat_bytes_used() == 10 * 12

    def test_dynamic_bytes_grow_with_upgrades(self, toleo_device):
        toleo_device.update(0, 0)
        assert toleo_device.dynamic_bytes_used() == 0
        toleo_device.update(0, 0)  # uneven
        assert toleo_device.dynamic_bytes_used() == 56

    def test_usage_breakdown_keys(self, toleo_device):
        toleo_device.update(0, 0)
        breakdown = toleo_device.usage_breakdown()
        assert set(breakdown) == {"flat", "uneven", "full"}

    def test_snapshot_usage_appends_to_timeline(self, toleo_device):
        toleo_device.update(0, 0)
        toleo_device.snapshot_usage()
        toleo_device.update(1, 0)
        toleo_device.snapshot_usage()
        assert len(toleo_device.usage_timeline) == 2
        assert toleo_device.usage_timeline[1]["flat"] >= toleo_device.usage_timeline[0]["flat"]

    def test_peak_dynamic_bytes_tracked(self, toleo_device):
        toleo_device.update(0, 0)
        toleo_device.update(0, 0)
        assert toleo_device.stats.peak_dynamic_bytes >= 56

    def test_provisioned_flat_bytes_matches_paper_scale(self):
        device = ToleoDevice(rng=DRangeRng(seed=0))
        # 24.8 TB of 4 KB pages at 12 B per flat entry ~= 74.6 GB.
        provisioned = device.provisioned_flat_bytes()
        assert provisioned == pytest.approx(74.6 * GIB, rel=0.02)


class TestCapacityEnforcement:
    def test_strict_capacity_raises_when_exhausted(self):
        device = _tiny_device(strict=True)
        with pytest.raises(ToleoCapacityError):
            # Force many pages to upgrade to uneven entries.
            for page in range(100):
                device.update(page, 0)
                device.update(page, 0)

    def test_non_strict_capacity_counts_rejections(self):
        device = _tiny_device(strict=False)
        for page in range(100):
            device.update(page, 0)
            device.update(page, 0)
        assert device.stats.rejected_updates > 0

    def test_downgrades_free_space_for_new_upgrades(self):
        device = _tiny_device(strict=True)
        upgraded = []
        try:
            for page in range(100):
                device.update(page, 0)
                device.update(page, 0)
                upgraded.append(page)
        except ToleoCapacityError:
            pass
        assert upgraded, "expected at least one successful upgrade before exhaustion"
        # Free every upgraded page, then a new upgrade must succeed again.
        for page in upgraded:
            device.reset(page)
        device.update(10_000, 0)
        device.update(10_000, 0)
        assert device.table.format_of(10_000) is TripFormat.UNEVEN


def _recount(table):
    """Format counts and dynamic bytes summed page by page (the O(pages) way)."""
    counts = {fmt: 0 for fmt in TripFormat}
    dynamic = 0
    for number in table.pages():
        page = table._page(number)
        counts[page.format] += 1
        dynamic += page.size_bytes - page.flat.size_bytes
    return counts, dynamic


#: Requests over a small page range; an update step repeats on one block, so
#: pages climb the whole flat -> uneven -> full ladder within a few steps.
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(("read", "update", "reset")),
        st.integers(0, 15),
        st.integers(0, BLOCKS_PER_PAGE - 1),
        st.sampled_from((1, 2, 130)),
    ),
    max_size=40,
)


class TestRunningTotals:
    """The table's O(1) aggregates equal a page-by-page recount after every
    request, through stealth resets and strict-capacity rollbacks."""

    @staticmethod
    def _device(tiny, reset_probability):
        if tiny:
            return _tiny_device(strict=True, reset_probability=reset_probability, pages=16)
        config = ToleoConfig(reset_probability=reset_probability)
        return ToleoDevice(config=config, rng=DRangeRng(seed=11))

    @staticmethod
    def _check(device, peak):
        table = device.table
        counts, dynamic = _recount(table)
        assert table.format_counts() == counts
        assert table.dynamic_bytes() == dynamic
        assert sum(counts.values()) == len(table)
        breakdown = device.usage_breakdown()
        assert breakdown["uneven"] + breakdown["full"] == device.dynamic_bytes_used()
        assert device.stats.peak_dynamic_bytes == peak

    @pytest.mark.parametrize("reset_probability", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("tiny", [False, True], ids=["default", "tiny-strict"])
    @given(steps=_STEPS)
    @settings(max_examples=25, deadline=None)
    def test_aggregates_match_recount(self, tiny, reset_probability, steps):
        device = self._device(tiny, reset_probability)
        peak = 0
        for op, page, block, repeat in steps:
            for _ in range(repeat if op == "update" else 1):
                try:
                    if op == "read":
                        device.read(page, block)
                    elif op == "update":
                        device.update(page, block)
                    else:
                        device.reset(page)
                except ToleoCapacityError:
                    pass  # the device rolled the page back; keep going
                peak = max(peak, device.dynamic_bytes_used())
                self._check(device, peak)

    def test_rollbacks_keep_totals(self):
        device = _tiny_device(strict=True)
        rollbacks = 0
        peak = 0
        for page in range(40):
            for _ in range(2):
                try:
                    device.update(page, 0)
                except ToleoCapacityError:
                    rollbacks += 1
                peak = max(peak, device.dynamic_bytes_used())
                self._check(device, peak)
        assert rollbacks > 0
        assert device.dynamic_bytes_used() <= device.config.dynamic_region_bytes

    def test_format_of_untracked_page_does_not_track_it(self, toleo_device):
        toleo_device.read(1, 0)
        assert toleo_device.table.format_of(99) is TripFormat.FLAT
        assert len(toleo_device.table) == 1
        assert 99 not in toleo_device.table


class _NoScanDict(dict):
    """A page dict that fails any whole-table iteration."""

    def _scan(self, *args):
        raise AssertionError("the Trip page table was scanned")

    values = items = keys = __iter__ = _scan


class TestNoScan:
    """Requests and usage reads touch only the pages they name.

    Deterministic stand-in for a timing test: the table's page dict is
    swapped for one whose iteration methods raise.
    """

    def test_requests_and_usage_reads_never_iterate_the_pages(self):
        device = ToleoDevice(rng=DRangeRng(seed=3))
        for page in range(64):
            device.update(page, 0)
        device.table._pages = _NoScanDict(device.table._pages)
        device.update(1, 0)  # flat -> uneven
        for _ in range(UNEVEN_MAX_STRIDE + 2):
            device.update(2, 5)  # -> full
        device.update(500, 3)  # a new page
        device.read(501, 0)  # another new page
        device.reset(1)
        device.snapshot_usage()
        table = device.table
        assert table.format_of(2) is TripFormat.FULL
        assert table.format_of(1) is TripFormat.FLAT
        assert device.usage_breakdown()["full"] == device.dynamic_bytes_used() > 0
        assert table.format_counts()[TripFormat.FLAT] == len(table) - 1 == 65
        assert table.total_bytes() == table.flat_bytes() + table.dynamic_bytes()
        assert table.average_entry_bytes() == table.total_bytes() / len(table)

    def test_capacity_rollback_never_iterates_the_pages(self):
        device = _tiny_device(strict=True)
        device.table._pages = _NoScanDict()
        with pytest.raises(ToleoCapacityError):
            for page in range(100):
                device.update(page, 0)
                device.update(page, 0)
        assert device.stats.rejected_updates == 1
