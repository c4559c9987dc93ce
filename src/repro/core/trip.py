"""Trip (tri-level page) stealth-version compression.

Section 4.3 of the paper stores the stealth versions of the 64 cache blocks
of each 4 KB page in one of three formats, chosen dynamically by the page's
version locality:

``flat`` (12 bytes)
    One shared 27-bit stealth base plus a 64-bit dirty bit-vector.  A block's
    version is ``base + bit``.  When every bit is set the base increments and
    the vector clears.  Used for read-only, write-once and uniformly written
    pages (92 % of pages in the paper's workloads).

``uneven`` (flat + 56 bytes)
    A 7-bit private offset per block: version is ``base + offset``.  The flat
    entry's bit-vector field is repurposed as a pointer to the uneven entry
    plus MAX/MIN offset trackers.  When an offset overflows, offsets are
    normalised by folding MIN into the base.

``full`` (flat + 216 bytes)
    A raw 27-bit stealth version per block, used when the in-page version
    stride exceeds 128.

A probabilistic stealth reset (checked when the page's *leading* version is
incremented) rewrites the page with a fresh random base, increments the
shared upper version, and drops the page back to the flat format.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.core.config import (
    BLOCKS_PER_PAGE,
    FLAT_ENTRY_BYTES,
    FULL_ENTRY_BYTES,
    UNEVEN_ENTRY_BYTES,
    UNEVEN_MAX_STRIDE,
)
from repro.core.versions import StealthVersionPolicy


class TripFormat(enum.Enum):
    """The three Trip representation levels."""

    FLAT = "flat"
    UNEVEN = "uneven"
    FULL = "full"


@dataclass(frozen=True)
class UpdateOutcome:
    """Result of updating one cache block's stealth version.

    Attributes
    ----------
    new_stealth:
        The block's stealth version after the update.
    reset:
        True if the probabilistic stealth reset fired.  The host must
        increment the page's upper version and re-encrypt the page.
    upgraded_to:
        New format if the update forced a flat->uneven or uneven->full
        upgrade, else ``None``.
    normalized:
        True if an uneven entry's offsets were renormalised (MIN folded into
        the base) as part of this update.
    """

    new_stealth: int
    reset: bool = False
    upgraded_to: Optional[TripFormat] = None
    normalized: bool = False


@dataclass
class FlatEntry:
    """The 12-byte always-present per-page entry.

    ``base`` is the shared 27-bit stealth version; ``bits`` is the 64-bit
    written-block vector (only meaningful while the page is in flat format).
    """

    base: int = 0
    bits: int = 0

    size_bytes: int = FLAT_ENTRY_BYTES

    def bit(self, block: int) -> int:
        return (self.bits >> block) & 1

    def set_bit(self, block: int) -> None:
        self.bits |= 1 << block

    def all_set(self, blocks_per_page: int = BLOCKS_PER_PAGE) -> bool:
        return self.bits == (1 << blocks_per_page) - 1


@dataclass
class UnevenEntry:
    """The 56-byte entry of 64 7-bit private offsets."""

    offsets: List[int] = field(default_factory=lambda: [0] * BLOCKS_PER_PAGE)

    size_bytes: int = UNEVEN_ENTRY_BYTES

    @property
    def max_offset(self) -> int:
        return max(self.offsets)

    @property
    def min_offset(self) -> int:
        return min(self.offsets)

    def normalize(self) -> int:
        """Fold the minimum offset into the base; return the folded amount."""
        folded = self.min_offset
        if folded:
            self.offsets = [o - folded for o in self.offsets]
        return folded


@dataclass
class FullEntry:
    """The 216-byte entry of 64 raw 27-bit stealth versions."""

    versions: List[int] = field(default_factory=lambda: [0] * BLOCKS_PER_PAGE)

    size_bytes: int = FULL_ENTRY_BYTES


@dataclass
class TripStats:
    """Aggregate statistics for a :class:`TripPageTable`."""

    updates: int = 0
    reads: int = 0
    resets: int = 0
    upgrades_to_uneven: int = 0
    upgrades_to_full: int = 0
    downgrades: int = 0
    normalizations: int = 0


class TripPage:
    """Stealth-version state of a single 4 KB page.

    The page always owns a flat entry; depending on its current format it may
    additionally own an uneven or full entry.  All version reads and updates
    go through this class, which handles the upgrade ladder, the offset
    normalisation and the probabilistic reset.
    """

    def __init__(
        self,
        policy: StealthVersionPolicy,
        blocks_per_page: int = BLOCKS_PER_PAGE,
    ) -> None:
        self._policy = policy
        self.blocks_per_page = blocks_per_page
        self.flat = FlatEntry(base=policy.initial_value())
        self.uneven: Optional[UnevenEntry] = None
        self.full: Optional[FullEntry] = None
        self.format = TripFormat.FLAT
        # Index of the block currently holding the leading (highest) version
        # in flat mode: the first block written after the last base increment.
        self._flat_leader: Optional[int] = None

    # -- queries ---------------------------------------------------------

    def stealth_version(self, block: int) -> int:
        """Return the current stealth version of one cache block."""
        self._check_block(block)
        if self.format is TripFormat.FLAT:
            return (self.flat.base + self.flat.bit(block)) % self._policy.space
        if self.format is TripFormat.UNEVEN:
            assert self.uneven is not None
            return (self.flat.base + self.uneven.offsets[block]) % self._policy.space
        assert self.full is not None
        return self.full.versions[block]

    def all_versions(self) -> List[int]:
        """Stealth versions for every block in the page."""
        return [self.stealth_version(b) for b in range(self.blocks_per_page)]

    @property
    def stride(self) -> int:
        """Difference between the max and min stealth version in the page."""
        versions = self.all_versions()
        return max(versions) - min(versions)

    @property
    def size_bytes(self) -> int:
        """Toleo storage consumed by this page's entries."""
        total = self.flat.size_bytes
        if self.format is TripFormat.UNEVEN and self.uneven is not None:
            total += self.uneven.size_bytes
        elif self.format is TripFormat.FULL and self.full is not None:
            total += self.full.size_bytes
        return total

    # -- updates ----------------------------------------------------------

    def update(self, block: int) -> UpdateOutcome:
        """Increment one block's stealth version (a dirty-block writeback)."""
        self._check_block(block)
        if self.format is TripFormat.FLAT:
            return self._update_flat(block)
        if self.format is TripFormat.UNEVEN:
            return self._update_uneven(block)
        return self._update_full(block)

    def downgrade(self) -> None:
        """Reset the page to a fresh flat entry (page free / remap / reset).

        The stealth base is re-randomised and the dirty vector cleared.  The
        caller (host) is responsible for incrementing the page's upper
        version; Toleo itself does not store UVs.
        """
        self.flat = FlatEntry(base=self._policy.reset())
        self.uneven = None
        self.full = None
        self.format = TripFormat.FLAT
        self._flat_leader = None

    # -- internals ---------------------------------------------------------

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.blocks_per_page:
            raise IndexError(f"block {block} out of range [0, {self.blocks_per_page})")

    def _maybe_reset(self) -> bool:
        """Run the probabilistic reset check for the leading version."""
        if self._policy._rng.bernoulli(self._policy.reset_probability):
            self.downgrade()
            return True
        return False

    def _update_flat(self, block: int) -> UpdateOutcome:
        flat = self.flat
        if flat.bit(block) == 0:
            is_leader = flat.bits == 0
            flat.set_bit(block)
            if is_leader:
                self._flat_leader = block
                if self._maybe_reset():
                    return UpdateOutcome(
                        new_stealth=self.stealth_version(block), reset=True
                    )
            if flat.all_set(self.blocks_per_page):
                flat.base = (flat.base + 1) % self._policy.space
                flat.bits = 0
                self._flat_leader = None
            return UpdateOutcome(new_stealth=self.stealth_version(block))

        # Block already written this round: its version must move two ahead of
        # the base, which flat cannot represent.  Upgrade to uneven.
        self._upgrade_to_uneven()
        outcome = self._update_uneven(block)
        return UpdateOutcome(
            new_stealth=outcome.new_stealth,
            reset=outcome.reset,
            upgraded_to=TripFormat.UNEVEN,
            normalized=outcome.normalized,
        )

    def _upgrade_to_uneven(self) -> None:
        offsets = [self.flat.bit(b) for b in range(self.blocks_per_page)]
        self.uneven = UnevenEntry(offsets=offsets)
        self.flat.bits = 0
        self.format = TripFormat.UNEVEN
        self._flat_leader = None

    def _update_uneven(self, block: int) -> UpdateOutcome:
        assert self.uneven is not None
        uneven = self.uneven
        was_leading = uneven.offsets[block] == uneven.max_offset
        uneven.offsets[block] += 1
        normalized = False

        if was_leading and self._maybe_reset():
            return UpdateOutcome(new_stealth=self.stealth_version(block), reset=True)

        if uneven.offsets[block] > UNEVEN_MAX_STRIDE:
            folded = uneven.normalize()
            normalized = folded > 0
            if normalized:
                self.flat.base = (self.flat.base + folded) % self._policy.space
            if uneven.max_offset > UNEVEN_MAX_STRIDE:
                # Normalisation could not bring the stride under 128: the page
                # no longer has enough locality for 7-bit offsets.
                self._upgrade_to_full()
                return UpdateOutcome(
                    new_stealth=self.stealth_version(block),
                    upgraded_to=TripFormat.FULL,
                    normalized=normalized,
                )
        return UpdateOutcome(
            new_stealth=self.stealth_version(block), normalized=normalized
        )

    def _upgrade_to_full(self) -> None:
        assert self.uneven is not None
        base = self.flat.base
        versions = [
            (base + off) % self._policy.space for off in self.uneven.offsets
        ]
        self.full = FullEntry(versions=versions)
        self.uneven = None
        self.format = TripFormat.FULL
        # The flat entry's base field tracks the leading version for reset
        # checks while in full format.
        self.flat.base = max(versions)

    def _update_full(self, block: int) -> UpdateOutcome:
        assert self.full is not None
        full = self.full
        full.versions[block] = (full.versions[block] + 1) % self._policy.space
        if full.versions[block] >= self.flat.base:
            self.flat.base = full.versions[block]
            if self._maybe_reset():
                return UpdateOutcome(
                    new_stealth=self.stealth_version(block), reset=True
                )
        return UpdateOutcome(new_stealth=self.stealth_version(block))


class TripPageTable:
    """Per-page Trip state for every page Toleo has seen.

    Pages are created lazily on first access (in hardware the flat-entry
    array is statically mapped, so "creation" only means the simulator starts
    tracking the page).  The table exposes the aggregate statistics used by
    the space-overhead experiments (Figures 10-12, Table 4).

    Those aggregates are kept incrementally: a running page count per format
    and a running dynamic-byte total, moved by a page's format and size change
    at the only three places a page changes (its creation, :meth:`update` and
    :meth:`reset_page`).  Pages therefore mutate only through the table, and
    every aggregate is an O(1) read however many pages are tracked.
    """

    def __init__(
        self,
        policy: Optional[StealthVersionPolicy] = None,
        blocks_per_page: int = BLOCKS_PER_PAGE,
    ) -> None:
        self.policy = policy if policy is not None else StealthVersionPolicy()
        self.blocks_per_page = blocks_per_page
        self._pages: Dict[int, TripPage] = {}
        self._format_counts: Dict[TripFormat, int] = {fmt: 0 for fmt in TripFormat}
        self._dynamic_bytes = 0
        self.stats = TripStats()

    # -- page access -------------------------------------------------------

    def _page(self, page_number: int) -> TripPage:
        """Return (creating if needed) the Trip state for a page."""
        state = self._pages.get(page_number)
        if state is None:
            state = TripPage(self.policy, self.blocks_per_page)
            self._pages[page_number] = state
            self._format_counts[state.format] += 1
        return state

    def _moved(self, page: TripPage, before: TripFormat, before_bytes: int) -> None:
        """Move the running totals by one page's format and size change."""
        if page.format is not before:
            self._format_counts[before] -= 1
            self._format_counts[page.format] += 1
        self._dynamic_bytes += page.size_bytes - before_bytes

    def __contains__(self, page_number: int) -> bool:
        return page_number in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    def pages(self) -> Iterator[int]:
        return iter(self._pages)

    # -- version operations --------------------------------------------------

    def read(self, page_number: int, block: int) -> int:
        """READ request: return a block's stealth version."""
        self.stats.reads += 1
        return self._page(page_number).stealth_version(block)

    def update(self, page_number: int, block: int) -> UpdateOutcome:
        """UPDATE request: increment a block's stealth version."""
        self.stats.updates += 1
        page = self._page(page_number)
        before, before_bytes = page.format, page.size_bytes
        outcome = page.update(block)
        self._moved(page, before, before_bytes)
        if outcome.reset:
            self.stats.resets += 1
        if outcome.upgraded_to is TripFormat.UNEVEN:
            self.stats.upgrades_to_uneven += 1
        elif outcome.upgraded_to is TripFormat.FULL:
            self.stats.upgrades_to_full += 1
        if outcome.normalized:
            self.stats.normalizations += 1
        return outcome

    def reset_page(self, page_number: int) -> None:
        """RESET request: downgrade a page to flat (page free / remap)."""
        page = self._pages.get(page_number)
        if page is not None:
            before, before_bytes = page.format, page.size_bytes
            page.downgrade()
            self._moved(page, before, before_bytes)
            self.stats.downgrades += 1

    # -- space accounting ------------------------------------------------------

    def format_of(self, page_number: int) -> TripFormat:
        """A page's current format; an untracked page is flat (and stays untracked)."""
        page = self._pages.get(page_number)
        return TripFormat.FLAT if page is None else page.format

    def format_counts(self) -> Dict[TripFormat, int]:
        """Number of tracked pages in each Trip format (Figure 10)."""
        return dict(self._format_counts)

    def dynamic_bytes(self) -> int:
        """Bytes of dynamically allocated uneven/full entries (Figure 12)."""
        return self._dynamic_bytes

    def flat_bytes(self) -> int:
        """Bytes of statically mapped flat entries for the tracked pages."""
        return len(self._pages) * FLAT_ENTRY_BYTES

    def total_bytes(self) -> int:
        return self.flat_bytes() + self.dynamic_bytes()

    def average_entry_bytes(self) -> float:
        """Average Toleo bytes per tracked page (Table 4's "Stealth Avg.")."""
        if not self._pages:
            return float(FLAT_ENTRY_BYTES)
        return self.total_bytes() / len(self._pages)


__all__ = [
    "TripFormat",
    "UpdateOutcome",
    "FlatEntry",
    "UnevenEntry",
    "FullEntry",
    "TripPage",
    "TripPageTable",
    "TripStats",
]
