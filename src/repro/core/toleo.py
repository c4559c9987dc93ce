"""Functional model of the Toleo trusted smart-memory device.

Toleo (Section 4.1, Figure 2) is a PIM-style device whose trusted logic layer
contains a CXL IDE port, a DRAM controller, a simple in-order core running the
version-management firmware, and a D-RaNGe random number generator.  The host
processor sends it three request types (Section 5):

``READ``
    Return the stealth version of a cache block (host LLC read miss).
``UPDATE``
    Return and increment the stealth version of a cache block (dirty LLC
    eviction / writeback).
``RESET``
    Downgrade a page's Trip entry to flat (page free or remap by the OS).

When an ``UPDATE`` triggers a probabilistic stealth reset, the device replies
with a ``uv_update`` flag: the host must increment the page's upper version
and re-encrypt the page with the new full version.

The device also enforces its capacity: the flat-entry array is statically
sized by the protected-memory footprint, and uneven/full entries are
dynamically allocated from the remaining space.  When the dynamic region is
exhausted, upgrade-requiring updates are rejected until the host OS frees
space through downgrade (RESET) requests -- exactly the behaviour described
at the end of Section 4.3.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.config import (
    BLOCKS_PER_PAGE,
    FULL_ENTRY_BYTES,
    ToleoConfig,
    UNEVEN_ENTRY_BYTES,
)
from repro.core.trip import TripFormat, TripPageTable, UpdateOutcome
from repro.core.versions import StealthVersionPolicy
from repro.crypto.rng import DRangeRng


class ToleoRequestType(enum.Enum):
    """Request opcodes accepted by the Toleo controller."""

    READ = "read"
    UPDATE = "update"
    RESET = "reset"


class ToleoError(Exception):
    """Base class for Toleo device errors."""


class ToleoCapacityError(ToleoError):
    """Raised when the device cannot allocate a dynamic entry.

    The host OS is expected to respond by downgrading inactive pages."""


@dataclass(frozen=True)
class ToleoRequest:
    """One CXL.mem transaction sent from the host to Toleo."""

    kind: ToleoRequestType
    page: int
    block: int = 0

    def __post_init__(self) -> None:
        if self.page < 0:
            raise ValueError("page must be non-negative")
        if not 0 <= self.block < BLOCKS_PER_PAGE:
            raise ValueError(f"block must be in [0, {BLOCKS_PER_PAGE})")


@dataclass(frozen=True)
class ToleoResponse:
    """Toleo's reply to a request.

    ``uv_update`` asks the host to bump the page's upper version and
    re-encrypt the page (stealth reset fired).  ``latency_ns`` is the modelled
    round-trip latency including the CXL IDE link and the device's DRAM.
    """

    stealth: Optional[int]
    uv_update: bool = False
    latency_ns: float = 0.0
    bytes_transferred: int = 0


@dataclass
class ToleoDeviceStats:
    """Operation and traffic counters for one Toleo device."""

    reads: int = 0
    updates: int = 0
    resets: int = 0
    uv_updates: int = 0
    rejected_updates: int = 0
    bytes_to_host: int = 0
    bytes_from_host: int = 0
    peak_dynamic_bytes: int = 0
    requests_per_host: Dict[int, int] = field(default_factory=dict)


class ToleoDevice:
    """A shared, trusted smart-memory device storing stealth versions.

    Parameters
    ----------
    config:
        Device geometry and link characteristics (defaults to the paper's
        168 GB device protecting 24.8 TB of data).
    rng:
        Randomness source (D-RaNGe).  Pass a seeded instance for
        reproducible experiments.
    uv_update_callback:
        Optional callable invoked as ``callback(page)`` whenever a stealth
        reset requires the host to re-encrypt a page.  The memory-protection
        engine registers itself here.
    strict_capacity:
        If True (default), dynamic-entry allocation failures raise
        :class:`ToleoCapacityError`; if False the update proceeds but is
        counted in ``stats.rejected_updates`` (useful for space studies).

    Space accounting is O(1) per request: the device's byte and format
    aggregates (``dynamic_bytes_used``, ``usage_breakdown``,
    ``snapshot_usage`` and the peak in ``stats``) read the running totals
    that :class:`TripPageTable` keeps incrementally, so no request re-scans
    the tracked pages.
    """

    #: Bytes of a stealth-version transfer on the CXL IDE link.  Versions are
    #: exchanged in 16-byte CXL.mem transactions (Table 3: HMC2 16B).
    TRANSFER_BYTES = 16

    def __init__(
        self,
        config: Optional[ToleoConfig] = None,
        rng: Optional[DRangeRng] = None,
        uv_update_callback: Optional[Callable[[int], None]] = None,
        strict_capacity: bool = True,
    ) -> None:
        self.config = config if config is not None else ToleoConfig()
        self._rng = rng if rng is not None else DRangeRng(seed=0)
        policy = StealthVersionPolicy(
            rng=self._rng,
            stealth_bits=self.config.stealth_bits,
            reset_probability=self.config.reset_probability,
        )
        self.table = TripPageTable(policy=policy)
        self.stats = ToleoDeviceStats()
        self._uv_update_callback = uv_update_callback
        self._strict_capacity = strict_capacity
        self._usage_timeline: List[Dict[str, int]] = []

    # -- public request interface -------------------------------------------

    def handle(self, request: ToleoRequest, host_id: int = 0) -> ToleoResponse:
        """Process one request from a host node."""
        self.stats.requests_per_host[host_id] = (
            self.stats.requests_per_host.get(host_id, 0) + 1
        )
        if request.kind is ToleoRequestType.READ:
            return self.read(request.page, request.block)
        if request.kind is ToleoRequestType.UPDATE:
            return self.update(request.page, request.block)
        return self.reset(request.page)

    def read(self, page: int, block: int) -> ToleoResponse:
        """READ: return a block's current stealth version."""
        self.stats.reads += 1
        stealth = self.table.read(page, block)
        return self._respond(stealth)

    def update(self, page: int, block: int) -> ToleoResponse:
        """UPDATE: increment and return a block's stealth version."""
        self.stats.updates += 1
        outcome = self.table.update(page, block)
        self._enforce_capacity(page, outcome)
        self._record_dynamic_usage()
        if outcome.reset:
            self.stats.uv_updates += 1
            if self._uv_update_callback is not None:
                self._uv_update_callback(page)
        return self._respond(outcome.new_stealth, uv_update=outcome.reset)

    def reset(self, page: int) -> ToleoResponse:
        """RESET: downgrade a page to flat (page free / remap)."""
        self.stats.resets += 1
        self.table.reset_page(page)
        self._record_dynamic_usage()
        return self._respond(None)

    # -- capacity management --------------------------------------------------

    def _enforce_capacity(self, page: int, outcome: UpdateOutcome) -> None:
        if outcome.upgraded_to is None:
            return
        if self.dynamic_bytes_used() <= self.config.dynamic_region_bytes:
            return
        self.stats.rejected_updates += 1
        if self._strict_capacity:
            # Roll the page back so the device state stays within capacity.
            self.table.reset_page(page)
            raise ToleoCapacityError(
                "Toleo dynamic region exhausted; host OS must downgrade "
                "inactive pages before further upgrades"
            )

    def _record_dynamic_usage(self) -> None:
        dynamic = self.dynamic_bytes_used()
        if dynamic > self.stats.peak_dynamic_bytes:
            self.stats.peak_dynamic_bytes = dynamic

    # -- space accounting -------------------------------------------------------

    def flat_bytes_used(self) -> int:
        """Statically mapped flat-entry bytes for pages touched so far."""
        return self.table.flat_bytes()

    def dynamic_bytes_used(self) -> int:
        """Dynamically allocated uneven/full entry bytes."""
        return self.table.dynamic_bytes()

    def total_bytes_used(self) -> int:
        return self.flat_bytes_used() + self.dynamic_bytes_used()

    def provisioned_flat_bytes(self, protected_bytes: Optional[int] = None) -> int:
        """Flat-array bytes required for a given protected footprint (static)."""
        protected = (
            protected_bytes
            if protected_bytes is not None
            else self.config.protected_data_bytes
        )
        pages = protected // self.config.page_bytes
        return pages * self.config.flat_entry_bytes

    def usage_breakdown(self) -> Dict[str, int]:
        """Bytes used by flat / uneven / full entries (Figures 11 and 12)."""
        counts = self.table.format_counts()
        return {
            "flat": self.table.flat_bytes(),
            "uneven": counts[TripFormat.UNEVEN] * UNEVEN_ENTRY_BYTES,
            "full": counts[TripFormat.FULL] * FULL_ENTRY_BYTES,
        }

    def snapshot_usage(self) -> Dict[str, int]:
        """Record and return the current usage breakdown (timeline samples)."""
        snap = self.usage_breakdown()
        self._usage_timeline.append(snap)
        return snap

    @property
    def usage_timeline(self) -> List[Dict[str, int]]:
        return list(self._usage_timeline)

    # -- link model -----------------------------------------------------------

    def _respond(self, stealth: Optional[int], uv_update: bool = False) -> ToleoResponse:
        latency = self.config.access_latency_ns
        nbytes = self.TRANSFER_BYTES
        self.stats.bytes_to_host += nbytes
        self.stats.bytes_from_host += nbytes
        return ToleoResponse(
            stealth=stealth,
            uv_update=uv_update,
            latency_ns=latency,
            bytes_transferred=nbytes,
        )


__all__ = [
    "ToleoDevice",
    "ToleoDeviceStats",
    "ToleoRequest",
    "ToleoRequestType",
    "ToleoResponse",
    "ToleoError",
    "ToleoCapacityError",
]
