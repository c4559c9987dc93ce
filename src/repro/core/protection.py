"""The host-side memory-protection engine.

This is the component that sits between the last-level cache and the memory
system (Table 3: "Mem. Protection Engine").  It provides up to three
guarantees for every cache block that leaves the trusted processor:

* **Confidentiality** -- blocks are encrypted with an AES-XTS-style tweakable
  cipher whose tweak is the 64-bit full version concatenated with the block
  address.
* **Integrity** -- a keyed MAC over (version, address, ciphertext) is stored
  in the MAC/UV metadata region of conventional memory and re-checked on
  every read.
* **Freshness** -- the stealth half of the version is stored in the trusted
  Toleo device; a replayed block carries a stale version and therefore fails
  the MAC check, triggering the kill switch.

The engine supports four protection levels matching the paper's evaluated
configurations: ``NONE`` (NoProtect), ``C`` (encryption only), ``CI``
(Scalable-SGX-style encryption + integrity, no freshness) and ``CIF``
(Toleo: all three).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.config import SystemConfig
from repro.core.toleo import ToleoDevice
from repro.core.version_cache import StealthVersionCache
from repro.core.versions import FullVersion
from repro.cache.mac_cache import MacCache
from repro.crypto.cipher import XtsCipher
from repro.crypto.mac import MacEngine
from repro.memory.address import PhysicalAddress, iter_page_blocks
from repro.memory.layout import MetadataLayout


class KillSwitchError(Exception):
    """Integrity or freshness check failed: the enclave is destroyed.

    Section 2.1: on a failed check the processor logs an error, destroys the
    enclave and its sensitive data, and shuts down.  In this model the
    exception carries the failing address and the reason.
    """

    def __init__(self, address: int, reason: str) -> None:
        super().__init__(f"kill switch at address {address:#x}: {reason}")
        self.address = address
        self.reason = reason


class ProtectionLevel(enum.Enum):
    """Which guarantees the engine enforces."""

    NONE = "none"      # NoProtect baseline
    C = "c"            # confidentiality only (TME-style)
    CI = "ci"          # confidentiality + integrity (Scalable SGX + MAC)
    CIF = "cif"        # confidentiality + integrity + freshness (Toleo)

    @property
    def encrypts(self) -> bool:
        return self is not ProtectionLevel.NONE

    @property
    def has_integrity(self) -> bool:
        return self in (ProtectionLevel.CI, ProtectionLevel.CIF)

    @property
    def has_freshness(self) -> bool:
        return self is ProtectionLevel.CIF


@dataclass
class ProtectionStats:
    """Work counters used by the performance model and the experiments."""

    reads: int = 0
    writes: int = 0
    aes_operations: int = 0
    mac_checks: int = 0
    mac_fetches: int = 0
    toleo_reads: int = 0
    toleo_updates: int = 0
    page_reencryptions: int = 0
    blocks_reencrypted: int = 0
    kill_switch_trips: int = 0
    stealth_cache_hits: int = 0
    stealth_cache_misses: int = 0


class MemoryProtectionEngine:
    """Ties the cipher, MAC, metadata layout, Toleo device and caches together.

    Parameters
    ----------
    level:
        Protection level (default ``CIF``, the full Toleo configuration).
    config:
        System configuration (cache/TLB geometry, Toleo link parameters).
    toleo:
        The Toleo device to use for stealth versions.  Required for ``CIF``;
        ignored otherwise.  A fresh device is created if omitted.
    key:
        Secret key shared by the cipher and MAC engines (per-boot in SGX).
    """

    def __init__(
        self,
        level: ProtectionLevel = ProtectionLevel.CIF,
        config: Optional[SystemConfig] = None,
        toleo: Optional[ToleoDevice] = None,
        key: bytes = b"toleo-reproduction-key",
    ) -> None:
        self.level = level
        self.config = config if config is not None else SystemConfig()
        self.cipher = XtsCipher(key)
        self.mac_engine = MacEngine(key)
        self.memory = MetadataLayout(
            page_bytes=self.config.toleo.page_bytes,
            block_bytes=self.config.toleo.cache_block_bytes,
        )
        self.mac_cache = MacCache(config=self.config)
        self.stealth_cache = StealthVersionCache(config=self.config)
        if level.has_freshness:
            self.toleo = toleo if toleo is not None else ToleoDevice(
                config=self.config.toleo
            )
            self.toleo._uv_update_callback = self._on_uv_update
        else:
            self.toleo = None
        self.stats = ProtectionStats()
        # Host-side model of the version each block was last written with.
        # Hardware recovers these versions during page re-encryption by
        # reading blocks *before* the reset takes effect; the functional model
        # keeps them explicitly.  They are never consulted on the normal read
        # path -- freshness there comes from Toleo.
        self._written_versions: Dict[int, int] = {}
        self._pending_reencrypt: list[int] = []

    # ------------------------------------------------------------------
    # Public write / read / free API
    # ------------------------------------------------------------------

    def write_block(self, address: int, plaintext: bytes) -> None:
        """Protect and store one cache block (dirty LLC eviction)."""
        self.stats.writes += 1
        addr = PhysicalAddress(address)
        if not self.level.encrypts:
            self.memory.write_data(address, plaintext)
            return

        version = self._next_version_for_write(addr)
        ciphertext = self.cipher.encrypt(plaintext, addr.block_aligned, version)
        self.stats.aes_operations += 1
        self.memory.write_data(address, ciphertext.data)
        self._written_versions[addr.block_aligned] = version

        if self.level.has_integrity:
            tag = self.mac_engine.compute(version, addr.block_aligned, ciphertext.data)
            self.memory.write_mac(address, tag)
            self.mac_cache.access(address, is_write=True)
            self.stats.mac_fetches += 1

        # A stealth reset observed during this write requires re-encrypting
        # the rest of the page with the new upper version.
        self._drain_pending_reencryptions(exclude=addr.block_aligned)

    def read_block(self, address: int) -> bytes:
        """Fetch, verify and decrypt one cache block (LLC read miss).

        Raises :class:`KillSwitchError` if the integrity or freshness check
        fails (tampered or replayed data).
        """
        self.stats.reads += 1
        addr = PhysicalAddress(address)
        ciphertext = self.memory.read_data(address)
        if ciphertext is None:
            raise KeyError(f"address {address:#x} has never been written")
        if not self.level.encrypts:
            return ciphertext

        version = self._version_for_read(addr)

        if self.level.has_integrity:
            self.mac_cache.access(address, is_write=False)
            self.stats.mac_fetches += 1
            tag = self.memory.read_mac(address)
            self.stats.mac_checks += 1
            if tag is None or not self.mac_engine.verify(
                tag, version, addr.block_aligned, ciphertext
            ):
                self.stats.kill_switch_trips += 1
                raise KillSwitchError(address, "MAC verification failed")

        self.stats.aes_operations += 1
        return self.cipher.decrypt(ciphertext, addr.block_aligned, version)

    def free_page(self, page: int) -> None:
        """Host-OS page free / remap: bump the UV and downgrade the Toleo entry.

        The page contents become unreadable (their MACs no longer verify),
        which is the scrambling behaviour described in Section 4.3.
        """
        if self.level.has_freshness and self.toleo is not None:
            self.memory.increment_upper_version(page)
            self.toleo.reset(page)
            self.stealth_cache.invalidate(page)

    # ------------------------------------------------------------------
    # Version management
    # ------------------------------------------------------------------

    def _next_version_for_write(self, addr: PhysicalAddress) -> int:
        if not self.level.has_freshness:
            # Scalable SGX / TME: AES-XTS with an address-only tweak (no nonce).
            return 0
        assert self.toleo is not None
        fmt = self.toleo.table.format_of(addr.page)
        cache_access = self.stealth_cache.access(addr.page, fmt, is_write=True)
        if cache_access.hit:
            self.stats.stealth_cache_hits += 1
        else:
            self.stats.stealth_cache_misses += 1
        response = self.toleo.update(addr.page, addr.block_in_page)
        self.stats.toleo_updates += 1
        if response.uv_update:
            self.memory.increment_upper_version(addr.page)
            self.stealth_cache.invalidate(addr.page)
        uv = self.memory.upper_version(addr.page)
        assert response.stealth is not None
        return FullVersion(upper=uv, stealth=response.stealth).value

    def _version_for_read(self, addr: PhysicalAddress) -> int:
        if not self.level.has_freshness:
            return 0
        assert self.toleo is not None
        fmt = self.toleo.table.format_of(addr.page)
        cache_access = self.stealth_cache.access(addr.page, fmt, is_write=False)
        if cache_access.hit:
            self.stats.stealth_cache_hits += 1
        else:
            self.stats.stealth_cache_misses += 1
        response = self.toleo.read(addr.page, addr.block_in_page)
        self.stats.toleo_reads += 1
        uv = self.memory.upper_version(addr.page)
        assert response.stealth is not None
        return FullVersion(upper=uv, stealth=response.stealth).value

    # ------------------------------------------------------------------
    # Stealth-reset handling (UV_UPDATE)
    # ------------------------------------------------------------------

    def _on_uv_update(self, page: int) -> None:
        """Callback from the Toleo device when a stealth reset fires."""
        self._pending_reencrypt.append(page)

    def _drain_pending_reencryptions(self, exclude: Optional[int] = None) -> None:
        while self._pending_reencrypt:
            page = self._pending_reencrypt.pop()
            self._reencrypt_page(page, exclude_block=exclude)

    def _reencrypt_page(self, page: int, exclude_block: Optional[int] = None) -> None:
        """Re-encrypt every written block of a page with its new full version.

        The upper version has already been incremented by the caller of the
        UPDATE that triggered the reset; here we rewrite ciphertexts and MACs
        so that subsequent reads (which reconstruct versions from Toleo's new
        stealth values plus the new UV) verify correctly.
        """
        assert self.toleo is not None
        self.stats.page_reencryptions += 1
        uv = self.memory.upper_version(page)
        for block_addr in iter_page_blocks(page, self.config.toleo.page_bytes,
                                            self.config.toleo.cache_block_bytes):
            if block_addr == exclude_block:
                continue
            old_ciphertext = self.memory.read_data(block_addr)
            if old_ciphertext is None:
                continue
            old_version = self._written_versions.get(block_addr)
            if old_version is None:
                continue
            plaintext = self.cipher.decrypt(old_ciphertext, block_addr, old_version)
            addr = PhysicalAddress(block_addr)
            stealth = self.toleo.table.read(page, addr.block_in_page)
            new_version = FullVersion(upper=uv, stealth=stealth).value
            new_ciphertext = self.cipher.encrypt(plaintext, block_addr, new_version)
            self.memory.write_data(block_addr, new_ciphertext.data)
            if self.level.has_integrity:
                tag = self.mac_engine.compute(new_version, block_addr, new_ciphertext.data)
                self.memory.write_mac(block_addr, tag)
            self._written_versions[block_addr] = new_version
            self.stats.aes_operations += 2
            self.stats.blocks_reencrypted += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def stealth_cache_hit_rate(self) -> float:
        total = self.stats.stealth_cache_hits + self.stats.stealth_cache_misses
        if total == 0:
            return 0.0
        return self.stats.stealth_cache_hits / total

    @property
    def mac_cache_hit_rate(self) -> float:
        return self.mac_cache.hit_rate


__all__ = [
    "MemoryProtectionEngine",
    "ProtectionLevel",
    "ProtectionStats",
    "KillSwitchError",
]
