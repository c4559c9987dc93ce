"""End-to-end integration tests spanning multiple subsystems."""

import pytest

from repro.core.config import PAGE_BYTES
from repro.core.protection import (
    KillSwitchError,
    MemoryProtectionEngine,
    ProtectionLevel,
)
from repro.core.toleo import ToleoDevice
from repro.crypto.rng import DRangeRng
from repro.memory.cxl_ide import CxlIdeChannel
from repro.security.adversary import ReplayAttacker
from repro.sim.engine import compare_modes
from repro.workloads.registry import get_workload


def block(content: bytes) -> bytes:
    return content + bytes(64 - len(content))


class TestWorkloadThroughProtectionEngine:
    """Replay a (small) real workload trace through the functional engine."""

    def test_every_written_block_reads_back_correctly(self):
        engine = MemoryProtectionEngine(level=ProtectionLevel.CIF)
        workload = get_workload("hyrise", scale=0.0003, seed=4)
        shadow = {}
        for i, (address, is_write) in enumerate(workload.access_stream(1500)):
            addr = address - (address % 64)
            if is_write:
                data = block(i.to_bytes(4, "little"))
                engine.write_block(addr, data)
                shadow[addr] = data
            elif addr in shadow:
                assert engine.read_block(addr) == shadow[addr]
        # Final sweep: everything still verifies and decrypts.
        for addr, data in shadow.items():
            assert engine.read_block(addr) == data

    def test_replay_attack_during_workload_is_detected(self):
        engine = MemoryProtectionEngine(level=ProtectionLevel.CIF)
        attacker = ReplayAttacker(engine)
        target = 0x40000
        engine.write_block(target, block(b"initial"))
        attacker.snapshot(target)
        # Unrelated workload traffic plus an update of the target block.
        workload = get_workload("dbg", scale=0.0003, seed=5)
        for address, is_write in workload.access_stream(500):
            if is_write:
                engine.write_block(address - address % 64, block(b"w"))
        engine.write_block(target, block(b"updated"))
        result = attacker.replay(target, expected_plaintext=block(b"initial"))
        assert result.detected and not result.succeeded


class TestSharedToleoAcrossEngines:
    """One Toleo device shared by multiple host nodes (rack sharing)."""

    def test_two_hosts_share_one_device(self):
        device = ToleoDevice(rng=DRangeRng(seed=21))
        host_a = MemoryProtectionEngine(level=ProtectionLevel.CIF, toleo=device, key=b"key-a")
        host_b = MemoryProtectionEngine(level=ProtectionLevel.CIF, toleo=device, key=b"key-b")
        # Hosts use disjoint physical ranges of the shared pool.
        host_a.write_block(0x100000, block(b"from-a"))
        host_b.write_block(0x900000, block(b"from-b"))
        assert host_a.read_block(0x100000) == block(b"from-a")
        assert host_b.read_block(0x900000) == block(b"from-b")
        assert device.stats.updates == 2
        assert device.stats.reads == 2

    def test_page_free_isolates_old_contents(self):
        device = ToleoDevice(rng=DRangeRng(seed=22))
        engine = MemoryProtectionEngine(level=ProtectionLevel.CIF, toleo=device)
        addr = 0x200000
        engine.write_block(addr, block(b"tenant-1-secret"))
        engine.free_page(addr // PAGE_BYTES)
        with pytest.raises(KillSwitchError):
            engine.read_block(addr)


class TestIdeChannelWithDevice:
    def test_versions_survive_the_secured_link(self):
        device = ToleoDevice(rng=DRangeRng(seed=23))
        channel = CxlIdeChannel(b"tdisp-session-key")
        response = device.update(3, 7)
        payload = str(response.stealth).encode()
        flit = channel.device_to_host.send(payload)
        received = channel.device_to_host.receive(flit)
        assert int(received) == response.stealth


class TestSimulationConsistency:
    def test_functional_and_performance_models_agree_on_hit_rate_trend(self):
        """The trace-driven simulator and the functional engine should agree
        that the DP kernel has better stealth locality than the KV store."""
        sim = {
            name: compare_modes(
                lambda n=name: get_workload(n, scale=0.002, seed=3), num_accesses=6000
            )["Toleo"].stealth_cache_hit_rate
            for name in ("bsw", "memcached")
        }
        assert sim["bsw"] > sim["memcached"]
