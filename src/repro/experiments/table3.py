"""Table 3: simulation configuration.

Emits the down-scaled per-node configuration used by every simulation in the
reproduction, mirroring the paper's Table 3 so a reader can diff the two.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import KIB, MIB, GIB, TIB, SystemConfig
from repro.experiments.report import format_table
from repro.report.artifacts import ArtifactSpec, ReproContext, register_artifact


def compute(config: SystemConfig | None = None) -> List[Dict[str, object]]:
    cfg = config if config is not None else SystemConfig()
    toleo = cfg.toleo
    return [
        {"component": "Processor", "setting": f"{cfg.frequency_ghz} GHz, {cfg.cores} cores"},
        {
            "component": "Cores",
            "setting": f"{cfg.dispatch_width}-way dispatch, {cfg.rob_entries}-entry RoB",
        },
        {
            "component": "L1-I/D cache",
            "setting": f"{cfg.l1_config.size_bytes // KIB} KB/core, {cfg.l1_config.ways}-way, "
            f"{cfg.l1_config.latency_cycles} cycles",
        },
        {
            "component": "L2 cache",
            "setting": f"{cfg.l2_config.size_bytes // MIB} MB/core, {cfg.l2_config.ways}-way, "
            f"{cfg.l2_config.latency_cycles} cycles",
        },
        {
            "component": "L3 cache",
            "setting": f"{cfg.l3_config.size_bytes // MIB} MB per {cfg.l3_shared_by_cores} cores, "
            f"{cfg.l3_config.ways}-way, {cfg.l3_config.latency_cycles} cycles",
        },
        {
            "component": "Local DRAM",
            "setting": f"{cfg.local_dram_bytes // GIB} GB, {cfg.local_dram_channels} channels, "
            f"{cfg.local_dram_bandwidth_gbps:.1f} GB/s, {cfg.local_dram_latency_ns:.0f} ns",
        },
        {
            "component": "CXL memory pool",
            "setting": f"{cfg.cxl_pool_bytes // TIB} TB available, "
            f"{cfg.cxl_link_bandwidth_gbps} GB/s, {cfg.cxl_link_latency_ns:.0f} ns link",
        },
        {
            "component": "AES engine",
            "setting": f"{cfg.aes_latency_cycles} cycle latency, 1/cycle throughput",
        },
        {
            "component": "MAC cache",
            "setting": f"{cfg.mac_cache_bytes // MIB} MB total, {cfg.mac_cache_ways}-way LRU",
        },
        {
            "component": "L2 TLB stealth ext.",
            "setting": f"{cfg.tlb_stealth_entries} entries, fully associative",
        },
        {
            "component": "Stealth overflow buffer",
            "setting": f"{cfg.stealth_overflow_buffer_bytes // KIB} KB "
            f"({cfg.stealth_overflow_entries} entries), {cfg.stealth_overflow_ways}-way LRU",
        },
        {
            "component": "Toleo",
            "setting": f"{toleo.capacity_bytes // GIB} GB, CXL 2.0 IDE "
            f"{toleo.link_bandwidth_gbps} GB/s, {toleo.link_latency_ns:.0f} ns link, "
            f"{toleo.dram_access_latency_ns:.0f} ns DRAM",
        },
        {
            "component": "Stealth version",
            "setting": f"{toleo.stealth_bits}-bit stealth + {toleo.uv_bits}-bit UV, "
            f"reset p = {toleo.reset_probability:.2e}",
        },
    ]


def render_payload(payload: Dict[str, object]) -> str:
    return format_table(payload["rows"], title="Table 3: Simulation Configuration")


def artifact_payload(ctx: ReproContext) -> Dict[str, object]:
    return {"payload": {"rows": compute()}, "store_keys": [], "modes": []}


ARTIFACT = register_artifact(
    ArtifactSpec(
        name="table3",
        kind="table",
        title="Table 3: Simulation Configuration",
        description="The down-scaled per-node configuration every simulation uses",
        data=artifact_payload,
        render=render_payload,
        order=120,
    )
)


__all__ = ["compute", "render_payload", "artifact_payload", "ARTIFACT"]
