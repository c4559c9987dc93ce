"""Result containers produced by the trace-driven simulator.

Every table and figure in the paper's evaluation reads one of these fields:

* Figure 6 -- ``slowdown`` / ``overhead`` of CI, Toleo and InvisiMem.
* Figure 7 -- ``stealth_cache_hit_rate`` and ``mac_cache_hit_rate``.
* Figure 8 -- ``traffic`` (bytes per instruction by category).
* Figure 9 -- ``latency`` (average read-latency breakdown).
* Figure 10 -- ``trip_format_counts``.
* Figures 11/12 -- ``toleo_usage`` and ``toleo_usage_timeline``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.trip import TripFormat
from repro.sim.configs import BASELINE_MODE, mode_label


@dataclass
class TrafficBreakdown:
    """Bytes moved over the memory system, by category (Figure 8)."""

    data_bytes: int = 0
    mac_uv_bytes: int = 0
    stealth_bytes: int = 0
    dummy_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.data_bytes + self.mac_uv_bytes + self.stealth_bytes + self.dummy_bytes

    def to_dict(self) -> Dict[str, int]:
        return {
            "data_bytes": self.data_bytes,
            "mac_uv_bytes": self.mac_uv_bytes,
            "stealth_bytes": self.stealth_bytes,
            "dummy_bytes": self.dummy_bytes,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, int]) -> "TrafficBreakdown":
        return cls(**payload)

    def per_instruction(self, instructions: int) -> Dict[str, float]:
        if instructions <= 0:
            return {"data": 0.0, "mac_uv": 0.0, "stealth": 0.0, "dummy": 0.0}
        return {
            "data": self.data_bytes / instructions,
            "mac_uv": self.mac_uv_bytes / instructions,
            "stealth": self.stealth_bytes / instructions,
            "dummy": self.dummy_bytes / instructions,
        }


@dataclass
class LatencyBreakdown:
    """Average memory read-latency components in nanoseconds (Figure 9)."""

    dram_ns: float = 0.0
    decryption_ns: float = 0.0
    integrity_ns: float = 0.0
    freshness_ns: float = 0.0
    side_channel_ns: float = 0.0

    @property
    def total_ns(self) -> float:
        return (
            self.dram_ns
            + self.decryption_ns
            + self.integrity_ns
            + self.freshness_ns
            + self.side_channel_ns
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "dram": self.dram_ns,
            "decryption": self.decryption_ns,
            "integrity": self.integrity_ns,
            "freshness": self.freshness_ns,
            "side_channel": self.side_channel_ns,
            "total": self.total_ns,
        }

    def to_dict(self) -> Dict[str, float]:
        return {
            "dram_ns": self.dram_ns,
            "decryption_ns": self.decryption_ns,
            "integrity_ns": self.integrity_ns,
            "freshness_ns": self.freshness_ns,
            "side_channel_ns": self.side_channel_ns,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, float]) -> "LatencyBreakdown":
        return cls(**payload)


@dataclass
class SimulationResult:
    """Everything measured by one (workload, protection mode) simulation."""

    workload: str
    mode: str
    instructions: int
    accesses: int
    llc_misses: int
    writebacks: int
    execution_time_ns: float
    traffic: TrafficBreakdown
    latency: LatencyBreakdown
    stealth_cache_hit_rate: float = 0.0
    mac_cache_hit_rate: float = 0.0
    trip_format_counts: Dict[TripFormat, int] = field(default_factory=dict)
    toleo_usage_bytes: Dict[str, int] = field(default_factory=dict)
    toleo_peak_bytes: int = 0
    toleo_usage_timeline: List[Dict[str, int]] = field(default_factory=list)
    baseline_time_ns: Optional[float] = None

    # -- derived metrics --------------------------------------------------------

    @property
    def llc_mpki(self) -> float:
        if self.instructions <= 0:
            return 0.0
        return 1000.0 * self.llc_misses / self.instructions

    @property
    def slowdown(self) -> float:
        """Execution time relative to the NoProtect baseline (1.0 = equal)."""
        if not self.baseline_time_ns:
            return 1.0
        return self.execution_time_ns / self.baseline_time_ns

    @property
    def overhead(self) -> float:
        """Fractional execution-time overhead versus NoProtect (Figure 6)."""
        return self.slowdown - 1.0

    @property
    def bytes_per_instruction(self) -> Dict[str, float]:
        return self.traffic.per_instruction(self.instructions)

    @property
    def average_read_latency_ns(self) -> float:
        return self.latency.total_ns

    def trip_format_fractions(self) -> Dict[str, float]:
        """Fraction of pages in each Trip format (Figure 10)."""
        total = sum(self.trip_format_counts.values())
        if total == 0:
            return {fmt.value: 0.0 for fmt in TripFormat}
        return {
            fmt.value: self.trip_format_counts.get(fmt, 0) / total for fmt in TripFormat
        }

    def toleo_gb_per_tb_protected(self, protected_bytes: Optional[int] = None) -> float:
        """Peak Toleo usage normalised to protected data (Figure 11's metric)."""
        footprint = protected_bytes
        if footprint is None or footprint <= 0:
            return 0.0
        total_toleo = sum(self.toleo_usage_bytes.values()) or self.toleo_peak_bytes
        return (total_toleo / (1 << 30)) / (footprint / (1 << 40))

    def to_dict(self) -> Dict[str, object]:
        """Lossless JSON-serialisable form (persistent result store)."""
        return {
            "workload": self.workload,
            "mode": self.mode,
            "instructions": self.instructions,
            "accesses": self.accesses,
            "llc_misses": self.llc_misses,
            "writebacks": self.writebacks,
            "execution_time_ns": self.execution_time_ns,
            "traffic": self.traffic.to_dict(),
            "latency": self.latency.to_dict(),
            "stealth_cache_hit_rate": self.stealth_cache_hit_rate,
            "mac_cache_hit_rate": self.mac_cache_hit_rate,
            "trip_format_counts": {
                fmt.value: count for fmt, count in self.trip_format_counts.items()
            },
            "toleo_usage_bytes": dict(self.toleo_usage_bytes),
            "toleo_peak_bytes": self.toleo_peak_bytes,
            "toleo_usage_timeline": [dict(s) for s in self.toleo_usage_timeline],
            "baseline_time_ns": self.baseline_time_ns,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SimulationResult":
        data = dict(payload)
        data["traffic"] = TrafficBreakdown.from_dict(data["traffic"])
        data["latency"] = LatencyBreakdown.from_dict(data["latency"])
        data["trip_format_counts"] = {
            TripFormat(fmt): count for fmt, count in data["trip_format_counts"].items()
        }
        return cls(**data)

    def summary(self) -> Dict[str, object]:
        """A flat dictionary convenient for tabular reports."""
        return {
            "workload": self.workload,
            "mode": self.mode,
            "slowdown": round(self.slowdown, 4),
            "overhead_pct": round(self.overhead * 100.0, 2),
            "llc_mpki": round(self.llc_mpki, 2),
            "read_latency_ns": round(self.average_read_latency_ns, 2),
            "stealth_hit_rate": round(self.stealth_cache_hit_rate, 4),
            "mac_hit_rate": round(self.mac_cache_hit_rate, 4),
            "bytes_per_instr": round(
                self.traffic.total_bytes / max(1, self.instructions), 4
            ),
        }


# ---------------------------------------------------------------------------
# Suite-shaped helpers (shared by the experiment harness and the sweep runner)
# ---------------------------------------------------------------------------

#: A full run's results: benchmark name -> mode label -> result.
SuiteResults = Dict[str, Dict[str, SimulationResult]]


def encode_suite(suite: SuiteResults) -> bytes:
    """Serialise a suite for the persistent result store: compact JSON, UTF-8.

    The JSON layout is unchanged from the enum era: mode labels were always
    written as their paper strings, so enum-era payloads decode as-is.
    """
    payload = {
        name: {mode: result.to_dict() for mode, result in per_mode.items()}
        for name, per_mode in suite.items()
    }
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def decode_suite(payload: bytes) -> SuiteResults:
    """Inverse of :func:`encode_suite`."""
    return {
        name: {
            mode: SimulationResult.from_dict(result)
            for mode, result in per_mode.items()
        }
        for name, per_mode in json.loads(payload).items()
    }


def suite_key(
    names: Sequence[str],
    modes: Sequence[str],
    scale: float,
    num_accesses: int,
    seed: int,
    config: Any,
    options: Any,
) -> str:
    """Content hash of a suite run; includes config/options (the old dict
    cache omitted them, so e.g. a down-scaled Redis config could be handed
    the default config's results).  Shared by the harness and the sweep
    runner, so a sweep point is served from (and warms) the same store
    entries as an identical ``repro bench`` run.

    The *registered parameters* of every involved mode (plus the NoProtect
    baseline, which always runs) are folded into the key as well: the
    registry is open, so ``register_mode(..., replace=True)`` must
    invalidate cached results computed under the previous registration.

    Execution strategy (jobs, sharding, distillation, streaming,
    supervision) never enters the key: every strategy is bit-identical to
    the serial engine, so all of them share one entry.
    """
    from repro.sim.configs import mode_parameters
    from repro.sim.store import content_key

    labels = [mode_label(mode) for mode in modes]
    keyed_modes = list(dict.fromkeys([BASELINE_MODE, *labels]))
    return content_key(
        "suite",
        benchmarks=list(names),
        modes=labels,
        mode_params={label: mode_parameters(label) for label in keyed_modes},
        scale=scale,
        num_accesses=num_accesses,
        seed=seed,
        config=config,
        options=options,
    )


__all__ = [
    "SimulationResult",
    "TrafficBreakdown",
    "LatencyBreakdown",
    "SuiteResults",
    "encode_suite",
    "decode_suite",
    "suite_key",
]
