"""The benchmark's workloads and the checks on their outputs.

Each workload loads one set of simulator layers heavily and bypasses
another (see README.md for the reasoning behind each one).  Sizes come in two
profiles: ``default`` is what the benchmark measures, sized so that at least
three cold repetitions of every workload fit one 28-second run on a 2-CPU
host; ``smoke`` runs every code path in a few seconds for the tests.

This module imports nothing from ``repro`` so the orchestrating process can
load it without paying the simulator's import cost.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: Workload scale shared by every suite run (the harness default).
SCALE = 0.002

#: Worker processes per run.  The reference host has two CPUs; never more.
JOBS = 2

#: Every protection mode the registry ships (``repro.sim.configs``), in
#: registry order.  Spelled out so the parent process needs no simulator
#: import; ``rep.py`` checks it against ``registered_modes()``.
MODES: Tuple[str, ...] = (
    "NoProtect",
    "C",
    "CI",
    "Toleo",
    "InvisiMem",
    "CIF-Tree",
    "Client-SGX",
    "Vault-Tree",
    "Scalable-SGX",
    "Toleo+Tree",
)

#: Artifacts of the ``repro reproduce-all`` registry, in report order.
ARTIFACTS: Tuple[str, ...] = (
    "table1",
    "table2",
    "table3",
    "table4",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "sec62",
    "fresh-scale",
    "ablations",
)


@dataclass(frozen=True)
class Plan:
    """One workload at one size.

    ``tier`` marks the ``reproduce_all`` workload (its benchmarks are the
    tier's own); ``stream``/``shard_size`` select the streamed, sharded
    path.  ``writebacks`` is the workload property the traced run asserts:
    ``False`` means no dirty LLC eviction may occur, ``True`` means some
    must, ``None`` leaves it unchecked.
    """

    name: str
    benchmarks: Tuple[str, ...]
    num_accesses: int
    tier: Optional[str] = None
    stream: Optional[int] = None
    shard_size: Optional[int] = None
    writebacks: Optional[bool] = None

    @property
    def ops(self) -> Tuple[str, ...]:
        """The operations one run attempts: artifacts or (benchmark, mode) cells."""
        if self.tier is not None:
            return ARTIFACTS
        return tuple(f"{name}/{mode}" for name in self.benchmarks for mode in MODES)


QUICK_BENCHMARKS = ("bsw", "pr", "llama2-gen", "memcached")
READ_BENCHMARKS = ("bsw", "fmi", "bfs", "pr", "llama2-gen", "hyrise")
WRITE_BENCHMARKS = ("redis", "memcached")


def _plans(quick: int, reads: int, writes: int, stream: int, smoke: bool) -> Dict[str, Plan]:
    plans = [
        Plan("reproduce-quick", QUICK_BENCHMARKS, quick, tier="quick"),
        Plan("suite-reads", READ_BENCHMARKS, reads, writebacks=False),
        Plan("suite-writes", WRITE_BENCHMARKS, writes, writebacks=None if smoke else True),
        Plan(
            "stream-long",
            ("hyrise",),
            stream,
            stream=stream // 10,
            shard_size=stream // 4,
            writebacks=False,
        ),
    ]
    return {plan.name: plan for plan in plans}


PROFILES: Dict[str, Dict[str, Plan]] = {
    "default": _plans(quick=6_000, reads=50_000, writes=60_000, stream=1_000_000, smoke=False),
    "smoke": _plans(quick=2_000, reads=5_000, writes=5_000, stream=20_000, smoke=True),
}

WORKLOADS: Tuple[str, ...] = tuple(PROFILES["default"])


def digest(payload: Any) -> str:
    """sha256 of the canonical JSON form of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_violations(plan: Plan, cells: Mapping[str, Optional[Mapping[str, Any]]]) -> List[str]:
    """Cells whose result breaks an invariant every correct run satisfies.

    The data hierarchy is mode-independent, so every mode of one benchmark
    sees the same accesses, LLC misses, writebacks and instruction count;
    NoProtect is its own baseline.  These hold for any seed, so they check
    runs whose seed has no pinned digest.
    """
    bad: List[str] = []
    for name in plan.benchmarks:
        row = {mode: cells.get(f"{name}/{mode}") for mode in MODES}
        base = row.get("NoProtect")
        for mode, cell in row.items():
            if cell is None or base is None:
                continue
            same = all(
                cell[key] == base[key]
                for key in ("accesses", "llc_misses", "writebacks", "instructions")
            )
            if (
                not same
                or cell["accesses"] != plan.num_accesses
                or cell["baseline_time_ns"] != base["execution_time_ns"]
            ):
                bad.append(f"{name}/{mode}")
    return bad


def failed_ops(
    ops: Iterable[str],
    digests: Mapping[str, Optional[str]],
    reference: Mapping[str, str],
    violations: Iterable[str] = (),
) -> List[str]:
    """Ops that are missing, break an invariant, or differ from ``reference``.

    Ops absent from ``reference`` are checked for presence and invariants
    only.
    """
    broken = set(violations)
    return [
        op
        for op in ops
        if digests.get(op) is None
        or op in broken
        or (op in reference and reference[op] != digests[op])
    ]
