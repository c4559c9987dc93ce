"""Table 1: memory-protection guarantee comparison.

Regenerates the qualitative matrix comparing Client SGX, Scalable SGX and
Toleo, and backs the "Partial" confidentiality entry with an executable
demonstration: Scalable SGX's deterministic cipher produces repeating
ciphertexts for same-value writes, while the Toleo protection engine does
not.
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.sgx import ScalableSgxModel, guarantee_matrix
from repro.core.protection import MemoryProtectionEngine, ProtectionLevel
from repro.experiments.report import format_table
from repro.report.artifacts import ArtifactSpec, ReproContext, register_artifact


def compute() -> List[Dict[str, str]]:
    """The three rows of Table 1."""
    return [g.as_row() for g in guarantee_matrix().values()]


def demonstrate_partial_confidentiality() -> Dict[str, bool]:
    """Show that only Scalable SGX leaks same-value writes.

    Returns a mapping scheme -> "same-value writes produce identical
    ciphertexts", which is True for Scalable SGX and False for Toleo.
    """
    plaintext = b"secret-balance=0042" + bytes(45)
    address = 0x1234_0000

    scalable = ScalableSgxModel()
    scalable_leaks = scalable.same_value_writes_distinguishable(plaintext, address)

    engine = MemoryProtectionEngine(level=ProtectionLevel.CIF)
    engine.write_block(address, plaintext)
    first = engine.memory.read_data(address)
    engine.write_block(address, plaintext)
    second = engine.memory.read_data(address)
    toleo_leaks = first == second

    return {"Scalable SGX": scalable_leaks, "Toleo": toleo_leaks}


def render_payload(payload: Dict[str, object]) -> str:
    table = format_table(payload["rows"], title="Table 1: Memory Protection Comparison")
    lines = [table, "Same-value writes distinguishable on the bus:"]
    for scheme, leaks in payload["distinguishable"].items():
        lines.append(f"  {scheme}: {'yes' if leaks else 'no'}")
    return "\n".join(lines) + "\n"


def artifact_payload(ctx: ReproContext) -> Dict[str, object]:
    return {
        "payload": {
            "rows": compute(),
            "distinguishable": demonstrate_partial_confidentiality(),
        },
        "store_keys": [],
        "modes": [],
    }


ARTIFACT = register_artifact(
    ArtifactSpec(
        name="table1",
        kind="table",
        title="Table 1: Memory Protection Comparison",
        description="Guarantee matrix plus the executable partial-confidentiality demo",
        data=artifact_payload,
        render=render_payload,
        order=100,
    )
)


__all__ = [
    "compute",
    "demonstrate_partial_confidentiality",
    "render_payload",
    "artifact_payload",
    "ARTIFACT",
]
