"""Declarative artifact registry: one spec per reproducible figure/table.

Before this layer existed, "reproduce the paper" meant knowing which of a
dozen CLI invocations and experiment modules to chain together.  Now every
``repro.experiments.*`` module declares its artifact once -- a name, a paper
section, a **data stage** and a **render stage** -- and registers it here;
``repro reproduce-all`` (:mod:`repro.report.reproduce`) is just a fold over
this registry, and every registered name is a ``repro <name>`` command that
runs the same per-artifact step.

The two stages enforce the comp-gen discipline of separating data generation
from presentation:

* ``data(ctx)`` runs the simulations (through the persistent
  :class:`~repro.sim.store.ResultStore`, so warm re-runs never re-simulate)
  and returns plain JSON-serialisable data plus the store keys it was
  computed under and the protection-mode labels involved;
* ``render(payload)`` turns that data into the human-readable artifact text
  and must be a *pure, deterministic* function of the payload -- it is also
  fed payloads loaded back from ``results/data/*.json``, which is what makes
  the ``--from-store`` precomputed-data fallback byte-identical.

Per-tier budgets (``--quick`` vs ``--full``) are declared on the spec, not
hard-coded in the orchestrator, so an artifact that needs a longer replay
(the space studies) or a smaller one (the ablation sweeps) says so itself.
"""

from __future__ import annotations

import importlib
import pkgutil
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

#: Artifact kinds, in report order.
KINDS = ("table", "figure", "analysis", "ablation")


@dataclass(frozen=True)
class ReproContext:
    """The resolved run description handed to an artifact's data stage."""

    tier: str
    benchmarks: Tuple[str, ...]
    scale: float
    num_accesses: int
    seed: int

    def replace(self, **overrides: Any) -> "ReproContext":
        import dataclasses

        if "benchmarks" in overrides and overrides["benchmarks"] is not None:
            overrides["benchmarks"] = tuple(overrides["benchmarks"])
        return dataclasses.replace(self, **overrides)


class ArtifactError(ValueError):
    """Raised for invalid artifact declarations or data-stage results."""


@dataclass(frozen=True)
class ArtifactSpec:
    """One reproducible artifact, declared by its experiment module.

    ``data`` maps a :class:`ReproContext` to a dict with keys ``payload``
    (JSON-serialisable data for the render stage), ``store_keys`` (the
    persistent-store keys the result lives under; empty for analytic
    artifacts) and ``modes`` (registry labels involved).  ``render`` maps the
    payload alone to the artifact text.  ``budgets`` optionally overrides
    context fields per tier, e.g. ``{"quick": {"num_accesses": 40_000}}``.
    """

    name: str
    kind: str
    title: str
    description: str
    data: Callable[[ReproContext], Dict[str, Any]]
    render: Callable[[Dict[str, Any]], str]
    order: int = 1000
    budgets: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ArtifactError(
                f"artifact {self.name!r}: kind {self.kind!r} not in {KINDS}"
            )
        if not self.name or not self.title:
            raise ArtifactError("artifact needs a non-empty name and title")

    def context_for(self, base: ReproContext) -> ReproContext:
        """Apply this artifact's per-tier budget overrides to a base context."""
        overrides = dict(self.budgets.get(base.tier, {}))
        return base.replace(**overrides) if overrides else base

    def run_data(self, ctx: ReproContext) -> Dict[str, Any]:
        """Run the data stage and validate its envelope shape."""
        result = self.data(ctx)
        if not isinstance(result, dict) or "payload" not in result:
            raise ArtifactError(
                f"artifact {self.name!r}: data stage must return a dict with "
                f"a 'payload' key, got {type(result).__name__}"
            )
        result.setdefault("store_keys", [])
        result.setdefault("modes", [])
        return result


_REGISTRY: Dict[str, ArtifactSpec] = {}


def register_artifact(spec: ArtifactSpec) -> ArtifactSpec:
    """Register (or, on module re-import, re-register) an artifact spec."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing.data.__module__ != spec.data.__module__:
        raise ArtifactError(
            f"artifact name {spec.name!r} already registered by "
            f"{existing.data.__module__}"
        )
    _REGISTRY[spec.name] = spec
    return spec


def registered_artifacts() -> Tuple[ArtifactSpec, ...]:
    """Every registered spec, in report order (stable across processes)."""
    return tuple(sorted(_REGISTRY.values(), key=lambda s: (s.order, s.name)))


def artifact_spec(name: str) -> ArtifactSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none loaded)"
        raise ArtifactError(f"unknown artifact {name!r}; registered: {known}") from None


def load_artifact_registry() -> Tuple[ArtifactSpec, ...]:
    """Import every ``repro.experiments`` module so its spec registers.

    Registration happens at module import time; this walks the experiments
    package so callers (the orchestrator, the validator, the completeness
    test) see the complete registry without maintaining a second list.
    """
    import repro.experiments as experiments

    for info in pkgutil.iter_modules(experiments.__path__):
        importlib.import_module(f"repro.experiments.{info.name}")
    return registered_artifacts()


__all__ = [
    "KINDS",
    "ArtifactError",
    "ArtifactSpec",
    "ReproContext",
    "artifact_spec",
    "load_artifact_registry",
    "register_artifact",
    "registered_artifacts",
]
