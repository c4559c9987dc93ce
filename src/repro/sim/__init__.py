"""Trace-driven performance simulator and the protection-mode registry."""

from repro.sim.configs import (
    BASELINE_MODE,
    MODE_PARAMETERS,
    ModeLike,
    ModeParameters,
    ProtectionMode,
    UnknownModeError,
    mode_label,
    mode_parameters,
    register_mode,
    registered_modes,
    resolve_mode,
    unregister_mode,
)
from repro.sim.distill import (
    HierarchyDistiller,
    MissEventStream,
    events_key,
)
from repro.sim.engine import EngineState, SimulationEngine, compare_modes, run_suite
from repro.sim.path import AccessContext, PathComponent, build_components
from repro.sim.results import LatencyBreakdown, SimulationResult, TrafficBreakdown
from repro.sim.shard import RunPlan, ShardSpec, run_plans, run_sharded
from repro.sim.sweep import SweepAxis, SweepResult, run_sweep
from repro.sim.variants import VARIANT_MODES

__all__ = [
    "ProtectionMode",
    "ModeLike",
    "ModeParameters",
    "MODE_PARAMETERS",
    "BASELINE_MODE",
    "UnknownModeError",
    "mode_label",
    "mode_parameters",
    "register_mode",
    "registered_modes",
    "resolve_mode",
    "unregister_mode",
    "VARIANT_MODES",
    "SimulationResult",
    "LatencyBreakdown",
    "TrafficBreakdown",
    "SimulationEngine",
    "EngineState",
    "compare_modes",
    "run_suite",
    "RunPlan",
    "ShardSpec",
    "run_plans",
    "run_sharded",
    "HierarchyDistiller",
    "MissEventStream",
    "events_key",
    "AccessContext",
    "PathComponent",
    "build_components",
    "SweepAxis",
    "SweepResult",
    "run_sweep",
]
