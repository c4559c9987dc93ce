"""Grid sweeps over engine, system and run parameters.

The ROADMAP's execution substrate (PR 1) left two seams for bulk runs:
express the work as chains for :func:`repro.sim.parallel.pipelined_map`,
and persist results through :class:`repro.sim.store.ResultStore` content-hash
keys.  This module builds the design-space-exploration subsystem on exactly
those seams:

* a sweep is a cartesian grid over named axes -- ``scale``, ``accesses``,
  ``seed``, ``shard_size``, any ``options.<field>`` of
  :class:`EngineOptions`, any ``config.<field>`` of :class:`SystemConfig`
  -- each point resolving to a complete :class:`~repro.sim.shard.RunPlan`;
* the points run through :func:`repro.sim.shard.run_plans`, the runner
  behind ``repro bench`` too (a bench run is a one-point sweep), so a sweep
  point is served from (and warms) the same persistent entries as an
  identical ``repro bench`` run, and re-running a sweep with one new axis
  value only simulates the new points;
* all uncached points are flattened into **one** list of (benchmark, mode)
  shard chains and pipelined through a single pool, so a 4-point grid over
  2 modes exposes 8-way parallelism instead of 2-way four times.

Exposed on the CLI as ``repro sweep --param key=v1,v2,... --jobs N``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import product
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.sim.configs import mode_label
from repro.sim.engine import EngineOptions
from repro.sim.faults import FailureManifest, SupervisionPolicy
from repro.sim.parallel import resolve_supervision
from repro.sim.results import SuiteResults
from repro.sim.shard import RunPlan, run_plans
from repro.sim.store import ResultStore

#: Axis keys that override run parameters rather than dataclass fields,
#: each with the :class:`RunPlan` field it sets and that field's type.
#: ``shard_size`` makes the shard width a sweepable axis: every value is
#: bit-identical in *results* (the exact checkpoint discipline), so sweeping
#: it measures execution throughput, not model behaviour -- pair it with
#: ``--no-cache``, or the identical store keys serve every later width from
#: the first one's entry.
_RUN_FIELDS = {
    "scale": ("scale", float),
    "accesses": ("num_accesses", int),
    "seed": ("seed", int),
    "shard_size": ("shard_size", int),
}
RUN_AXES = tuple(_RUN_FIELDS)

_OPTION_FIELDS = {f.name for f in dataclasses.fields(EngineOptions)}
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(SystemConfig)}


class SweepAxisError(ValueError):
    """Raised for an axis key or value the sweep cannot interpret (a
    user-input error, so the CLI reports it cleanly)."""


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: a key and the values it takes."""

    key: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise SweepAxisError(f"axis {self.key!r} has no values")
        validate_axis_key(self.key)


def validate_axis_key(key: str) -> None:
    """Check an axis key names a sweepable parameter."""
    if key in RUN_AXES:
        return
    scope, _, name = key.partition(".")
    if scope == "options" and name in _OPTION_FIELDS:
        return
    if scope == "config" and name in _CONFIG_FIELDS:
        return
    raise SweepAxisError(
        f"unknown sweep axis {key!r}; use one of {', '.join(RUN_AXES)}, "
        "options.<field> or config.<field> "
        "(e.g. options.memory_level_parallelism, config.aes_latency_cycles)"
    )


def _parse_value(text: str) -> Any:
    """Parse an axis value: int where possible, then float, else the string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _coerce(key: str, value: Any, target_type: type) -> Any:
    """Cast an axis value to its parameter's type, or fail with a clean error.

    Int targets reject non-integral values rather than silently truncating
    (``accesses=2.5`` must not become a 2-access run).
    """
    try:
        coerced = target_type(value)
    except (TypeError, ValueError):
        raise SweepAxisError(
            f"axis {key!r} needs {target_type.__name__} values, got {value!r}"
        ) from None
    if target_type is int and isinstance(value, float) and coerced != value:
        raise SweepAxisError(f"axis {key!r} needs int values, got {value!r}")
    return coerced


def _coerce_field(key: str, value: Any, base: Any, name: str) -> Any:
    """Cast an axis value to the type of the dataclass field it overrides.

    Only scalar fields are sweepable; nested configuration objects (cache
    geometries, the Toleo config) would need structured values the CLI's
    ``key=v1,v2`` syntax cannot express.
    """
    default = getattr(base, name)
    if isinstance(default, bool) or not isinstance(default, (int, float, str)):
        raise SweepAxisError(
            f"axis {key!r} is not sweepable: field {name!r} is not a scalar "
            f"(found {type(default).__name__})"
        )
    return _coerce(key, value, type(default))


def parse_axis(spec: str) -> SweepAxis:
    """Parse a ``key=v1,v2,...`` CLI parameter into a :class:`SweepAxis`."""
    key, sep, values_text = spec.partition("=")
    key = key.strip()
    if not sep or not key or not values_text.strip():
        raise SweepAxisError(
            f"malformed --param {spec!r}; expected key=v1,v2,... "
            "(e.g. options.memory_level_parallelism=1,4,8)"
        )
    values = tuple(_parse_value(v.strip()) for v in values_text.split(",") if v.strip())
    return SweepAxis(key=key, values=values)


def resolve_point(plan: RunPlan, overrides: Sequence[Tuple[str, Any]]) -> RunPlan:
    """Apply one grid point's overrides to the base plan.

    ``config``/``options`` stay ``None`` (the engine's defaults) unless a
    corresponding axis touches them, so untouched points share persistent
    store entries with plain harness runs of the same parameters.
    """
    options = plan.options or EngineOptions()
    config = plan.config or SystemConfig()
    changes: Dict[str, Any] = {}
    option_overrides: Dict[str, Any] = {}
    config_overrides: Dict[str, Any] = {}
    for key, value in overrides:
        scope, _, name = key.partition(".")
        if key in _RUN_FIELDS:
            field, cast = _RUN_FIELDS[key]
            changes[field] = _coerce(key, value, cast)
        elif scope == "options":
            option_overrides[name] = _coerce_field(key, value, options, name)
        elif scope == "config":
            config_overrides[name] = _coerce_field(key, value, config, name)
        else:  # pragma: no cover - guarded by validate_axis_key
            raise SweepAxisError(f"unknown sweep axis {key!r}")
    if changes.get("shard_size", 1) <= 0:
        raise SweepAxisError(
            f"axis 'shard_size' needs positive values, got {changes['shard_size']!r}"
        )
    if option_overrides:
        changes["options"] = dataclasses.replace(options, **option_overrides)
    if config_overrides:
        changes["config"] = dataclasses.replace(config, **config_overrides)
    return dataclasses.replace(plan, overrides=tuple(overrides), **changes)


def expand_grid(axes: Sequence[SweepAxis]) -> List[Tuple[Tuple[str, Any], ...]]:
    """Cartesian product of the axes, in axis-major order (deterministic)."""
    if not axes:
        return [()]
    return [
        tuple(zip((axis.key for axis in axes), combo))
        for combo in product(*(axis.values for axis in axes))
    ]


@dataclass
class SweepResult:
    """Outcome of one grid sweep: per-point suites plus cache telemetry."""

    benchmarks: Tuple[str, ...]
    modes: Tuple[str, ...]
    points: List[RunPlan]
    suites: List[SuiteResults]
    served_from_store: List[bool]

    def __iter__(self):
        return iter(zip(self.points, self.suites))

    @property
    def simulated_points(self) -> int:
        return sum(1 for cached in self.served_from_store if not cached)


def run_sweep(
    axes: Sequence[SweepAxis],
    plan: RunPlan,
    *,
    jobs: Optional[int] = None,
    use_cache: bool = True,
    store: Optional[ResultStore] = None,
    policy: Optional[SupervisionPolicy] = None,
    manifest: Optional[FailureManifest] = None,
) -> SweepResult:
    """Run the grid around ``plan``: every point is ``plan`` with its axis
    values applied (:func:`resolve_point`), in the axes' cartesian order.

    The points run through :func:`repro.sim.shard.run_plans`, the runner
    behind ``repro bench`` (a one-point sweep is a bench run): cached points
    are served from ``store``, points sharing a suite key simulate once
    (with ``use_cache``; without it every point simulates, so a
    ``shard_size`` axis times each width), every other point's chains
    pipeline through one pool, and a degraded point is never cached.
    """
    axis_keys = [axis.key for axis in axes]
    duplicates = sorted({key for key in axis_keys if axis_keys.count(key) > 1})
    if duplicates:
        # Later overrides would silently win, yielding identically-resolved
        # grid points under different labels.
        raise SweepAxisError(
            f"duplicate sweep axis {', '.join(repr(k) for k in duplicates)}; "
            "give each --param key once with all its values"
        )
    points = [resolve_point(plan, overrides) for overrides in expand_grid(axes)]
    suites, served = run_plans(
        points,
        jobs=jobs,
        policy=resolve_supervision(policy),
        manifest=manifest,
        use_cache=use_cache,
        store=store,
    )
    return SweepResult(
        benchmarks=tuple(plan.benchmarks),
        modes=tuple(mode_label(mode) for mode in plan.modes),
        points=points,
        suites=suites,
        served_from_store=served,
    )


__all__ = [
    "RUN_AXES",
    "SweepAxis",
    "SweepAxisError",
    "SweepResult",
    "expand_grid",
    "parse_axis",
    "resolve_point",
    "run_sweep",
    "validate_axis_key",
]
