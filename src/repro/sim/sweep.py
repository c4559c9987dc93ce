"""Grid sweeps over engine, system and run parameters.

The ROADMAP's execution substrate (PR 1) left two seams for bulk runs:
express the work as chains for :func:`repro.sim.parallel.pipelined_map`,
and persist results through :class:`repro.sim.store.ResultStore` content-hash
keys.  This module builds the design-space-exploration subsystem on exactly
those seams:

* a sweep is a cartesian grid over named axes -- ``scale``, ``accesses``,
  ``seed``, ``shard_size``, any ``options.<field>`` of
  :class:`EngineOptions`, any ``config.<field>`` of :class:`SystemConfig`
  -- each point resolving to a complete run description;
* every point is keyed with the same :func:`repro.sim.results.suite_key` the
  experiment harness uses, so a sweep point is served from (and warms) the
  same persistent entries as an identical ``repro bench`` run, and re-running
  a sweep with one new axis value only simulates the new points;
* all uncached points are flattened into **one** list of (benchmark, mode)
  shard chains and pipelined through a single pool
  (:func:`repro.sim.shard.run_chains`), so a 4-point grid over 2 modes
  exposes 8-way parallelism instead of 2-way four times.

Exposed on the CLI as ``repro sweep --param key=v1,v2,... --jobs N``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import product
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.sim.configs import EVALUATED_MODES, ModeLike, mode_label
from repro.sim.engine import EngineOptions
from repro.sim.faults import FailureManifest, SupervisionPolicy, TaskFailure
from repro.sim.parallel import resolve_supervision
from repro.sim.results import SuiteResults, decode_suite, encode_suite, suite_key
from repro.sim.shard import ShardSpec, prepare_suite, run_chains, stitch_chains
from repro.sim.store import ResultStore, default_store

#: Axis keys that override run parameters rather than dataclass fields.
#: ``shard_size`` makes the shard width a sweepable axis: every value is
#: bit-identical in *results* (the exact checkpoint discipline), so sweeping
#: it measures execution throughput, not model behaviour -- pair it with
#: ``--no-cache``, or the identical store keys serve every later width from
#: the first one's entry.
RUN_AXES = ("scale", "accesses", "seed", "shard_size")

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


@dataclass(frozen=True)
class SweepPoint:
    """One fully resolved grid point of a sweep."""

    overrides: Tuple[Tuple[str, Any], ...]
    scale: float
    num_accesses: int
    seed: int
    config: Optional[SystemConfig]
    options: Optional[EngineOptions]
    shard_size: Optional[int] = None

    @property
    def label(self) -> str:
        if not self.overrides:
            return "(base)"
        return ", ".join(f"{key}={value}" for key, value in self.overrides)


def resolve_point(
    overrides: Sequence[Tuple[str, Any]],
    scale: float,
    num_accesses: int,
    seed: int,
    config: Optional[SystemConfig],
    options: Optional[EngineOptions],
    shard_size: Optional[int] = None,
) -> SweepPoint:
    """Apply one grid point's overrides to the base run description.

    ``config``/``options`` stay ``None`` (the engine's defaults) unless a
    corresponding axis touches them, so untouched points share persistent
    store entries with plain harness runs of the same parameters.
    """
    option_overrides: Dict[str, Any] = {}
    config_overrides: Dict[str, Any] = {}
    for key, value in overrides:
        scope, _, name = key.partition(".")
        if key == "scale":
            scale = _coerce(key, value, float)
        elif key == "accesses":
            num_accesses = _coerce(key, value, int)
        elif key == "seed":
            seed = _coerce(key, value, int)
        elif key == "shard_size":
            shard_size = _coerce(key, value, int)
            if shard_size <= 0:
                raise SweepAxisError(
                    f"axis 'shard_size' needs positive values, got {value!r}"
                )
        elif scope == "options":
            option_overrides[name] = _coerce_field(key, value, options or EngineOptions(), name)
        elif scope == "config":
            config_overrides[name] = _coerce_field(key, value, config or SystemConfig(), name)
        else:  # pragma: no cover - guarded by validate_axis_key
            raise SweepAxisError(f"unknown sweep axis {key!r}")

    if option_overrides:
        options = dataclasses.replace(options or EngineOptions(), **option_overrides)
    if config_overrides:
        config = dataclasses.replace(config or SystemConfig(), **config_overrides)
    return SweepPoint(
        overrides=tuple(overrides),
        scale=scale,
        num_accesses=num_accesses,
        seed=seed,
        config=config,
        options=options,
        shard_size=shard_size,
    )


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
    points: List[SweepPoint]
    suites: List[SuiteResults]
    served_from_store: List[bool]

    def __iter__(self):
        return iter(zip(self.points, self.suites))

    @property
    def simulated_points(self) -> int:
        return sum(1 for cached in self.served_from_store if not cached)


def run_sweep(
    axes: Sequence[SweepAxis],
    benchmarks: Sequence[str],
    modes: Sequence[ModeLike] = EVALUATED_MODES,
    scale: float = 0.002,
    num_accesses: int = 20_000,
    seed: int = 1234,
    config: Optional[SystemConfig] = None,
    options: Optional[EngineOptions] = None,
    jobs: Optional[int] = None,
    use_cache: bool = True,
    store: Optional[ResultStore] = None,
    shard_size: Optional[int] = None,
    stream: Optional[int] = None,
    policy: Optional[SupervisionPolicy] = None,
    manifest: Optional[FailureManifest] = None,
    on_failure: Optional[str] = None,
    resume: bool = True,
) -> SweepResult:
    """Run the full grid, fetching cached points and fanning out the rest.

    Deterministic by construction: point order is the axes' cartesian order,
    each point's simulations replay the same traces a serial
    :func:`repro.sim.engine.run_suite` would, and store-served points carry
    the exact payload a fresh simulation produces.

    Every uncached point becomes (benchmark, mode) shard chains -- one
    full-length shard each, or shard-sized steps for points carrying a
    ``shard_size`` (from the base parameter or the ``shard_size`` axis) --
    and all of them pipeline through one pool: same results, same store
    keys.  With the cache on, points sharing a suite key (shard widths
    never enter it) are simulated once and the rest count as served from
    the stored entry; with it off every point simulates, so a
    ``shard_size`` axis times each width.

    ``stream`` (a window width in accesses) sets the event-slice width of
    *every* uncached point: a point whose run is longer than the window
    replays bounded-memory event-slice store entries, and the rest run as
    one window -- still bit-identical, still the same store keys.

    A point is degraded when any of its chains ended in a
    :class:`~repro.sim.faults.TaskFailure` (``on_failure="degrade"``); a
    degraded point is returned but never cached under its full suite key,
    and neither it nor a point sharing its key counts as served.
    """
    names = tuple(benchmarks)
    mode_order = tuple(mode_label(mode) for mode in modes)
    policy = resolve_supervision(policy, on_failure)
    if manifest is None:
        manifest = FailureManifest()
    axis_keys = [axis.key for axis in axes]
    duplicates = sorted({key for key in axis_keys if axis_keys.count(key) > 1})
    if duplicates:
        # Later overrides would silently win, yielding identically-resolved
        # grid points under different labels.
        raise SweepAxisError(
            f"duplicate sweep axis {', '.join(repr(k) for k in duplicates)}; "
            "give each --param key once with all its values"
        )
    points = [
        resolve_point(overrides, scale, num_accesses, seed, config, options, shard_size)
        for overrides in expand_grid(axes)
    ]
    if store is None:
        store = default_store()

    keys = [
        suite_key(names, mode_order, p.scale, p.num_accesses, p.seed, p.config, p.options)
        for p in points
    ]
    suites: List[Optional[SuiteResults]] = [None] * len(points)
    served: List[bool] = [False] * len(points)
    if use_cache:
        for i, key in enumerate(keys):
            cached = store.get(key, decoder=decode_suite)
            if cached is not None:
                suites[i] = cached
                served[i] = True

    # One flat chain list across every uncached point: maximum fan-out
    # width, one pool startup.  Repeated (trace, geometry) pre-passes across
    # points dedupe through the store's memory layer.
    chains: List[List[Any]] = []
    spans: List[Tuple[int, int, int]] = []  # (point index, first chain, end)
    simulating: Dict[str, int] = {}  # suite key -> the point simulating it
    twins: List[Tuple[int, int]] = []  # (point index, point simulating its key)
    for i, point in enumerate(points):
        if suites[i] is not None:
            continue
        if use_cache and keys[i] in simulating:
            twins.append((i, simulating[keys[i]]))
            continue
        simulating[keys[i]] = i
        point_chains = prepare_suite(
            names,
            mode_order,
            ShardSpec(point.shard_size or point.num_accesses),
            point.scale,
            point.num_accesses,
            point.seed,
            point.config,
            point.options,
            stream,
        )
        spans.append((i, len(chains), len(chains) + len(point_chains)))
        chains.extend(point_chains)

    finals = run_chains(chains, jobs, policy, manifest, resume) if chains else []
    stored = set()
    for i, start, stop in spans:
        suites[i] = stitch_chains(chains[start:stop], finals[start:stop], mode_order)
        degraded = any(isinstance(final, TaskFailure) for final in finals[start:stop])
        if use_cache and not degraded:
            # A degraded point is missing quarantined cells; caching it
            # under the full suite key would poison later clean runs.
            store.put(keys[i], suites[i], encoder=encode_suite)
            stored.add(i)
    for i, twin in twins:
        # A twin of a degraded point shares its lost cells and, like it, was
        # never stored: it counts as simulated, so a rerun retries both.
        suites[i] = suites[twin]
        served[i] = twin in stored

    return SweepResult(
        benchmarks=names,
        modes=mode_order,
        points=points,
        suites=[suite for suite in suites if suite is not None],
        served_from_store=served,
    )


__all__ = [
    "RUN_AXES",
    "SweepAxis",
    "SweepAxisError",
    "SweepPoint",
    "SweepResult",
    "expand_grid",
    "parse_axis",
    "resolve_point",
    "run_sweep",
    "validate_axis_key",
]
