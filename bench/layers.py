"""The traced run: one workload walked layer by layer, serially, in-process.

The walk calls each layer's public functions in the order the pipeline
does and wraps every call in a :class:`~tracing.Tracer` span, so the
per-layer numbers come from this benchmark's own files and nothing under
``src/`` changes:

* captured workloads follow ``run_suite_parallel`` / ``_run_suite_task``:
  ``Workload.capture`` -> ``HierarchyDistiller.distill`` -> store put/get
  -> ``compute_mac_tier`` -> per mode ``begin`` + ``BatchReplayEngine.replay``
  when ``replaycore.vectorizable`` holds, ``replay_events`` otherwise ->
  ``finish``;
* ``stream-long`` follows ``stream_event_slices`` and
  ``run_stream_shard_step``: ``Workload.stream`` windows ->
  ``HierarchyDistiller.advance`` -> slice puts, then per mode a chain of
  shards that loads slices, replays them scalar and hands the serialized
  ``EngineState`` to the next shard, with each checkpoint put to the store
  as the checkpoint journal does;
* ``reproduce-quick`` times each artifact's data stage and the render
  stage, then walks its tier's suite like a captured workload.

Every workload also ingests its benchmarks through the *other* path at equal
length (a stream on the captured workloads, a capture on ``stream-long``),
so captured and streamed ingestion are compared on every workload.  On the
captured workloads each cell round-trips its final state through
``serialize``/``deserialize`` before ``finish`` -- the handoff a sharded or
resumed run makes -- so checkpoint cost is measured on every workload's
real state.  The walk ends with two dispatch probes (``parallel_map`` of a
no-op over the workload's real ``suite_tasks``, plain and supervised) and
the component micro-benchmarks.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from plan import JOBS, MODES, SCALE, Plan, cell_violations, digest
from tracing import Tracer, coverage, layer_seconds

from repro.baselines.merkle import MerkleTree
from repro.core.toleo import ToleoDevice
from repro.core.trip import TripPageTable
from repro.core.versions import StealthVersionPolicy
from repro.crypto.cipher import XtsCipher
from repro.crypto.mac import MacEngine
from repro.crypto.rng import DRangeRng
from repro.experiments import harness
from repro.report.artifacts import load_artifact_registry
from repro.report.reproduce import base_context
from repro.sim import replaycore
from repro.sim.configs import mode_parameters
from repro.sim.distill import (
    WB_NONE,
    HierarchyDistiller,
    MissEventStream,
    events_key,
    events_slice_key,
    slice_bounds,
)
from repro.sim.engine import EngineState, SimulationEngine
from repro.sim.faults import SupervisionPolicy
from repro.sim.parallel import parallel_map, suite_tasks
from repro.sim.results import encode_suite, suite_key
from repro.sim.shard import (
    ShardSpec,
    _encode_checkpoint,  # the checkpoint journal's own store encoding
    checkpoint_key,
    shard_bounds,
    stream_shard_chain,
)
from repro.sim.store import ResultStore, set_default_store
from repro.workloads.registry import capture_trace, get_workload

#: Minimum measured time of each component micro-benchmark.
MICRO_SECONDS = 0.25


def mode_slug(label: str) -> str:
    """Mode label as used in metric names: lowercased, ``+`` -> ``-``."""
    return label.lower().replace("+", "-")


#: Span names whose total self time is reported as ``<name>_s``.
TIMED_LAYERS = (
    "workloads.capture",
    "workloads.stream",
    "distill.distill",
    "distill.advance",
    "store.put",
    "store.get",
    "replaycore.mac_tier",
    *(f"replay.{mode_slug(mode)}" for mode in MODES),
    "engine.finish",
    "shard.checkpoint_encode",
    "shard.checkpoint_decode",
)


def _noop(task: Any) -> None:
    return None


class Walk:
    """One traced pass over one workload, against a fresh store."""

    def __init__(self, tracer: Tracer, plan: Plan, seed: int, work: Path) -> None:
        self.tracer = tracer
        self.plan = plan
        self.seed = seed
        self.work = work
        self.store = ResultStore(work / "store")
        # A second handle on the same directory reads back from disk, as a
        # worker process does; it never promotes, so every read is a disk read.
        self.reader = ResultStore(work / "store")
        self.counts = {"events": 0, "writebacks": 0, "checkpoint_bytes": 0}
        #: Op name (artifact or ``benchmark/mode`` cell) -> JSON-ready output.
        self.outputs: Dict[str, Any] = {}

    def span(self, name: str, **attrs: Any):
        return self.tracer.span(name, workload=self.plan.name, **attrs)

    # -- store -----------------------------------------------------------------

    def put(self, key: str, value: Any, encoder: Callable, keep_in_memory: bool = True) -> None:
        with self.span("store.put", kind=key.rsplit("-", 1)[0]):
            self.store.put(key, value, encoder=encoder, keep_in_memory=keep_in_memory)

    def get(self, key: str, decoder: Callable) -> Any:
        with self.span("store.get", kind=key.rsplit("-", 1)[0]):
            value = self.reader.get(key, decoder=decoder, promote=False)
        if value is None:
            raise RuntimeError(f"store lost {key}")
        return value

    # -- ingestion ---------------------------------------------------------------

    def note_events(self, events: MissEventStream) -> None:
        self.counts["events"] += len(events)
        self.counts["writebacks"] += len(events) - events.writeback_addresses.count(WB_NONE)

    def ingest_streamed(self, name: str, persist: bool) -> list:
        """``Workload.stream`` windows through one stateful distiller."""
        plan, n = self.plan, self.plan.num_accesses
        window = plan.stream or max(1, n // 10)
        windows = iter(get_workload(name, scale=SCALE, seed=self.seed).stream(n, window))
        distiller = HierarchyDistiller()
        keys = []
        for index, (start, stop) in enumerate(slice_bounds(n, window)):
            with self.span("workloads.stream", benchmark=name):
                trace_window = next(windows)
            with self.span("distill.advance", benchmark=name):
                events = distiller.advance(trace_window, start, stop)
            if persist:
                self.note_events(events)
                key = events_slice_key(name, SCALE, self.seed, n, window, index)
                self.put(key, events, MissEventStream.to_payload, keep_in_memory=False)
                keys.append(key)
        return keys

    def ingest_captured(self, name: str):
        n = self.plan.num_accesses
        workload = get_workload(name, scale=SCALE, seed=self.seed)
        with self.span("workloads.capture", benchmark=name):
            trace = workload.capture(n)
        with self.span("distill.distill", benchmark=name):
            events = HierarchyDistiller().distill(trace, n)
        return trace, events

    def checkpoint(self, state: EngineState, **attrs: Any) -> bytes:
        with self.span("shard.checkpoint_encode", **attrs):
            carry = state.serialize()
        self.counts["checkpoint_bytes"] += len(carry)
        return carry

    def restore(self, carry: bytes, **attrs: Any) -> EngineState:
        with self.span("shard.checkpoint_decode", **attrs):
            return EngineState.deserialize(carry)

    # -- the two pipelines ---------------------------------------------------------

    def captured(self, name: str) -> Dict[str, Any]:
        n = self.plan.num_accesses
        trace, events = self.ingest_captured(name)
        self.note_events(events)
        key = events_key(name, SCALE, self.seed, n)
        self.put(key, events, MissEventStream.to_payload)
        self.ingest_streamed(name, persist=False)
        events = self.get(key, MissEventStream.from_payload)
        with self.span("replaycore.mac_tier", benchmark=name):
            tier = replaycore.compute_mac_tier(events)
        tier_key = replaycore.mac_tier_key(events)
        self.put(tier_key, tier, replaycore.MacTier.to_payload)
        tier = self.get(tier_key, replaycore.MacTier.from_payload)

        results = {}
        for mode in MODES:
            attrs = {"benchmark": name, "mode": mode}
            engine = SimulationEngine(mode_parameters(mode), seed=self.seed)
            with self.span(f"replay.{mode_slug(mode)}", **attrs):
                state = engine.begin(events, n)
                subject: Any = events
                if not engine.distillable(state.components):
                    engine.replay(state, trace)
                    subject = trace
                elif replaycore.vectorizable(state.components):
                    replaycore.BatchReplayEngine(engine, events, tier=tier).replay(state)
                else:
                    engine.replay_events(state, events)
            state = self.restore(self.checkpoint(state, **attrs), **attrs)
            with self.span("engine.finish", **attrs):
                results[mode] = engine.finish(state, subject)
        return results

    def streamed(self, name: str) -> Dict[str, Any]:
        plan, n = self.plan, self.plan.num_accesses
        # The captured path's pre-passes at equal length, for comparison.
        _, events = self.ingest_captured(name)
        with self.span("replaycore.mac_tier", benchmark=name):
            replaycore.compute_mac_tier(events)
        del events
        keys = self.ingest_streamed(name, persist=True)
        spec = ShardSpec(shard_size=plan.shard_size)
        results = {}
        for mode in MODES:
            attrs = {"benchmark": name, "mode": mode}
            engine = SimulationEngine(mode_parameters(mode), seed=self.seed)
            chain = stream_shard_chain(name, mode, spec, SCALE, n, self.seed, plan.stream)
            state: Optional[EngineState] = None
            carry: Optional[bytes] = None
            for task, (start, stop) in zip(chain, shard_bounds(n, spec.shard_size)):
                if carry is not None:
                    state = self.restore(carry, **attrs)
                with self.span(f"replay.{mode_slug(mode)}", **attrs):
                    position = start
                    while position < stop:
                        key = keys[position // plan.stream]
                        events = self.get(key, MissEventStream.from_payload)
                        meta = events.run_meta(n)
                        if state is None:
                            state = engine.begin(meta, n)
                        engine.replay_events(state, events, stop=min(stop, events.stop_index))
                        position = state.position
                if stop < n:
                    carry = self.checkpoint(state, **attrs)
                    self.put(checkpoint_key(task), carry, _encode_checkpoint, keep_in_memory=False)
            with self.span("engine.finish", **attrs):
                results[mode] = engine.finish(state, meta)
        return results

    def suite(self) -> None:
        plan = self.plan
        suite = {}
        for name in plan.benchmarks:
            per_mode = self.streamed(name) if plan.stream else self.captured(name)
            baseline = per_mode["NoProtect"].execution_time_ns
            for mode, result in per_mode.items():
                result.baseline_time_ns = baseline
                self.outputs[f"{name}/{mode}"] = result.to_dict()
            suite[name] = per_mode
        key = suite_key(plan.benchmarks, MODES, SCALE, plan.num_accesses, self.seed, None, None)
        self.put(key, suite, encode_suite)

    # -- the report stage ----------------------------------------------------------

    def reproduce(self) -> None:
        """``reproduce_all``'s data and render stages, serial, timed per artifact."""
        plan = self.plan
        capture_trace.cache_clear()
        # The data stages fill their own store, so the walk's store
        # statistics count only the walk's puts.
        set_default_store(ResultStore(self.work / "report-store"))
        previous = harness.configure(jobs=1, use_cache=True)
        try:
            base = base_context(plan.tier, seed=self.seed, num_accesses=plan.num_accesses)
            specs = load_artifact_registry()
            payloads = {}
            for spec in specs:
                ctx = spec.context_for(base).replace(num_accesses=plan.num_accesses)
                with self.span(f"report.data.{spec.name}"):
                    result = spec.run_data(ctx)
                payloads[spec.name] = json.loads(json.dumps(result["payload"], sort_keys=True))
            with self.span("report.render"):
                for spec in specs:
                    spec.render(payloads[spec.name])
        finally:
            harness.configure(**previous)
            set_default_store(self.store)
        self.outputs.update(payloads)

    # -- dispatch probes -----------------------------------------------------------

    def dispatch(self) -> Dict[str, float]:
        plan = self.plan
        tasks = suite_tasks(plan.benchmarks, MODES, SCALE, plan.num_accesses, self.seed)
        per_task = {}
        for metric, policy in (
            ("parallel.dispatch_ms_per_task", None),
            ("parallel.supervised_dispatch_ms_per_task", SupervisionPolicy()),
        ):
            started = time.perf_counter()
            with self.span(metric.rsplit("_ms", 1)[0], tasks=len(tasks)):
                parallel_map(_noop, tasks, jobs=JOBS, policy=policy)
            per_task[metric] = (time.perf_counter() - started) * 1e3 / len(tasks)
        return per_task

    def run(self) -> None:
        if self.plan.tier is not None:
            self.reproduce()
        self.suite()


# -- component micro-benchmarks ------------------------------------------------


def _per_op_us(op: Callable[[int], Any]) -> float:
    """Mean microseconds per ``op(i)`` call over at least MICRO_SECONDS."""
    calls = 0
    started = time.perf_counter()
    while True:
        for _ in range(32):
            op(calls)
            calls += 1
        elapsed = time.perf_counter() - started
        if elapsed >= MICRO_SECONDS:
            return elapsed * 1e6 / calls


def _toleo_update_us(seed: int, pages: int) -> float:
    device = ToleoDevice(rng=DRangeRng(seed=seed), strict_capacity=False)
    for page in range(pages):
        # Populate through the table: a device update per page would cost
        # O(pages^2) before timing starts.
        device.table.update(page, 0)
    return _per_op_us(lambda i: device.update((i * 7919) % pages, i % 64))


def micro(tracer: Tracer, seed: int) -> Dict[str, float]:
    """The operations of ``benchmarks/test_microbench_components.py``, per call."""
    table = TripPageTable(policy=StealthVersionPolicy(rng=DRangeRng(seed=seed)))
    cipher = XtsCipher(b"bench-key")
    mac = MacEngine(b"bench-key")
    plaintext = bytes(range(64))
    tree = MerkleTree(num_blocks=1 << 16, arity=8, node_cache_kib=32)
    for block in range(0, 1 << 16, 257):
        tree.update(block)

    def protect_block(version: int) -> Any:
        ct = cipher.encrypt(plaintext, 0x1000, version)
        return mac.compute(version, 0x1000, ct.data)

    cases = {
        "core.trip_update_us": lambda: _per_op_us(lambda i: table.update((i // 64) % 1024, i % 64)),
        "crypto.encrypt_mac_us": lambda: _per_op_us(protect_block),
        "baselines.merkle_verify_us": lambda: _per_op_us(
            lambda i: tree.verify((i * 257) % (1 << 16))
        ),
        "core.toleo_update_us.p1k": lambda: _toleo_update_us(seed, 1024),
        "core.toleo_update_us.p8k": lambda: _toleo_update_us(seed, 8192),
    }
    results = {}
    for metric, case in cases.items():
        with tracer.span("micro." + metric.rsplit("_us", 1)[0]):
            results[metric] = case()
    return results


def traced_run(plan: Plan, seed: int, work: Path) -> Dict[str, Any]:
    """Walk one workload under a tracer; returns metrics, outputs and spans."""
    tracer = Tracer()
    capture_trace.cache_clear()
    walk = Walk(tracer, plan, seed, work)
    set_default_store(walk.store)
    try:
        started = time.perf_counter_ns()
        walk.run()
        per_task = walk.dispatch()
        micros = micro(tracer, seed)
        wall_ns = time.perf_counter_ns() - started
        stats = walk.store.stats()
    finally:
        set_default_store(None)
        walk.store.close()
        walk.reader.close()
    seconds = layer_seconds(tracer.spans)
    counts = walk.counts
    # Every workload's walk enters each of these layers, so a missing span
    # is a broken walk, not a zero.
    metrics: Dict[str, float] = {name + "_s": seconds[name] for name in TIMED_LAYERS}
    metrics.update(
        {
            "distill.events": counts["events"],
            "distill.writebacks": counts["writebacks"],
            "distill.writeback_share": counts["writebacks"] / counts["events"],
            "store.put_bytes": stats["bytes"],
            "store.blob_entries": stats["blob_entries"],
            "store.inline_entries": stats["inline_entries"],
            "shard.checkpoint_bytes": counts["checkpoint_bytes"],
            **per_task,
            "trace.coverage": coverage(tracer.spans, wall_ns),
            **micros,
        }
    )
    report = {
        "report.data_s." + name[len("report.data."):]: value
        for name, value in seconds.items()
        if name.startswith("report.data.")
    }
    if plan.tier is not None:
        report["report.render_s"] = seconds["report.render"]
    return {
        "metrics": metrics,
        "report_metrics": report,
        "wall_s": wall_ns / 1e9,
        "shares": {name: value * 1e9 / wall_ns for name, value in sorted(seconds.items())},
        "digests": {op: digest(value) for op, value in walk.outputs.items()},
        "violations": cell_violations(plan, walk.outputs),
        "tracer": tracer,
    }
