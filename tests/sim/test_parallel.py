"""The suite pipeline must be bit-identical to the serial driver."""

import dataclasses
import multiprocessing
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from repro.sim import distill
from repro.sim.configs import EVALUATED_MODES, LATENCY_MODES
from repro.sim.engine import run_suite
from repro.sim.faults import (
    FAULT_PLAN_ENV,
    FailureManifest,
    FaultPlan,
    FaultSpec,
    SupervisionPolicy,
    TaskFailedError,
    TaskFailure,
    TaskFailureRecord,
)
from repro.sim.parallel import (
    DEFAULT_POLICY,
    SupervisedExecutor,
    parallel_map,
    pipelined_map,
    report_progress,
    resolve_jobs,
    resolve_supervision,
    stitch_suite,
)
from repro.experiments.harness import run_benchmarks
from repro.sim.shard import RunPlan, run_plans
from repro.sim.store import (
    CODE_FINGERPRINT_ENV,
    code_fingerprint,
    export_code_fingerprint,
)

BENCHES = ("bsw", "memcached")
ACCESSES = 5000
SCALE = 0.002
SEED = 1234


def _pipeline(names, jobs, **kwargs):
    """The one suite driver, unsharded: one full-length shard per chain."""
    return run_benchmarks(
        names,
        scale=SCALE,
        num_accesses=ACCESSES,
        seed=SEED,
        jobs=jobs,
        use_cache=False,
        **kwargs,
    )


def _flatten(suite):
    """Every measured field of every result, in iteration order."""
    out = []
    for bench, per_mode in suite.items():
        for mode, r in per_mode.items():
            out.append(
                (
                    bench,
                    mode,
                    r.workload,
                    r.instructions,
                    r.accesses,
                    r.llc_misses,
                    r.writebacks,
                    r.execution_time_ns,
                    r.baseline_time_ns,
                    r.traffic.to_dict(),
                    r.latency.to_dict(),
                    r.stealth_cache_hit_rate,
                    r.mac_cache_hit_rate,
                    r.trip_format_counts,
                    r.toleo_usage_bytes,
                    r.toleo_peak_bytes,
                    r.toleo_usage_timeline,
                )
            )
    return out


class TestParallelEqualsSerial:
    def test_all_modes_bit_identical(self):
        serial = run_suite(BENCHES, scale=SCALE, num_accesses=ACCESSES, seed=SEED)
        parallel = _pipeline(BENCHES, jobs=2)
        assert _flatten(serial) == _flatten(parallel)

    def test_latency_modes_bit_identical(self):
        serial = run_suite(
            BENCHES, modes=LATENCY_MODES, scale=SCALE, num_accesses=ACCESSES, seed=SEED
        )
        parallel = _pipeline(BENCHES, jobs=3, modes=LATENCY_MODES)
        assert _flatten(serial) == _flatten(parallel)

    def test_merge_order_matches_serial(self):
        suite = _pipeline(BENCHES, jobs=2)
        assert list(suite) == list(BENCHES)
        for per_mode in suite.values():
            assert tuple(per_mode) == EVALUATED_MODES

    def test_baseline_stitched_but_not_returned_when_missing(self):
        # NoProtect runs for the baseline time but stays out of the result,
        # mirroring the serial compare_modes contract.
        suite = _pipeline(("bsw",), jobs=2, modes=("CI",))
        per_mode = suite["bsw"]
        assert set(per_mode) == {"CI"}
        ci = per_mode["CI"]
        assert ci.baseline_time_ns is not None
        assert ci.slowdown > 1.0

    def test_filtered_modes_bit_identical_to_serial(self):
        serial = run_suite(
            BENCHES,
            modes=("CI", "Toleo"),
            scale=SCALE,
            num_accesses=ACCESSES,
            seed=SEED,
        )
        parallel = _pipeline(
            BENCHES, jobs=2, modes=("CI", "Toleo")
        )
        assert _flatten(serial) == _flatten(parallel)

    def test_single_job_runs_in_process(self):
        serial = run_suite(("bsw",), scale=SCALE, num_accesses=ACCESSES, seed=SEED)
        inline = _pipeline(("bsw",), jobs=1)
        assert _flatten(serial) == _flatten(inline)


class TestHelpers:
    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1

    def test_parallel_map_preserves_order(self):
        tasks = list(range(20))
        assert parallel_map(str, tasks, jobs=4) == [str(t) for t in tasks]

    def test_parallel_map_serial_fallback(self):
        assert parallel_map(str, [7], jobs=8) == ["7"]


def _chain_step(task, carry):
    return (carry or 0) + task


def _fail_on_carry(chain_index, step_index, carry):
    raise RuntimeError("on_carry failed in the parent")


def _raise_value_error(task):
    raise ValueError(f"bad task {task}")


class TestPipelinedMapErrorPaths:
    """A raising parent-side hook must raise to the caller, never hang."""

    CHAINS = [[1, 2], [10, 20]]  # 2 chains so the multiprocess path runs

    def test_raising_on_carry_propagates_and_stops_every_worker(self):
        before = set(multiprocessing.active_children())
        # A regression here deadlocks rather than fails; run the call on a
        # worker thread with a timeout so the suite sees an error, not a hang.
        with ThreadPoolExecutor(max_workers=1) as executor:
            future = executor.submit(
                pipelined_map, _chain_step, self.CHAINS, 2, on_carry=_fail_on_carry
            )
            with pytest.raises(RuntimeError, match="on_carry failed"):
                future.result(timeout=60)
        assert [p for p in multiprocessing.active_children() if p not in before] == []

    def test_pipelined_map_still_correct(self):
        assert pipelined_map(_chain_step, self.CHAINS, jobs=2) == [3, 30]


class TestDefaultPolicy:
    """Without a policy a failing task aborts the map, as ``Pool.map`` did,
    but it surfaces as ``TaskFailedError`` at every ``jobs`` value."""

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_task_exception_is_a_task_failed_error(self, jobs, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        manifest = FailureManifest()
        with pytest.raises(TaskFailedError) as err:
            parallel_map(_raise_value_error, [1, 2], jobs=jobs, manifest=manifest)
        record = err.value.record
        assert record.reason == "exception"
        assert record.error.startswith("ValueError: bad task ")
        assert record.attempts == 1
        assert manifest.retries == 0

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_chain_step_exception_is_a_task_failed_error(self, jobs, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        manifest = FailureManifest()
        with pytest.raises(TaskFailedError) as err:
            pipelined_map(
                _raise_on_second_step, [[1, 2], [3, 4]], jobs=jobs, manifest=manifest
            )
        record = err.value.record
        assert record.reason == "exception"
        assert record.error.startswith("ValueError: step after carry ")
        assert record.attempts == 1
        assert manifest.retries == 0

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_on_failure_degrade_fills_the_failed_slot(self, jobs, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        policy = SupervisionPolicy(deadline=None, retries=1, backoff=0.0)
        manifest = FailureManifest()
        results = parallel_map(
            _raise_on_odd,
            [0, 1, 2],
            jobs=jobs,
            policy=dataclasses.replace(policy, on_failure="degrade"),
            manifest=manifest,
        )
        assert results[0] == 0 and results[2] == 2
        assert isinstance(results[1], TaskFailure)
        assert manifest.quarantined == 1 and manifest.retries == 1
        assert manifest.records[0].attempts == 2


def _raise_on_second_step(task, carry):
    if carry is not None:
        raise ValueError(f"step after carry {carry}")
    return task


def _raise_on_odd(task):
    if task % 2:
        raise ValueError(f"odd task {task}")
    return task


class TestResolveSupervision:
    """The one resolver: settings choose the policy, never the code path."""

    @pytest.fixture(autouse=True)
    def _no_ambient_plan(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)

    @staticmethod
    def _activate_plan(monkeypatch):
        plan = FaultPlan(faults=(FaultSpec(task_index=0, kind="crash"),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())

    def test_nothing_gives_the_default_policy(self):
        assert resolve_supervision() is DEFAULT_POLICY

    def test_default_policy_is_the_plain_map_contract(self):
        assert DEFAULT_POLICY.deadline is None
        assert DEFAULT_POLICY.retries == 0
        assert DEFAULT_POLICY.on_failure == "raise"

    def test_explicit_policy_is_used_as_given(self):
        policy = SupervisionPolicy(deadline=3.0, retries=5, backoff=0.5)
        assert resolve_supervision(policy) is policy

    def test_active_fault_plan_arms_the_standard_policy(self, monkeypatch):
        self._activate_plan(monkeypatch)
        assert resolve_supervision() == SupervisionPolicy()

    def test_explicit_policy_wins_over_an_active_fault_plan(self, monkeypatch):
        self._activate_plan(monkeypatch)
        policy = SupervisionPolicy(deadline=1.0, retries=7)
        assert resolve_supervision(policy) is policy


class TestPipelinedMapContract:
    CHAINS = [[1, 2], [10, 20]]

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_initials_seed_each_chain(self, jobs):
        finals = pipelined_map(_chain_step, self.CHAINS, jobs, initials=[100, 1000])
        assert finals == [103, 1030]

    def test_initials_must_match_the_chain_count(self):
        with pytest.raises(ValueError, match="initials has 1 entries for 2 chains"):
            pipelined_map(_chain_step, self.CHAINS, 2, initials=[5])

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_on_carry_sees_every_step_in_chain_order(self, jobs):
        seen = []
        pipelined_map(
            _chain_step,
            self.CHAINS,
            jobs,
            on_carry=lambda chain, step, carry: seen.append((chain, step, carry)),
        )
        assert sorted(seen) == [(0, 0, 1), (0, 1, 3), (1, 0, 10), (1, 1, 30)]
        for chain in (0, 1):
            assert [step for c, step, _ in seen if c == chain] == [0, 1]

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_empty_chain_yields_none(self, jobs):
        assert pipelined_map(_chain_step, [[], [1, 2], [3]], jobs) == [None, 3, 3]


class _Loads:
    """A carry that notes the pid of every process that unpickles it."""

    def __init__(self, pids=()):
        self.pids = list(pids)

    def __reduce__(self):
        return (_loaded, (self.pids,))


def _loaded(pids):
    return _Loads([*pids, os.getpid()])


def _loads_step(task, carry):
    return _Loads() if carry is None else carry


class TestOpaqueChains:
    """An opaque chain's intermediate carries go from worker to worker as
    bytes: the parent loads only the final, and ``on_carry`` sees only it."""

    @pytest.mark.parametrize("jobs", (1, 2))
    @pytest.mark.parametrize("opaque", ((), (0,)), ids=("plain", "opaque"))
    def test_who_loads_each_carry(self, jobs, opaque):
        seen = []
        final, _ = pipelined_map(
            _loads_step,
            [[1, 2, 3], [4]],
            jobs,
            on_carry=lambda chain, step, carry: seen.append((chain, step)),
            opaque=opaque,
        )
        parent = os.getpid()
        loads = ["parent" if pid == parent else "worker" for pid in final.pids]
        if jobs == 1:
            assert loads == []  # in-process: nothing is pickled
        elif opaque:
            assert loads == ["worker", "worker", "parent"]
        else:
            assert loads == ["parent", "worker", "parent", "worker", "parent"]
        finals_only = [(0, 2), (1, 0)]
        assert sorted(seen) == (finals_only if opaque else [(0, 0), (0, 1), (0, 2), (1, 0)])

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_opaque_chains_return_what_plain_ones_do(self, jobs):
        chains = [[1, 2, 3], [10, 20], [5]]
        assert pipelined_map(_chain_step, chains, jobs, opaque=(0, 1, 2)) == [6, 30, 5]


def _logged_step(task, carry):
    """A producer ``(log, stops)`` reports each stop after logging it; a
    waiter ``(log, step)`` logs its start."""
    log, what = task
    if isinstance(what, tuple):
        for stop in what:
            time.sleep(0.1)
            with open(log, "a") as out:
                out.write(f"report {stop}\n")
            report_progress(stop)
        return what[-1]
    with open(log, "a") as out:
        out.write(f"start {what}\n")
    return what


def _producer_fails_after_one(task, carry):
    role, value = task
    if role == "producer":
        report_progress(1)
        raise ValueError("producer failed")
    return (carry or 0) + value


def _nap(task):
    """Five 0.2 s naps, reporting progress after each one if asked."""
    naps, reporting = task
    for nap in range(naps):
        time.sleep(0.2)
        if reporting:
            report_progress(nap)
    return naps


#: Degrade mode with no retry: the first failure quarantines its task.
ONE_SHOT = SupervisionPolicy(deadline=30.0, retries=0, backoff=0.01, on_failure="degrade")


class TestProgressGates:
    """``waits``: a chain's steps run as another chain's progress allows."""

    @pytest.fixture(autouse=True)
    def _no_ambient_plan(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_a_waiting_step_never_starts_before_its_producer_reports(self, jobs, tmp_path):
        log = str(tmp_path / "log.txt")
        chains = [[(log, (1, 2, 3))], [(log, 0), (log, 1)], [(log, 2)]]
        # Chain 2 waits for progress the producer never reports: it runs
        # once the producer has ended.
        waits = {1: (0, [2, 3]), 2: (0, [99])}
        assert pipelined_map(_logged_step, chains, jobs, waits=waits) == [3, 1, 2]
        lines = Path(log).read_text().splitlines()
        assert lines.index("start 0") > lines.index("report 2")
        assert lines.index("start 1") > lines.index("report 3")
        assert lines.index("start 2") > lines.index("report 3")

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_a_quarantined_producer_ends_its_waiters_with_its_failure(self, jobs):
        manifest = FailureManifest()
        chains = [
            [("producer", 0)],
            [("waiter", 1), ("waiter", 2)],  # step 0 needs the reported 1, step 1 a 2
            [("waiter", 3)],  # waits on chain 1, so on the producer too
            [("free", 4)],
        ]
        finals = pipelined_map(
            _producer_fails_after_one,
            chains,
            jobs,
            policy=ONE_SHOT,
            manifest=manifest,
            waits={1: (0, [1, 2]), 2: (1, [5])},
        )
        assert isinstance(finals[0], TaskFailure)
        assert finals[1] is finals[0] and finals[2] is finals[0]
        assert finals[3] == 4
        assert manifest.quarantined == 1

    @pytest.mark.parametrize("producer", (1, 2))
    def test_a_wait_on_the_same_or_a_later_chain_is_rejected(self, producer):
        with pytest.raises(ValueError, match="can only wait on an earlier one"):
            pipelined_map(_chain_step, [[1], [2], [3]], 2, waits={1: (producer, [1])})

    def test_every_step_needs_a_threshold(self):
        with pytest.raises(ValueError, match="2 steps but 1 thresholds"):
            pipelined_map(_chain_step, [[1], [2, 3]], 2, waits={1: (0, [1])})

    def test_progress_reports_rearm_the_deadline(self):
        # Both tasks outlive the 0.5 s deadline; only the silent one is killed.
        manifest = FailureManifest()
        policy = SupervisionPolicy(deadline=0.5, retries=0, on_failure="degrade")
        results = parallel_map(
            _nap, [(5, True), (5, False)], jobs=2, policy=policy, manifest=manifest
        )
        assert results[0] == 5
        assert isinstance(results[1], TaskFailure)
        assert results[1].record.reason == "deadline-exceeded"

    @pytest.mark.parametrize("slot, label", ((0, "bsw/ingest"), (1, "bsw/tiers")))
    def test_a_quarantined_producer_is_named_in_the_manifest(
        self, slot, label, monkeypatch, fresh_default_store
    ):
        # Chain-major slots: the run's ingest task, then its tier step.
        if label.endswith("tiers") and not distill.HAVE_NUMPY:
            pytest.skip("a numpy-free run reads no verdict tier")
        plan = FaultPlan(faults=(FaultSpec(task_index=slot, kind="crash"),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        manifest = FailureManifest()
        plan = RunPlan(("bsw",), ("CI",), SCALE, ACCESSES, SEED, None, None, None, None)
        (suite,), _ = run_plans(
            [plan], jobs=2, policy=ONE_SHOT, manifest=manifest, use_cache=False
        )
        assert [record.label for record in manifest.records] == [label]
        assert "CI" not in suite.get("bsw", {})


def _echo(task):
    return task


class TestReadyOrder:
    def test_an_idle_worker_takes_the_lowest_slot(self):
        # Ready in slots 5, 3, 1 before the one worker is free: it runs them
        # as 1, 3, 5, so a producer step (whose chain ranks first) released
        # late runs before the replay steps queued ahead of it.
        executor = SupervisedExecutor(1, DEFAULT_POLICY)
        for slot in (5, 3, 1):
            executor.submit(slot, _echo, (slot,), slot)
        delivered = []
        executor.run(lambda key, value: delivered.append((key, value)))
        assert delivered == [(1, 1), (3, 3), (5, 5)]


class _Step(NamedTuple):
    label: str
    slow: bool


def _timed_step(task, carry):
    if task.slow:
        time.sleep(0.1)
    return (carry or 0) + 1


class TestFaultSlots:
    """A fault-plan slot names one (chain, step) at every ``jobs``."""

    #: Chain 0's steps are slow, so at jobs=2 the other chains' later steps
    #: are submitted before its second one.
    CHAINS = [
        [_Step(f"chain{chain}/step{step}", chain == 0) for step in range(length)]
        for chain, length in enumerate((2, 3, 2, 3))
    ]
    SLOT = 2 + 3 + 1  # (chain 2, step 1)

    @pytest.mark.parametrize("jobs, kind, runs", ((2, "crash", 3), (1, "error", 1)))
    def test_a_slot_quarantines_the_same_step(self, jobs, kind, runs, monkeypatch):
        plan = FaultPlan(faults=(FaultSpec(task_index=self.SLOT, kind=kind),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        for _ in range(runs):
            manifest = FailureManifest()
            finals = pipelined_map(
                _timed_step, self.CHAINS, jobs, policy=ONE_SHOT, manifest=manifest
            )
            assert [(r.index, r.label) for r in manifest.records] == [
                (self.SLOT, "chain2/step1")
            ]
            assert finals[:2] + finals[3:] == [2, 3, 3]
            assert isinstance(finals[2], TaskFailure)


def _cell(time_ns):
    return SimpleNamespace(execution_time_ns=time_ns, baseline_time_ns=None)


def _quarantined(label):
    return TaskFailure(
        TaskFailureRecord(index=0, label=label, attempts=1, reason="exception")
    )


class TestStitchSuite:
    """The one partial-results contract shared by every suite merge."""

    def test_baseline_stitched_into_every_result(self):
        base, ci = _cell(100.0), _cell(150.0)
        suite = stitch_suite(
            [("bsw", "NoProtect", base), ("bsw", "CI", ci)], ("NoProtect", "CI")
        )
        assert list(suite["bsw"]) == ["NoProtect", "CI"]
        assert base.baseline_time_ns == ci.baseline_time_ns == 100.0

    def test_unrequested_baseline_stitched_then_dropped(self):
        ci = _cell(150.0)
        suite = stitch_suite(
            [("bsw", "NoProtect", _cell(100.0)), ("bsw", "CI", ci)], ("CI",)
        )
        assert suite == {"bsw": {"CI": ci}}
        assert ci.baseline_time_ns == 100.0

    def test_quarantined_cell_is_absent(self):
        toleo = _cell(120.0)
        suite = stitch_suite(
            [
                ("bsw", "NoProtect", _cell(100.0)),
                ("bsw", "CI", _quarantined("bsw/CI")),
                ("bsw", "Toleo", toleo),
            ],
            ("CI", "Toleo"),
        )
        assert suite == {"bsw": {"Toleo": toleo}}

    def test_quarantined_baseline_drops_the_benchmark(self):
        suite = stitch_suite(
            [
                ("bsw", "NoProtect", _quarantined("bsw/NoProtect")),
                ("bsw", "CI", _cell(150.0)),
                ("fmi", "NoProtect", _cell(80.0)),
                ("fmi", "CI", _cell(90.0)),
            ],
            ("CI",),
        )
        assert list(suite) == ["fmi"]


def _spawn_fingerprint_probe(_task):
    return code_fingerprint()


class TestFingerprintExport:
    @pytest.fixture
    def clear_fingerprint_cache(self):
        # Requested *before* monkeypatch in each test: fixture teardown runs
        # in reverse order, so the cache is cleared after the env var is
        # restored and no sentinel value can leak into later tests.
        code_fingerprint.cache_clear()
        yield
        code_fingerprint.cache_clear()

    def test_env_value_wins_over_rehashing(self, clear_fingerprint_cache, monkeypatch):
        monkeypatch.setenv(CODE_FINGERPRINT_ENV, "pinned-by-parent")
        code_fingerprint.cache_clear()
        assert code_fingerprint() == "pinned-by-parent"

    def test_export_publishes_current_fingerprint(
        self, clear_fingerprint_cache, monkeypatch
    ):
        monkeypatch.delenv(CODE_FINGERPRINT_ENV, raising=False)
        code_fingerprint.cache_clear()
        value = export_code_fingerprint()
        assert os.environ[CODE_FINGERPRINT_ENV] == value == code_fingerprint()
        assert len(value) == 64  # the real hash, not a sentinel

    def test_parallel_map_exports_before_pooling(
        self, clear_fingerprint_cache, monkeypatch
    ):
        monkeypatch.delenv(CODE_FINGERPRINT_ENV, raising=False)
        code_fingerprint.cache_clear()
        parallel_map(str, [1, 2, 3], jobs=2)
        assert os.environ[CODE_FINGERPRINT_ENV] == code_fingerprint()

    def test_spawn_workers_inherit_not_recompute(
        self, clear_fingerprint_cache, monkeypatch
    ):
        # The sentinel can only come from the inherited environment: a worker
        # that re-hashed the package source would return a real 64-char
        # digest instead.
        monkeypatch.setenv(CODE_FINGERPRINT_ENV, "pinned-by-parent")
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(processes=2) as pool:
            observed = pool.map(_spawn_fingerprint_probe, range(4), chunksize=1)
        assert observed == ["pinned-by-parent"] * 4
