"""Deterministic fault injection and the supervised execution path.

The invariant under test everywhere: supervision is an *execution strategy*.
Whatever the fault plan does to worker processes -- crashes, hangs, corrupted
result envelopes, raised exceptions -- the surviving results must be
bit-identical to an undisturbed run, and terminal failures must surface as an
explicit policy outcome (``raise`` aborts, ``degrade`` quarantines into the
failure manifest), never as silently missing data.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.sim.faults import (
    FAULT_PLAN_ENV,
    FailureManifest,
    FaultPlan,
    FaultSpec,
    SupervisionPolicy,
    TaskFailedError,
    TaskFailure,
    TaskFailureRecord,
    corrupt_payload,
)
from repro.sim.parallel import parallel_map, pipelined_map

#: Small backoff so retry-heavy tests stay fast; deadline generous enough
#: that healthy tasks never trip it on a loaded CI box.
FAST = SupervisionPolicy(deadline=20.0, retries=3, backoff=0.01)


def _square(x):
    return x * x


def _chain_step(task, carry):
    return (carry or 0) + task


def _plan_env(monkeypatch, plan):
    monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())


@pytest.fixture(autouse=True)
def _no_ambient_plan(monkeypatch):
    """Tests opt into fault plans explicitly; never inherit one."""
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(task_index=3, kind="crash"),
                FaultSpec(task_index=1, kind="hang", seconds=5.0),
                FaultSpec(task_index=3, kind="corrupt", attempt=2),
            ),
            seed=99,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_active_reads_inline_json(self, monkeypatch):
        plan = FaultPlan(faults=(FaultSpec(task_index=0, kind="error"),))
        _plan_env(monkeypatch, plan)
        assert FaultPlan.active() == plan

    def test_active_reads_plan_file(self, monkeypatch, tmp_path):
        plan = FaultPlan(faults=(FaultSpec(task_index=2, kind="crash"),), seed=5)
        path = plan.save(tmp_path / "plan.json")
        monkeypatch.setenv(FAULT_PLAN_ENV, str(path))
        assert FaultPlan.active() == plan

    def test_active_none_without_env(self):
        assert FaultPlan.active() is None

    def test_active_raises_on_malformed_value(self, monkeypatch):
        # A chaos run that silently falls back to clean execution would make
        # the differential gate a false pass; malformed plans must be loud.
        monkeypatch.setenv(FAULT_PLAN_ENV, "{not json")
        with pytest.raises(ValueError):
            FaultPlan.active()
        monkeypatch.setenv(FAULT_PLAN_ENV, "/nonexistent/plan.json")
        with pytest.raises(ValueError):
            FaultPlan.active()

    def test_generate_is_deterministic(self):
        a = FaultPlan.generate(seed=7, num_tasks=10, crashes=2, hangs=1, corrupts=1)
        b = FaultPlan.generate(seed=7, num_tasks=10, crashes=2, hangs=1, corrupts=1)
        assert a == b
        assert a.plan_key() == b.plan_key()
        kinds = sorted(f.kind for f in a.faults)
        assert kinds == ["corrupt", "crash", "crash", "hang"]
        indexes = [f.task_index for f in a.faults]
        assert len(set(indexes)) == len(indexes)  # sampled without replacement
        assert all(0 <= i < 10 for i in indexes)

    def test_plan_key_is_content_addressed(self):
        a = FaultPlan(faults=(FaultSpec(task_index=0, kind="crash"),))
        b = FaultPlan(faults=(FaultSpec(task_index=1, kind="crash"),))
        assert a.plan_key().startswith("faultplan-")
        assert a.plan_key() != b.plan_key()

    def test_duplicate_slot_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan(
                faults=(
                    FaultSpec(task_index=0, kind="crash"),
                    FaultSpec(task_index=0, kind="hang"),
                )
            )

    def test_fault_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(task_index=0, kind="meteor")
        with pytest.raises(ValueError):
            FaultSpec(task_index=-1, kind="crash")
        with pytest.raises(ValueError):
            FaultSpec(task_index=0, kind="crash", attempt=0)

    def test_lookup(self):
        spec = FaultSpec(task_index=4, kind="corrupt", attempt=2)
        plan = FaultPlan(faults=(spec,))
        assert plan.lookup(4, 2) == spec
        assert plan.lookup(4, 1) is None
        assert plan.lookup(3, 2) is None


class TestPolicyAndHelpers:
    def test_backoff_is_deterministic_exponential(self):
        policy = SupervisionPolicy(backoff=0.25)
        assert [policy.backoff_delay(n) for n in (1, 2, 3, 4)] == [
            0.25,
            0.5,
            1.0,
            2.0,
        ]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(retries=-1)
        with pytest.raises(ValueError):
            SupervisionPolicy(deadline=0)
        with pytest.raises(ValueError):
            SupervisionPolicy(on_failure="shrug")

    def test_corrupt_payload_flips_one_byte(self):
        data = pickle.dumps({"x": 1})
        mangled = corrupt_payload(data)
        assert mangled != data and len(mangled) == len(data)
        assert corrupt_payload(b"") == b"\xff"

    def test_manifest_round_trip_and_truthiness(self, tmp_path):
        manifest = FailureManifest()
        assert not manifest
        manifest.note_retry()
        assert manifest and manifest.retries == 1 and manifest.quarantined == 0
        manifest.add(
            TaskFailureRecord(index=2, label="x/y", attempts=3, reason="worker-died")
        )
        path = manifest.save(tmp_path / "manifest.json")
        restored = FailureManifest.from_payload(
            __import__("json").loads(path.read_text())
        )
        assert restored.retries == 1
        assert restored.records[0].label == "x/y"


class TestSupervisedParallelMap:
    def test_no_faults_matches_plain_map(self):
        tasks = list(range(6))
        manifest = FailureManifest()
        assert parallel_map(
            _square, tasks, jobs=2, policy=FAST, manifest=manifest
        ) == [t * t for t in tasks]
        assert not manifest

    def test_crash_is_retried(self, monkeypatch):
        _plan_env(monkeypatch, FaultPlan(faults=(FaultSpec(task_index=1, kind="crash"),)))
        manifest = FailureManifest()
        assert parallel_map(
            _square, [1, 2, 3], jobs=2, policy=FAST, manifest=manifest
        ) == [1, 4, 9]
        assert manifest.retries == 1 and manifest.quarantined == 0

    def test_hang_is_killed_and_retried(self, monkeypatch):
        _plan_env(
            monkeypatch,
            FaultPlan(faults=(FaultSpec(task_index=0, kind="hang", seconds=60.0),)),
        )
        policy = SupervisionPolicy(deadline=0.5, retries=2, backoff=0.01)
        manifest = FailureManifest()
        started = time.monotonic()
        assert parallel_map(
            _square, [5, 6], jobs=2, policy=policy, manifest=manifest
        ) == [25, 36]
        assert time.monotonic() - started < 30  # killed, not slept out
        assert manifest.retries >= 1

    def test_corrupt_result_is_detected_and_retried(self, monkeypatch):
        _plan_env(
            monkeypatch, FaultPlan(faults=(FaultSpec(task_index=2, kind="corrupt"),))
        )
        manifest = FailureManifest()
        assert parallel_map(
            _square, [1, 2, 3, 4], jobs=2, policy=FAST, manifest=manifest
        ) == [1, 4, 9, 16]
        assert manifest.retries == 1

    def test_error_fault_is_retried(self, monkeypatch):
        _plan_env(monkeypatch, FaultPlan(faults=(FaultSpec(task_index=0, kind="error"),)))
        manifest = FailureManifest()
        assert parallel_map(
            _square, [7], jobs=2, policy=FAST, manifest=manifest
        ) == [49]
        assert manifest.retries == 1

    def test_fault_plan_alone_engages_supervision(self, monkeypatch):
        # No explicit policy: an active plan must arm the default policy, or
        # chaos runs would crash instead of recovering.
        _plan_env(monkeypatch, FaultPlan(faults=(FaultSpec(task_index=1, kind="crash"),)))
        manifest = FailureManifest()
        assert parallel_map(_square, [1, 2], jobs=2, manifest=manifest) == [1, 4]
        assert manifest.retries == 1

    def _terminal_plan(self, policy, task_index=0, kind="crash"):
        return FaultPlan(
            faults=tuple(
                FaultSpec(task_index=task_index, kind=kind, attempt=a)
                for a in range(1, policy.retries + 2)
            )
        )

    def test_terminal_failure_raises_by_default(self, monkeypatch):
        policy = SupervisionPolicy(deadline=20.0, retries=1, backoff=0.01)
        _plan_env(monkeypatch, self._terminal_plan(policy))
        with pytest.raises(TaskFailedError) as err:
            parallel_map(_square, [1, 2], jobs=2, policy=policy)
        assert err.value.record.reason == "worker-died"
        assert err.value.record.attempts == 2

    def test_terminal_failure_degrades_to_sentinel(self, monkeypatch):
        policy = SupervisionPolicy(
            deadline=20.0, retries=1, backoff=0.01, on_failure="degrade"
        )
        _plan_env(monkeypatch, self._terminal_plan(policy))
        manifest = FailureManifest()
        results = parallel_map(
            _square, [1, 2, 3], jobs=2, policy=policy, manifest=manifest
        )
        assert isinstance(results[0], TaskFailure)
        assert results[1:] == [4, 9]
        assert manifest.quarantined == 1
        record = manifest.records[0]
        assert record.index == 0 and record.reason == "worker-died"

    def test_inline_supervision_retries_error_faults(self, monkeypatch):
        # jobs=1 runs in-process: crash/hang cannot be injected there, but
        # error faults and real exceptions still get the retry loop.
        _plan_env(monkeypatch, FaultPlan(faults=(FaultSpec(task_index=0, kind="error"),)))
        manifest = FailureManifest()
        assert parallel_map(
            _square, [3, 4], jobs=1, policy=FAST, manifest=manifest
        ) == [9, 16]
        assert manifest.retries == 1


class TestInlinePathsMergeIdentically:
    """Single task or jobs=1 short-circuits the pool; results must merge
    exactly like the pooled path's."""

    def test_single_task_matches_pooled(self):
        assert parallel_map(_square, [9], jobs=8) == [81]
        assert parallel_map(_square, [9], jobs=8) == parallel_map(
            _square, [9], jobs=1
        )

    def test_jobs_one_matches_pooled(self):
        tasks = list(range(5))
        assert parallel_map(_square, tasks, jobs=1) == parallel_map(
            _square, tasks, jobs=2
        )

    def test_single_chain_pipelined_matches_serial(self):
        assert pipelined_map(_chain_step, [[1, 2, 3]], jobs=4) == [6]
        assert pipelined_map(_chain_step, [[1, 2, 3]], jobs=1) == [6]


def _failing_chain_step(task, carry):
    if task == "A2":
        raise ValueError("step A2 always fails")
    return (carry or "") + str(task)


class TestPipelinedSupervision:
    def test_crash_mid_chain_is_retried(self, monkeypatch):
        # Task index 0 is chain 0's first step (submission order), so the
        # fault lands deterministically even with concurrent chains.
        _plan_env(monkeypatch, FaultPlan(faults=(FaultSpec(task_index=0, kind="crash"),)))
        manifest = FailureManifest()
        assert pipelined_map(
            _chain_step, [[1, 2], [10, 20]], jobs=2, policy=FAST, manifest=manifest
        ) == [3, 30]
        assert manifest.retries == 1

    @pytest.mark.parametrize("kind", ("corrupt", "crash"))
    def test_a_forwarded_carry_is_checked_and_retried(self, monkeypatch, kind):
        # Slot 1 is the middle step of the opaque chain: its result goes on
        # to step 2 unread by the parent, so only the checksum guards it.
        _plan_env(monkeypatch, FaultPlan(faults=(FaultSpec(task_index=1, kind=kind),)))
        manifest = FailureManifest()
        assert pipelined_map(
            _chain_step, [[1, 2, 3], [10]], jobs=2, policy=FAST, manifest=manifest, opaque=(0,)
        ) == [6, 10]
        assert manifest.retries == 1

    def test_failed_chain_does_not_block_siblings(self):
        # Chain A dies terminally at step 2; B and C must still complete and
        # land in the merged results (the degrade contract).
        policy = SupervisionPolicy(
            deadline=20.0, retries=1, backoff=0.01, on_failure="degrade"
        )
        manifest = FailureManifest()
        chains = [["A1", "A2", "A3"], ["B1", "B2"], ["C1"]]
        results = pipelined_map(
            _failing_chain_step, chains, jobs=2, policy=policy, manifest=manifest
        )
        assert isinstance(results[0], TaskFailure)
        assert results[1] == "B1B2"
        assert results[2] == "C1"
        assert manifest.quarantined == 1
        assert manifest.records[0].reason == "exception"
        assert manifest.retries == 1  # the one retry A2 got before quarantine

    def test_failed_chain_raises_in_raise_mode(self):
        policy = SupervisionPolicy(deadline=20.0, retries=0, backoff=0.01)
        with pytest.raises(TaskFailedError):
            pipelined_map(
                _failing_chain_step,
                [["A1", "A2", "A3"], ["B1", "B2"]],
                jobs=2,
                policy=policy,
            )


_SIGINT_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys, time

    def work(i):
        marker = os.path.join(sys.argv[1], f"pid-{os.getpid()}-{i}")
        with open(marker, "w"):
            pass
        time.sleep(float(sys.argv[2]))

    if __name__ == "__main__":
        from repro.sim.parallel import parallel_map
        # A shell that ignores SIGINT (a detached or background one) passes
        # that on, and Python then installs no KeyboardInterrupt handler:
        # restore it, so ^C reaches the map as it does from a terminal.
        signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            parallel_map(work, [0, 1], jobs=2)
        except KeyboardInterrupt:
            print("INTERRUPTED", flush=True)
            sys.exit(42)
    """
)


class TestKeyboardInterruptCleanup:
    @staticmethod
    def _start(tmp_path, seconds):
        """Run the interruptee until both its workers have started (each
        sleeps ``seconds`` in its task); returns the process and their pids."""
        script = tmp_path / "interruptee.py"
        script.write_text(_SIGINT_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), str(_SRC_DIR)) if p
        )
        proc = subprocess.Popen(
            [sys.executable, str(script), str(tmp_path), str(seconds)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        deadline = time.monotonic() + 60
        pids = []
        while time.monotonic() < deadline:
            pids = [
                int(name.split("-")[1])
                for name in os.listdir(tmp_path)
                if name.startswith("pid-")
            ]
            if len(pids) >= 2:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        return proc, pids

    @staticmethod
    def _assert_workers_exit(pids, why):
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            if not any(_alive(pid) for pid in pids):
                return
            time.sleep(0.05)
        leftover = [pid for pid in pids if _alive(pid)]
        for pid in leftover:  # do not leak them into the rest of the suite
            os.kill(pid, signal.SIGKILL)
        pytest.fail(f"orphaned workers survived {why}: {leftover}")

    def test_sigint_terminates_workers(self, tmp_path):
        """^C mid-map must kill the pool's workers, not strand them."""
        proc, pids = self._start(tmp_path, 120)
        try:
            assert len(pids) >= 2, "workers never started"
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 42, stderr
        assert "INTERRUPTED" in stdout
        self._assert_workers_exit(pids, "SIGINT")

    def test_killed_parent_leaves_no_workers(self, tmp_path):
        """A kill -9 of the run gives no chance to clean up; the workers
        must still exit once their task ends, on the broken pipe."""
        proc, pids = self._start(tmp_path, 1)
        # wait(), not communicate(): orphaned workers would hold the
        # output pipes open and turn a failure into a hang.
        proc.kill()
        proc.wait(timeout=60)
        proc.stdout.close()
        proc.stderr.close()
        assert len(pids) >= 2, "workers never started"
        self._assert_workers_exit(pids, "a killed parent")


_SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)


def _alive(pid):
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True
