"""Checkpoint-resume: an interrupted sharded run continues bit-identically.

The exact sharded path hands a serialized engine state from shard to shard;
PR 10 persists that carry as a content-keyed ``checkpoint-*`` store entry as
each shard completes.  These tests pin the whole contract: a completed run
leaves no checkpoint residue, an aborted run leaves resumable checkpoints,
and a resumed run produces byte-for-byte the suite an uninterrupted run
would.  That a run with injected faults and retries is indistinguishable
from a clean serial one is part of the strategy property in
``test_strategy_property.py``.
"""

import pytest

from repro.experiments.harness import run_benchmarks
from repro.sim import store as store_module
from repro.sim.engine import run_suite
from repro.sim.faults import (
    FAULT_PLAN_ENV,
    FailureManifest,
    FaultPlan,
    FaultSpec,
    SupervisionPolicy,
    TaskFailedError,
    TaskFailureRecord,
)

BENCH = ("memcached",)
ACCESSES = 4000
SHARD = 800  # 5 shards per (benchmark, mode) chain


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


@pytest.fixture
def fresh_store(tmp_path):
    """An isolated default store, so checkpoint assertions see only this
    test's entries (forked workers inherit the object)."""
    previous = store_module._DEFAULT_STORE
    store = store_module.ResultStore(root=tmp_path / "cache")
    store_module.set_default_store(store)
    yield store
    store_module.set_default_store(previous)


@pytest.fixture(autouse=True)
def _no_ambient_plan(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)


def _checkpoints(store):
    return store.query(kind="checkpoint")


def _terminal_crash(task_index, retries):
    """Crash ``task_index`` on every attempt its retry budget allows."""
    return FaultPlan(
        faults=tuple(
            FaultSpec(task_index=task_index, kind="crash", attempt=a)
            for a in range(1, retries + 2)
        )
    )


def _sharded(**overrides):
    kwargs = dict(shard_size=SHARD, num_accesses=ACCESSES, jobs=2, use_cache=False)
    kwargs.update(overrides)
    return run_benchmarks(BENCH, **kwargs)


class TestCheckpointLifecycle:
    def test_completed_run_leaves_no_checkpoints(self, fresh_store):
        suite = _sharded()
        serial = run_suite(BENCH, num_accesses=ACCESSES)
        assert _flatten(suite) == _flatten(serial)
        assert _checkpoints(fresh_store) == []

    def test_aborted_run_resumes_bit_identically(self, fresh_store, monkeypatch):
        # Kill the run mid-flight: task index 10 (of 20) crashes terminally
        # under a zero-retry policy, so earlier shards' checkpoints survive.
        policy = SupervisionPolicy(deadline=30.0, retries=0, backoff=0.01)
        monkeypatch.setenv(FAULT_PLAN_ENV, _terminal_crash(10, 0).to_json())
        with pytest.raises(TaskFailedError):
            _sharded(policy=policy)
        persisted = _checkpoints(fresh_store)
        assert persisted, "aborted run should leave resumable checkpoints"

        monkeypatch.delenv(FAULT_PLAN_ENV)
        resumed = _sharded()
        assert _flatten(resumed) == _flatten(run_suite(BENCH, num_accesses=ACCESSES))
        assert _checkpoints(fresh_store) == []

    def test_no_resume_ignores_stale_checkpoints(self, fresh_store, monkeypatch):
        policy = SupervisionPolicy(deadline=30.0, retries=0, backoff=0.01)
        monkeypatch.setenv(FAULT_PLAN_ENV, _terminal_crash(10, 0).to_json())
        with pytest.raises(TaskFailedError):
            _sharded(policy=policy)
        assert _checkpoints(fresh_store)

        monkeypatch.delenv(FAULT_PLAN_ENV)
        cold = _sharded(resume=False)
        assert _flatten(cold) == _flatten(run_suite(BENCH, num_accesses=ACCESSES))

    def test_quarantined_chain_keeps_checkpoint_for_next_attempt(
        self, fresh_store, monkeypatch
    ):
        # Degrade mode: the dead chain's last good shard stays persisted, so
        # the healing rerun resumes it instead of replaying the prefix.
        policy = SupervisionPolicy(
            deadline=30.0, retries=0, backoff=0.01, on_failure="degrade"
        )
        monkeypatch.setenv(FAULT_PLAN_ENV, _terminal_crash(10, 0).to_json())
        manifest = FailureManifest()
        _sharded(policy=policy, manifest=manifest)
        assert manifest.quarantined == 1
        assert _checkpoints(fresh_store), "quarantined chain lost its checkpoint"

        monkeypatch.delenv(FAULT_PLAN_ENV)
        healed = _sharded()
        assert _flatten(healed) == _flatten(run_suite(BENCH, num_accesses=ACCESSES))
        assert _checkpoints(fresh_store) == []


class TestDegradedSuitesAreNotCached:
    def test_harness_skips_suite_cache_for_degraded_run(
        self, fresh_store, monkeypatch
    ):
        # Slot 0 is the first benchmark's ingest task; killing it ends every
        # chain waiting on its event slices, so degrade mode drops the whole
        # benchmark.  The partial suite must not be stored under the full
        # suite key, or later clean runs would be served the hole forever.
        policy = SupervisionPolicy(
            deadline=30.0, retries=0, backoff=0.01, on_failure="degrade"
        )
        monkeypatch.setenv(FAULT_PLAN_ENV, _terminal_crash(0, 0).to_json())
        degraded = run_benchmarks(
            BENCH, num_accesses=ACCESSES, jobs=2, policy=policy, store=fresh_store
        )
        assert degraded == {}

        monkeypatch.delenv(FAULT_PLAN_ENV)
        clean = run_benchmarks(
            BENCH, num_accesses=ACCESSES, jobs=2, store=fresh_store
        )
        assert _flatten(clean) == _flatten(run_suite(BENCH, num_accesses=ACCESSES))

    def test_a_clean_run_is_cached_after_earlier_quarantines(self, fresh_store):
        # A caller collecting several runs' failures in one manifest: a
        # quarantine an earlier run recorded does not make this clean run
        # degraded, so its suite is stored.
        manifest = FailureManifest()
        manifest.add(
            TaskFailureRecord(index=0, label="bsw/CI", attempts=1, reason="exception")
        )
        run_benchmarks(
            ("bsw",), modes=("CI",), num_accesses=1000, jobs=1, store=fresh_store,
            manifest=manifest,
        )
        assert len(fresh_store.query(kind="suite")) == 1
