"""Tests for sharded trace execution (`repro.sim.shard`).

The design center of the sharding subsystem is *exactness*: the
checkpoint-handoff discipline must be bit-identical to the serial engine for
every registered mode at any shard width.  The strategy property in
``test_strategy_property.py`` pins that across the whole strategy space;
these tests pin the pieces it is built from -- the shard-step worker
contract, checkpoint keys and the journal, shard planning and the store and
CLI surface -- comparing results through ``SimulationResult.to_dict()``,
floats included, no tolerance.
"""

import pytest

from repro.experiments.harness import run_benchmarks
from repro.sim import distill
from repro.sim.engine import EngineState, SimulationEngine, run_suite
from repro.sim.shard import (
    RunPlan,
    ShardSpec,
    _CheckpointJournal,
    checkpoint_key,
    run_shard_step,
    shard_bounds,
    shard_chain,
)
from repro.sim.store import ResultStore, default_store
from repro.workloads.registry import get_workload

TRACE_LEN = 260


@pytest.fixture(scope="module")
def trace():
    return get_workload("memcached", scale=0.002, seed=7).capture(TRACE_LEN)


class TestSuiteShardedExecution:
    """Suite-level sharding through the real pipelined pool."""

    NAMES = ("bsw", "memcached")
    MODES = ("CI", "Toleo", "CIF-Tree")

    @pytest.fixture(scope="class")
    def serial_suite(self):
        return run_suite(self.NAMES, modes=self.MODES, num_accesses=2000)

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_bit_identical_across_worker_counts(self, jobs, serial_suite):
        checkpoints_before = default_store().query(kind="checkpoint")
        sharded = run_benchmarks(
            self.NAMES, modes=self.MODES, num_accesses=2000, jobs=jobs, shard_size=600,
            use_cache=False,
        )
        assert {
            bench: {mode: result.to_dict() for mode, result in per_mode.items()}
            for bench, per_mode in sharded.items()
        } == {
            bench: {mode: result.to_dict() for mode, result in per_mode.items()}
            for bench, per_mode in serial_suite.items()
        }
        # A completed run spends every checkpoint it wrote.
        assert default_store().query(kind="checkpoint") == checkpoints_before


class TestCheckpointHandoff:
    """The shard-step worker contract the pipelined scheduler relies on."""

    def test_chain_replays_through_serialized_checkpoints(self, trace):
        chain = shard_chain("memcached", "CI", ShardSpec(90), 0.002, TRACE_LEN, 7)
        carry = None
        for task in chain[:-1]:
            carry = run_shard_step(task, carry)
            assert isinstance(carry, bytes)
        final = run_shard_step(chain[-1], carry)
        serial = SimulationEngine.from_mode("CI", seed=7).run(
            get_workload("memcached", scale=0.002, seed=7).capture(TRACE_LEN),
            num_accesses=TRACE_LEN,
        )
        assert final.to_dict() == serial.to_dict()

    def test_default_config_matches_serial(self):
        # One mode at the real (Table 3) geometry, so the strategy
        # property's small caches cannot mask a geometry-dependent divergence.
        chain = shard_chain("bsw", "Toleo", ShardSpec(700), 0.002, 2000, 3)
        assert len(chain) == 3
        carry = None
        for task in chain:
            carry = run_shard_step(task, carry)
        trace = get_workload("bsw", scale=0.002, seed=3).capture(2000)
        serial = SimulationEngine.from_mode("Toleo", seed=3).run(trace, num_accesses=2000)
        assert carry.to_dict() == serial.to_dict()

    def test_misaligned_checkpoint_rejected(self, trace):
        chain = shard_chain("memcached", "CI", ShardSpec(90), 0.002, TRACE_LEN, 7)
        stale = run_shard_step(chain[0], None)
        with pytest.raises(ValueError, match="resumes at access"):
            run_shard_step(chain[2], stale)  # skipped a shard

    def test_checkpoint_blob_must_hold_engine_state(self):
        import pickle

        with pytest.raises(TypeError, match="EngineState"):
            EngineState.deserialize(pickle.dumps({"not": "a state"}))

    def test_checkpoint_key_separates_every_strategy(self, monkeypatch):
        # One (benchmark, mode, stop), three replay loops: captured with
        # numpy (batch), captured without it (scalar) and streamed.  A
        # checkpoint written by one must never seed a chain replaying with
        # another (a vectorized checkpoint leaves component caches untouched).
        spec = ShardSpec(90)
        captured = shard_chain("bsw", "CI", spec, 0.002, TRACE_LEN, 7)[0]
        streamed = shard_chain("bsw", "CI", spec, 0.002, TRACE_LEN, 7, window=50)[0]
        assert (captured.name, captured.params, captured.stop) == (
            streamed.name,
            streamed.params,
            streamed.stop,
        )
        keys = set()
        for have_numpy in (True, False):
            monkeypatch.setattr(distill, "HAVE_NUMPY", have_numpy)
            keys.add(checkpoint_key(captured))
        keys.add(checkpoint_key(streamed))
        assert len(keys) == 3

    def test_flipping_numpy_changes_the_captured_key(self, tmp_path, monkeypatch):
        # A checkpoint written where numpy batched the replay must not be
        # resumed by a worker without numpy, whose scalar replay would read
        # the MAC cache the batch kernels never filled.
        store = ResultStore(tmp_path)
        chains = [shard_chain("bsw", "CI", ShardSpec(90), 0.002, TRACE_LEN, 7)]
        monkeypatch.setattr(distill, "HAVE_NUMPY", True)
        vectorized = checkpoint_key(chains[0][0])
        _CheckpointJournal(chains, store).on_carry(0, 0, b"vectorized")
        monkeypatch.setattr(distill, "HAVE_NUMPY", False)
        assert checkpoint_key(chains[0][0]) != vectorized
        assert _CheckpointJournal(chains, store).restore() == (chains, [None])

    def test_checkpoint_key_tracks_stop_and_stream_window(self):
        spec = ShardSpec(90)
        narrow = shard_chain("bsw", "CI", spec, 0.002, TRACE_LEN, 7, window=50)
        wide = shard_chain("bsw", "CI", spec, 0.002, TRACE_LEN, 7, window=60)
        keys = {checkpoint_key(task) for task in narrow + wide}
        assert len(keys) == len(narrow) + len(wide)
        rebuilt = shard_chain("bsw", "CI", spec, 0.002, TRACE_LEN, 7, window=50)
        assert [checkpoint_key(t) for t in rebuilt] == [checkpoint_key(t) for t in narrow]


class _Killed(BaseException):
    """Stands in for a SIGKILL landing inside a store call."""


class TestCheckpointJournal:
    """The parent-side half of resume, driven through its ``on_carry`` hook."""

    @staticmethod
    def _chains():
        spec = ShardSpec(90)  # 3 shards of TRACE_LEN per chain
        return [
            shard_chain("bsw", "CI", spec, 0.002, TRACE_LEN, 7),
            shard_chain("bsw", "Toleo", spec, 0.002, TRACE_LEN, 7),
        ]

    def test_intermediate_carry_is_persisted_and_restored(self, tmp_path):
        store = ResultStore(tmp_path)
        chains = self._chains()
        journal = _CheckpointJournal(chains, store)
        journal.on_carry(0, 0, b"after shard 0")
        journal.on_carry(0, 1, b"after shard 1")
        trimmed, initials = _CheckpointJournal(chains, store).restore()
        assert trimmed == [chains[0][2:], chains[1]]
        assert initials == [b"after shard 1", None]

    def test_only_the_latest_checkpoint_is_kept(self, tmp_path):
        store = ResultStore(tmp_path)
        chains = self._chains()
        journal = _CheckpointJournal(chains, store)
        journal.on_carry(0, 0, b"a")
        journal.on_carry(0, 1, b"b")
        assert checkpoint_key(chains[0][0]) not in store
        assert checkpoint_key(chains[0][1]) in store

    def test_completion_spends_the_checkpoint(self, tmp_path):
        store = ResultStore(tmp_path)
        chains = self._chains()
        journal = _CheckpointJournal(chains, store)
        journal.on_carry(0, 0, b"a")
        journal.on_carry(0, 1, b"b")
        journal.on_carry(0, 2, "the chain's final result")
        assert store.query(kind="checkpoint") == []
        trimmed, initials = _CheckpointJournal(chains, store).restore()
        assert trimmed == chains and initials == [None, None]

    @pytest.mark.parametrize("killed_in", ["put", "invalidate"])
    def test_a_kill_mid_handoff_leaves_at_most_one_checkpoint(
        self, tmp_path, monkeypatch, killed_in
    ):
        # A run killed while the journal swaps a chain's checkpoint must not
        # leave two: the older one would never be resumed from or spent.
        store = ResultStore(tmp_path)
        chains = self._chains()
        journal = _CheckpointJournal(chains, store)
        journal.on_carry(0, 0, b"a")

        def kill(*args, **kwargs):
            raise _Killed

        monkeypatch.setattr(store, killed_in, kill)
        with pytest.raises(_Killed):
            journal.on_carry(0, 1, b"b")
        monkeypatch.undo()
        left = [task for task in chains[0] if checkpoint_key(task) in store]
        assert len(left) <= 1
        trimmed, initials = _CheckpointJournal(chains, store).restore()
        assert (trimmed[0], initials[0]) in ((chains[0], None), (chains[0][1:], b"a"))

    def test_a_checkpoint_another_chain_holds_survives(self, tmp_path):
        # One pair at widths 90 and 180 (a shard_size sweep): both chains
        # checkpoint the same state at access 180, under one key.
        store = ResultStore(tmp_path)
        narrow = shard_chain("bsw", "CI", ShardSpec(90), 0.002, TRACE_LEN, 7)
        wide = shard_chain("bsw", "CI", ShardSpec(180), 0.002, TRACE_LEN, 7)
        shared = checkpoint_key(wide[0])
        assert checkpoint_key(narrow[1]) == shared
        journal = _CheckpointJournal([narrow, wide], store)
        journal.on_carry(1, 0, b"at 180")
        journal.on_carry(0, 0, b"at 90")
        journal.on_carry(0, 1, b"at 180")
        journal.on_carry(0, 2, "the narrow chain's final result")
        assert shared in store
        # Either width resumes from it: the state at 180 is the same.
        trimmed, initials = _CheckpointJournal([narrow, wide], store).restore()
        assert trimmed == [narrow[2:], wide[1:]]
        assert initials == [b"at 180", b"at 180"]
        journal.on_carry(1, 1, "the wide chain's final result")
        assert store.query(kind="checkpoint") == []


class TestShardPlanning:
    def test_bounds_cover_and_partition(self):
        bounds = shard_bounds(10, 3)
        assert bounds == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_oversized_width_is_one_shard(self):
        assert shard_bounds(5, 99) == [(0, 5)]

    @pytest.mark.parametrize("bad", (0, -3))
    def test_nonpositive_width_rejected(self, bad):
        with pytest.raises(ValueError, match="shard_size"):
            shard_bounds(10, bad)
        with pytest.raises(ValueError, match="shard_size"):
            ShardSpec(bad)


class TestStoreKeySemantics:
    """Sharded runs share unsharded cache entries."""

    def test_sharded_bench_served_from_unsharded_cache(self, tmp_path):
        from repro.experiments.harness import run_benchmarks

        store = ResultStore(tmp_path)
        unsharded = run_benchmarks(
            ("bsw",), modes=("CI",), num_accesses=1500, store=store, use_cache=True
        )
        sharded = run_benchmarks(
            ("bsw",),
            modes=("CI",),
            num_accesses=1500,
            store=store,
            use_cache=True,
            shard_size=400,
        )
        # Same key, memory layer preserves identity: no re-simulation happened.
        assert sharded is unsharded


class TestShardSizeSweepAxis:
    def test_shard_size_is_a_run_axis(self):
        from repro.sim.sweep import RUN_AXES, SweepAxis

        assert "shard_size" in RUN_AXES
        SweepAxis("shard_size", (200, 400))  # validates

    def test_nonpositive_axis_value_rejected(self):
        from repro.sim.sweep import SweepAxisError, resolve_point

        with pytest.raises(SweepAxisError, match="positive"):
            resolve_point(
                RunPlan(("bsw",), ("CI",), 0.002, 1000, 1, None, None, None, None),
                (("shard_size", 0),),
            )

    def test_sweep_over_shard_size_is_result_invariant(self, tmp_path):
        from repro.sim.sweep import SweepAxis, run_sweep

        result = run_sweep(
            [SweepAxis("shard_size", (300, 1000))],
            RunPlan(("bsw",), ("CI",), 0.002, 1000, 1234, None, None, None, None),
            store=ResultStore(tmp_path),
            use_cache=False,
        )
        a, b = result.suites
        assert {m: r.to_dict() for m, r in a["bsw"].items()} == {
            m: r.to_dict() for m, r in b["bsw"].items()
        }

    def test_cached_shard_size_sweep_simulates_only_once(self, tmp_path):
        # All widths share one suite key (exact sharding is key-invariant),
        # so with the cache on, the first point's entry must serve every
        # later width instead of re-simulating the identical suite.
        from repro.sim.sweep import SweepAxis, run_sweep

        result = run_sweep(
            [SweepAxis("shard_size", (300, 500, 1000))],
            RunPlan(("bsw",), ("CI",), 0.002, 1000, 1234, None, None, None, None),
            store=ResultStore(tmp_path),
            use_cache=True,
        )
        assert result.simulated_points == 1
        assert result.served_from_store == [False, True, True]

    def test_cli_bench_accepts_shard_flags(self, capsys):
        from repro.cli import main

        code = main(
            [
                "bench",
                "--benchmarks",
                "bsw",
                "--modes",
                "CI",
                "--accesses",
                "1200",
                "--shard-size",
                "400",
                "--no-cache",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "shard 400 (exact checkpoint handoff)" in out
        assert "accesses/s" in out

    @pytest.mark.parametrize(
        "argv, message",
        (
            (["bench", "--shard-size", "0"], "--shard-size must be positive"),
            (["bench", "--shard-size", "-5"], "--shard-size must be positive"),
        ),
    )
    def test_cli_shard_flag_misuse_is_a_usage_error(self, capsys, argv, message):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
