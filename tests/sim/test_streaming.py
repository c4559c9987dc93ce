"""Tests for streamed trace ingestion.

The streamed path -- bounded-memory capture windows, windowed distillation
into ``events-slice`` store entries, shard tasks replaying from slice store
keys -- is an *execution strategy*, never a model change: for every
registered mode, at every shard width, under every window size, it must be
bit-identical to the captured serial engine (pinned by the strategy property
in ``test_strategy_property.py``) and share its persistent store entries.
These tests pin the slices themselves, their keys and store handling, and
the CLI surface, in the same no-tolerance ``SimulationResult.to_dict()``
discipline.
"""

import dataclasses
import sqlite3

import pytest

import repro.sim  # noqa: F401  -- registers the variant modes
from repro.core.config import KIB, CacheConfig, SystemConfig
from repro.sim.distill import (
    HierarchyDistiller,
    MissEventStream,
    events_key,
    events_slice_key,
    load_slice,
    slice_bounds,
    stream_event_slices,
)
from repro.sim.engine import SimulationEngine
from repro.sim.shard import ShardSpec, run_shard_step, shard_chain
from repro.sim.store import ResultStore, default_store
from repro.workloads.registry import get_workload

SMALL_CONFIG = dataclasses.replace(
    SystemConfig(),
    l1_config=CacheConfig("L1", 8 * KIB, 4, latency_cycles=4),
    l2_config=CacheConfig("L2", 64 * KIB, 8, latency_cycles=14),
    l3_config=CacheConfig("L3", 256 * KIB, 8, latency_cycles=49),
    mac_cache_bytes=64 * KIB,
)

TRACE_LEN = 260


class TestStreamedExecutionIsBitIdentical:
    def test_chain_checkpoints_round_trip(self):
        """Driving a windowed chain step by step (the pool's view) matches."""
        chain = shard_chain(
            "memcached", "Toleo", ShardSpec(7), 0.002, TRACE_LEN, 7, SMALL_CONFIG, window=64
        )
        carry = None
        for task in chain[:-1]:
            carry = run_shard_step(task, carry)
            assert isinstance(carry, bytes)
        final = run_shard_step(chain[-1], carry)
        serial = SimulationEngine.from_mode(
            "Toleo", config=SMALL_CONFIG, seed=7
        ).run(
            get_workload("memcached", scale=0.002, seed=7).capture(TRACE_LEN),
            num_accesses=TRACE_LEN,
        )
        assert final.to_dict() == serial.to_dict()


class TestEventSlices:
    def test_slices_telescope_to_one_shot_distillation(self, fresh_default_store):
        """concat(stored slices) == the PR 5 full-run stream, bit for bit."""
        keys = stream_event_slices("memcached", 0.002, 7, TRACE_LEN, 64, SMALL_CONFIG)
        slices = [
            fresh_default_store.get(key, decoder=MissEventStream.from_payload) for key in keys
        ]
        assert all(s is not None for s in slices)
        merged = MissEventStream.concat(slices)
        trace = get_workload("memcached", scale=0.002, seed=7).capture(TRACE_LEN)
        one_shot = HierarchyDistiller(SMALL_CONFIG).distill(trace, TRACE_LEN)
        assert merged.to_payload() == one_shot.to_payload()

    def test_warm_store_skips_regeneration(self, monkeypatch, fresh_default_store):
        stream_event_slices("memcached", 0.002, 7, TRACE_LEN, 64, SMALL_CONFIG)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("warm slices must not re-stream the workload")

        monkeypatch.setattr(
            "repro.workloads.registry.get_workload", boom
        )
        keys = stream_event_slices("memcached", 0.002, 7, TRACE_LEN, 64, SMALL_CONFIG)
        assert len(keys) == len(slice_bounds(TRACE_LEN, 64))

    def test_slice_key_adds_window_axis_to_events_identity(self):
        base = events_slice_key("bsw", 0.002, 7, 2000, 500, 0, SMALL_CONFIG)
        assert base.startswith("events-slice-")
        assert base != events_slice_key("bsw", 0.002, 7, 2000, 500, 1, SMALL_CONFIG)
        assert base != events_slice_key("bsw", 0.002, 7, 2000, 250, 0, SMALL_CONFIG)
        assert base != events_slice_key("bsw", 0.002, 7, 2000, 500, 0, None)
        # Same identity axes as the full-run stream key, so geometry-only
        # config changes share slices exactly as they share event streams.
        assert events_key("bsw", 0.002, 7, 2000, SMALL_CONFIG) == events_key(
            "bsw",
            0.002,
            7,
            2000,
            dataclasses.replace(SMALL_CONFIG, local_dram_latency_ns=999.0),
        )
        assert base == events_slice_key(
            "bsw",
            0.002,
            7,
            2000,
            500,
            0,
            dataclasses.replace(SMALL_CONFIG, local_dram_latency_ns=999.0),
        )

    def test_missing_slice_self_heals(self):
        """A worker with a cold or gc'd store regenerates the slices."""
        store = default_store()
        keys = stream_event_slices("memcached", 0.002, 7, TRACE_LEN, 64, SMALL_CONFIG)
        for key in keys:
            store.invalidate(key)
        chain = shard_chain(
            "memcached", "CI", ShardSpec(TRACE_LEN), 0.002, TRACE_LEN, 7, SMALL_CONFIG, window=64
        )
        result = run_shard_step(chain[0], None)
        assert result.llc_misses > 0
        assert all(key in store for key in keys)

    def test_a_window_covering_the_run_keys_the_events_entry(self):
        full = events_key("bsw", 0.002, 7, 2000, SMALL_CONFIG)
        assert events_slice_key("bsw", 0.002, 7, 2000, 2000, 0, SMALL_CONFIG) == full
        assert events_slice_key("bsw", 0.002, 7, 2000, 5000, 0, SMALL_CONFIG) == full
        assert events_slice_key("bsw", 0.002, 7, 2000, 1999, 0, SMALL_CONFIG) != full

    def test_only_a_one_window_slice_enters_the_memory_layer(self, fresh_default_store):
        # Ingestion keeps no slice in memory; a reader promotes a one-window
        # run's slice, never a narrower one.
        run = ("memcached", 0.002, 7, TRACE_LEN)
        stream_event_slices(*run, 64, SMALL_CONFIG)
        load_slice(*run, 64, 1, SMALL_CONFIG)
        assert fresh_default_store._memory == {}
        (whole,) = stream_event_slices(*run, TRACE_LEN, SMALL_CONFIG)
        assert fresh_default_store._memory == {}
        load_slice(*run, TRACE_LEN, 0, SMALL_CONFIG)
        assert set(fresh_default_store._memory) == {whole}

    @pytest.mark.parametrize("damage", ("inline-payload", "truncated-blob"))
    def test_undecodable_slice_is_regenerated(self, damage, monkeypatch, fresh_default_store):
        """A slice the store cannot decode is a miss like any other, even
        though its row still counts as present."""
        from repro.sim import store as store_module

        if damage == "truncated-blob":
            monkeypatch.setattr(store_module, "INLINE_LIMIT", 0)
        store = fresh_default_store
        keys = stream_event_slices("memcached", 0.002, 7, TRACE_LEN, 64, SMALL_CONFIG)
        if damage == "inline-payload":
            # Cut the slice's inline BLOB to half its bytes.
            with sqlite3.connect(store.db_path) as conn:
                conn.execute(
                    "UPDATE entries SET payload = substr(payload, 1, length(payload) / 2)"
                    " WHERE key = ?",
                    (keys[1],),
                )
        else:
            (blob,) = store.query(prefix=keys[1])
            assert not blob.inline
            for path in store.blob_dir.glob("*.bin"):
                path.write_bytes(path.read_bytes()[:100])
        assert keys[1] in store
        assert store.get(keys[1], decoder=MissEventStream.from_payload) is None
        chain = shard_chain(
            "memcached", "CI", ShardSpec(TRACE_LEN), 0.002, TRACE_LEN, 7, SMALL_CONFIG,
            window=64,
        )
        result = run_shard_step(chain[0], None)
        assert store.get(keys[1], decoder=MissEventStream.from_payload) is not None
        serial = SimulationEngine.from_mode("CI", config=SMALL_CONFIG, seed=7).run(
            get_workload("memcached", scale=0.002, seed=7).capture(TRACE_LEN),
            num_accesses=TRACE_LEN,
        )
        assert result.to_dict() == serial.to_dict()

    def test_slice_entries_keep_their_own_kind_namespace(self):
        # `repro store ls --kind events-slice` must filter slices, and
        # `--kind events` must NOT include them: only the trailing digest is
        # stripped when deriving an entry's kind.
        from repro.sim.store import _kind_of

        digest = "ab" * 32
        assert _kind_of(f"events-slice-{digest}") == "events-slice"
        assert _kind_of(f"events-{digest}") == "events"
        assert _kind_of(f"suite-{digest}") == "suite"

    def test_memory_opt_out_without_encoder_is_rejected(self):
        # keep_in_memory=False drops the value from the memory layer, so
        # without an encoder the entry would be silently lost entirely.
        store = ResultStore(root=None)
        with pytest.raises(ValueError, match="requires an encoder"):
            store.put("events-slice-test", {"x": 1}, keep_in_memory=False)

    def test_get_with_promote_false_leaves_memory_alone(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(
            "events-slice-demo",
            b"demo",
            encoder=lambda value: value,
            keep_in_memory=False,
        )
        assert "events-slice-demo" not in store._memory
        fetched = store.get("events-slice-demo", decoder=bytes.decode, promote=False)
        assert fetched == "demo"
        assert "events-slice-demo" not in store._memory
        promoted = store.get("events-slice-demo", decoder=bytes.decode)
        assert promoted == "demo"
        assert "events-slice-demo" in store._memory


class TestStreamedStoreKeySemantics:
    """Streamed and captured runs share ``suite_key`` store entries."""

    ARGS = (("bsw",), ("CI",), 0.002, 2000, 1234, None, None)

    def test_streamed_served_from_captured_entry_and_back(self):
        from repro.experiments.harness import run_benchmarks

        names, modes, scale, accesses, seed = self.ARGS[:5]
        captured = run_benchmarks(
            names, modes=modes, scale=scale, num_accesses=accesses, seed=seed
        )
        streamed = run_benchmarks(
            names,
            modes=modes,
            scale=scale,
            num_accesses=accesses,
            seed=seed,
            stream=500,
        )
        # Same content key -> the store's memory layer preserves identity.
        assert streamed is captured

    def test_cold_streamed_entry_serves_captured_run(self):
        from repro.experiments.harness import run_benchmarks

        streamed = run_benchmarks(
            ("pr",), modes=("CI",), scale=0.002, num_accesses=1700, seed=77, stream=400
        )
        captured = run_benchmarks(
            ("pr",), modes=("CI",), scale=0.002, num_accesses=1700, seed=77
        )
        assert captured is streamed


class TestStreamValidation:
    def test_chain_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window must be positive"):
            shard_chain("bsw", "CI", ShardSpec(100), 0.002, 200, 7, window=0)

    def test_harness_rejects_bad_stream(self):
        from repro.experiments.harness import run_benchmarks

        with pytest.raises(ValueError, match="stream window must be positive"):
            run_benchmarks(("bsw",), modes=("CI",), num_accesses=200, stream=-1)

    def test_slice_bounds_validation(self):
        assert slice_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]
        with pytest.raises(ValueError):
            slice_bounds(0, 4)
        with pytest.raises(ValueError):
            slice_bounds(10, 0)


class TestCliStreamFlag:
    def test_bench_reports_streaming_state(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "bench",
                    "--benchmarks",
                    "bsw",
                    "--modes",
                    "CI",
                    "--accesses",
                    "1200",
                    "--no-cache",
                    "--stream",
                    "400",
                ]
            )
            == 0
        )
        assert "stream 400 (windowed event slices)" in capsys.readouterr().out

    def test_a_stream_covering_the_run_writes_no_slices(self, capsys, fresh_default_store):
        from repro.cli import main

        args = ["bench", "--benchmarks", "bsw", "--modes", "CI", "--accesses", "1200"]
        assert main([*args, "--no-cache", "--stream", "1200"]) == 0
        assert "stream 1200 (one window)" in capsys.readouterr().out
        assert fresh_default_store.query(kind="events-slice") == []
        assert [entry.key for entry in fresh_default_store.query(kind="events")] == [
            events_key("bsw", 0.002, 1234, 1200)
        ]

    def test_stream_flag_misuse_is_a_usage_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--stream", "0"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["fig6", "--stream", "100"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_sweep_accepts_stream(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "sweep",
                    "--param",
                    "seed=5,6",
                    "--benchmarks",
                    "bsw",
                    "--modes",
                    "CI",
                    "--accesses",
                    "900",
                    "--no-cache",
                    "--stream",
                    "300",
                ]
            )
            == 0
        )
        assert "2 grid points" in capsys.readouterr().out
