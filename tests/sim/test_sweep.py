"""Tests for the grid-sweep subsystem."""

import pytest

from repro.core.config import SystemConfig
from repro.experiments.harness import run_benchmarks
from repro.sim import shard
from repro.sim.faults import TaskFailure, TaskFailureRecord
from repro.sim.shard import RunPlan
from repro.sim.store import ResultStore
from repro.sim.sweep import (
    SweepAxis,
    SweepAxisError,
    expand_grid,
    parse_axis,
    resolve_point,
    run_sweep,
)

BENCHES = ("bsw",)
MODES = ("CI", "Toleo")
ACCESSES = 3000


def _plan(modes=MODES, num_accesses=ACCESSES, seed=1234, shard_size=None):
    """A base plan over ``BENCHES`` at scale 0.002."""
    return RunPlan(BENCHES, modes, 0.002, num_accesses, seed, None, None, shard_size, None)


def _flatten(result):
    out = []
    for point, suite in result:
        for bench, per_mode in suite.items():
            for mode, r in per_mode.items():
                out.append(
                    (
                        point.label,
                        bench,
                        mode,
                        r.execution_time_ns,
                        r.baseline_time_ns,
                        r.traffic.to_dict(),
                        r.latency.to_dict(),
                    )
                )
    return out


def _losing_the_last_chain(run_chains):
    """Wrap ``run_chains`` so each run's last chain ends in a TaskFailure, as
    a chain quarantined under ``on_failure="degrade"`` does."""

    def run(chains, *args):
        finals = run_chains(chains, *args)
        lost = TaskFailureRecord(
            index=len(chains) - 1, label="bsw/CI", attempts=1, reason="exception"
        )
        return finals[:-1] + [TaskFailure(lost)]

    return run


class TestAxisParsing:
    def test_parse_values_typed(self):
        axis = parse_axis("options.memory_level_parallelism=1,2.5,8")
        assert axis.key == "options.memory_level_parallelism"
        assert axis.values == (1, 2.5, 8)

    def test_run_axes_accepted(self):
        for key in ("scale", "accesses", "seed"):
            assert parse_axis(f"{key}=1,2").key == key

    def test_config_axis_accepted(self):
        assert parse_axis("config.aes_latency_cycles=40,400").values == (40, 400)

    def test_unknown_axis_rejected(self):
        with pytest.raises(SweepAxisError, match="unknown sweep axis"):
            parse_axis("bogus=1,2")

    def test_unknown_dataclass_field_rejected(self):
        with pytest.raises(SweepAxisError, match="unknown sweep axis"):
            parse_axis("options.not_a_field=1")

    def test_malformed_spec_rejected(self):
        for spec in ("no-equals", "=1,2", "key="):
            with pytest.raises(SweepAxisError):
                parse_axis(spec)

    def test_empty_axis_rejected(self):
        with pytest.raises(SweepAxisError):
            SweepAxis("scale", ())

    def test_non_numeric_run_value_is_a_clean_error(self):
        with pytest.raises(SweepAxisError, match="needs float values"):
            resolve_point(_plan(num_accesses=5000, seed=1), (("scale", "big"),))
        with pytest.raises(SweepAxisError, match="needs int values"):
            resolve_point(_plan(num_accesses=5000, seed=1), (("accesses", "lots"),))

    def test_non_numeric_field_value_is_a_clean_error(self):
        with pytest.raises(SweepAxisError, match="needs float values"):
            resolve_point(
                _plan(num_accesses=5000, seed=1),
                (("options.memory_level_parallelism", "fast"),),
            )

    def test_non_scalar_config_field_rejected(self):
        with pytest.raises(SweepAxisError, match="not a scalar"):
            resolve_point(_plan(num_accesses=5000, seed=1), (("config.toleo", 1),))

    def test_non_integral_int_value_rejected_not_truncated(self):
        with pytest.raises(SweepAxisError, match="needs int values"):
            resolve_point(_plan(num_accesses=5000, seed=1), (("accesses", 2.5),))
        with pytest.raises(SweepAxisError, match="needs int values"):
            resolve_point(_plan(num_accesses=5000, seed=1), (("seed", 1.5),))

    def test_duplicate_axis_keys_rejected(self, tmp_path):
        with pytest.raises(SweepAxisError, match="duplicate sweep axis"):
            run_sweep(
                [SweepAxis("scale", (0.001, 0.002)), SweepAxis("scale", (0.004,))],
                _plan(),
                store=ResultStore(tmp_path / "cache"),
            )


class TestGridExpansion:
    def test_cartesian_order_is_axis_major(self):
        grid = expand_grid(
            [SweepAxis("scale", (0.001, 0.002)), SweepAxis("seed", (1, 2))]
        )
        assert grid == [
            (("scale", 0.001), ("seed", 1)),
            (("scale", 0.001), ("seed", 2)),
            (("scale", 0.002), ("seed", 1)),
            (("scale", 0.002), ("seed", 2)),
        ]

    def test_no_axes_is_single_base_point(self):
        assert expand_grid([]) == [()]


class TestPointResolution:
    def test_run_parameter_overrides(self):
        point = resolve_point(
            _plan(num_accesses=5000, seed=1),
            (("scale", 0.004), ("accesses", 1000), ("seed", 9)),
        )
        assert (point.scale, point.num_accesses, point.seed) == (0.004, 1000, 9)
        assert point.config is None and point.options is None

    def test_options_override_builds_dataclass(self):
        point = resolve_point(
            _plan(num_accesses=5000, seed=1),
            (("options.memory_level_parallelism", 8.0),),
        )
        assert point.options.memory_level_parallelism == 8.0
        assert point.config is None  # untouched scopes stay None (shared keys)

    def test_config_override_builds_dataclass(self):
        point = resolve_point(
            _plan(num_accesses=5000, seed=1),
            (("config.aes_latency_cycles", 400),),
        )
        assert isinstance(point.config, SystemConfig)
        assert point.config.aes_latency_cycles == 400

    def test_base_point_label(self):
        point = resolve_point(_plan(num_accesses=5000, seed=1), ())
        assert point.label == "(base)"


class TestRunSweep:
    AXES = [
        SweepAxis("options.memory_level_parallelism", (2.0, 8.0)),
        SweepAxis("scale", (0.001, 0.002)),
    ]

    def test_four_point_grid_through_parallel_map(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        result = run_sweep(self.AXES, _plan(), jobs=2, store=store)
        assert len(result.points) == 4
        assert result.simulated_points == 4
        assert len(result.suites) == 4
        for _, suite in result:
            assert set(suite) == set(BENCHES)
            for per_mode in suite.values():
                assert set(per_mode) == set(MODES)
                for r in per_mode.values():
                    assert r.baseline_time_ns is not None

    def test_warm_store_serves_identical_results(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        cold = run_sweep(self.AXES, _plan(), jobs=2, store=store)
        store.clear_memory()  # force the disk layer
        warm = run_sweep(self.AXES, _plan(), jobs=2, store=store)
        assert warm.simulated_points == 0
        assert all(warm.served_from_store)
        assert _flatten(cold) == _flatten(warm)

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_sweep(
            self.AXES, _plan(), jobs=1, use_cache=False, store=ResultStore(tmp_path / "a")
        )
        parallel = run_sweep(
            self.AXES, _plan(), jobs=4, use_cache=False, store=ResultStore(tmp_path / "b")
        )
        assert _flatten(serial) == _flatten(parallel)

    def test_new_axis_value_only_simulates_new_points(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        run_sweep([SweepAxis("scale", (0.001, 0.002))], _plan(), store=store)
        extended = run_sweep([SweepAxis("scale", (0.001, 0.002, 0.004))], _plan(), store=store)
        assert extended.simulated_points == 1
        assert extended.served_from_store == [True, True, False]

    def test_point_results_differ_across_the_axis(self, tmp_path):
        result = run_sweep(
            [SweepAxis("options.memory_level_parallelism", (1.0, 8.0))],
            _plan(modes=("CI",)),
            store=ResultStore(tmp_path / "cache"),
        )
        slow = result.suites[0]["bsw"]["CI"]
        fast = result.suites[1]["bsw"]["CI"]
        assert fast.execution_time_ns < slow.execution_time_ns

    def test_a_bench_run_is_a_one_point_sweep(self, tmp_path):
        # run_benchmarks and run_sweep share one runner: the sweep's only
        # point is the bench run's plan, served from the bench run's entry.
        store = ResultStore(tmp_path / "cache")
        suite = run_benchmarks(
            BENCHES, modes=MODES, num_accesses=ACCESSES, jobs=1, store=store
        )
        result = run_sweep([SweepAxis("seed", (1234,))], _plan(), store=store)
        assert result.served_from_store == [True]
        assert result.suites[0] is suite
        assert len(store.query(kind="suite")) == 1

    def test_sharded_grid_starts_one_pool(self, tmp_path, monkeypatch):
        # Every uncached point's chains share one pipelined_map call, so a
        # two-point sharded grid starts one executor, not one per point.
        from repro.sim import parallel

        started = []

        class CountingExecutor(parallel.SupervisedExecutor):
            def __init__(self, *args, **kwargs):
                started.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(parallel, "SupervisedExecutor", CountingExecutor)
        result = run_sweep(
            [SweepAxis("scale", (0.001, 0.002))],
            _plan(modes=("CI",), shard_size=1000),
            jobs=2,
            store=ResultStore(tmp_path / "cache"),
        )
        assert result.simulated_points == 2
        assert len(started) == 1

    def test_sweep_covers_new_modes(self, tmp_path):
        result = run_sweep(
            [SweepAxis("scale", (0.001,))],
            _plan(modes=("Toleo", "CIF-Tree")),
            store=ResultStore(tmp_path / "cache"),
        )
        per_mode = result.suites[0]["bsw"]
        assert per_mode["CIF-Tree"].slowdown > 1.0

    def test_degraded_point_is_returned_but_not_cached(self, tmp_path, monkeypatch):
        # A point is degraded when any of its chains ended in a TaskFailure:
        # it comes back without the lost cell and stays out of the store,
        # while the clean point is cached as usual.
        run_chains = shard.run_chains
        axes = [SweepAxis("scale", (0.001, 0.002))]
        plan = _plan(modes=("CI",))
        run = dict(jobs=1, store=ResultStore(tmp_path / "cache"))
        monkeypatch.setattr(shard, "run_chains", _losing_the_last_chain(run_chains))
        degraded = run_sweep(axes, plan, **run)
        assert "CI" in degraded.suites[0]["bsw"]
        assert degraded.suites[1] == {"bsw": {}}

        monkeypatch.setattr(shard, "run_chains", run_chains)
        rerun = run_sweep(axes, plan, **run)
        assert rerun.served_from_store == [True, False]
        assert "CI" in rerun.suites[1]["bsw"]

    def test_twin_of_a_degraded_point_is_not_served(self, tmp_path, monkeypatch):
        # Both shard widths share one suite key, so only the first point
        # simulates.  When its chain is lost, the twin carries the same
        # TaskFailure gap: nothing was stored, so neither point counts as
        # served and a rerun simulates the key again.
        run_chains = shard.run_chains
        store = ResultStore(tmp_path / "cache")
        axes = [SweepAxis("shard_size", (300, 1000))]
        plan = _plan(modes=("CI",))
        monkeypatch.setattr(shard, "run_chains", _losing_the_last_chain(run_chains))
        degraded = run_sweep(axes, plan, jobs=1, store=store)
        assert degraded.suites == [{"bsw": {}}, {"bsw": {}}]
        assert degraded.served_from_store == [False, False]
        assert degraded.simulated_points == 2
        assert store.query(kind="suite") == []

        monkeypatch.setattr(shard, "run_chains", run_chains)
        rerun = run_sweep(axes, plan, jobs=1, store=store)
        assert rerun.served_from_store == [False, True]
        assert rerun.suites[1] is rerun.suites[0]
        assert "CI" in rerun.suites[1]["bsw"]
