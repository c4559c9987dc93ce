"""End-to-end tests of the open, string-keyed mode registry.

The tentpole claim of the registry is that a ``register_mode`` call is the
*entire* integration surface of a new protection scheme: from one runtime
registration a mode must flow through the parallel fan-out (including the
spawn start method, where workers re-import the package and never see the
parent's registry), the grid sweeper, the persistent result store (with
replacement invalidating stale cache keys) and the CLI.  The shipped
variants in :mod:`repro.sim.variants` are exercised the same way -- they are
registrations like any user's.
"""

import multiprocessing

import pytest

from repro.sim import parallel as parallel_module
from repro.sim.configs import (
    CounterTreeSpec,
    ModeParameters,
    register_mode,
    registered_modes,
    unregister_mode,
)
from repro.sim.engine import run_suite
from repro.sim.path import (
    CounterTreeComponent,
    EncryptionComponent,
    MacIntegrityComponent,
    StealthFreshnessComponent,
    build_components,
)
from repro.experiments.harness import run_benchmarks
from repro.sim.shard import RunPlan
from repro.sim.store import ResultStore
from repro.sim.sweep import SweepAxis, run_sweep
from repro.sim.variants import VARIANT_MODES

from repro.core.config import MIB, SystemConfig
from repro.sim.engine import EngineOptions


@pytest.fixture
def runtime_mode():
    """Register a throwaway scheme for one test and clean it up after."""
    label = "Runtime-Test-Mode"
    register_mode(
        ModeParameters(
            label,
            aes_on_read=True,
            counter_tree=CounterTreeSpec(scheme="vault"),
            description="runtime-registered test scheme",
        )
    )
    yield label
    unregister_mode(label)


def _flatten(suite):
    return [
        (bench, mode, r.to_dict())
        for bench, per_mode in suite.items()
        for mode, r in per_mode.items()
    ]


class TestRuntimeRegistrationEndToEnd:
    def test_flows_through_parallel_fork_or_inline(self, runtime_mode):
        serial = run_suite(("bsw",), modes=(runtime_mode,), num_accesses=2000, seed=7)
        fanned = run_benchmarks(
            ("bsw",), modes=(runtime_mode,), num_accesses=2000, seed=7, jobs=2, use_cache=False
        )
        assert _flatten(serial) == _flatten(fanned)

    def test_flows_through_spawn_workers(self, runtime_mode, monkeypatch):
        # Under spawn the workers re-import the package and resolve against a
        # fresh default registry that has never seen the runtime mode; the
        # resolved ModeParameters must therefore travel inside the task.
        monkeypatch.setattr(
            parallel_module,
            "_pool_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        serial = run_suite(("bsw",), modes=(runtime_mode,), num_accesses=2000, seed=7)
        spawned = run_benchmarks(
            ("bsw",), modes=(runtime_mode,), num_accesses=2000, seed=7, jobs=2, use_cache=False
        )
        assert _flatten(serial) == _flatten(spawned)

    def test_flows_through_sweep_with_per_point_caching(self, runtime_mode, tmp_path):
        store = ResultStore(tmp_path / "cache")
        axes = [SweepAxis("scale", (0.001, 0.002))]
        plan = RunPlan(("bsw",), (runtime_mode,), 0.002, 2000, 1234, None, None, None, None)

        cold = run_sweep(axes, plan, store=store)
        assert cold.simulated_points == 2
        for suite in cold.suites:
            assert list(suite["bsw"]) == [runtime_mode]
            assert suite["bsw"][runtime_mode].slowdown > 1.0

        store.clear_memory()  # force the disk layer
        warm = run_sweep(axes, plan, store=store)
        assert warm.simulated_points == 0
        assert all(warm.served_from_store)
        assert _flatten(warm.suites[0]) == _flatten(cold.suites[0])

    def test_replacing_registration_invalidates_cached_points(
        self, runtime_mode, tmp_path
    ):
        store = ResultStore(tmp_path / "cache")
        axes = [SweepAxis("scale", (0.001,))]
        plan = RunPlan(("bsw",), (runtime_mode,), 0.002, 2000, 1234, None, None, None, None)
        first = run_sweep(axes, plan, store=store)
        assert first.simulated_points == 1

        # Same label, different scheme: the suite key folds the registered
        # parameters in, so the cached point must not be served.
        register_mode(
            ModeParameters(
                runtime_mode,
                aes_on_read=True,
                mac_traffic=True,
                counter_tree=CounterTreeSpec(scheme="morphctr"),
                description="replaced registration",
            ),
            replace=True,
        )
        replaced = run_sweep(axes, plan, store=store)
        assert replaced.simulated_points == 1
        a = first.suites[0]["bsw"][runtime_mode]
        b = replaced.suites[0]["bsw"][runtime_mode]
        assert b.traffic.mac_uv_bytes > 0 and a.traffic.mac_uv_bytes == 0


class TestShippedVariants:
    def test_registered_without_engine_edits(self):
        assert set(VARIANT_MODES).isdisjoint(
            ("NoProtect", "C", "CI", "Toleo", "InvisiMem", "CIF-Tree", "Client-SGX")
        )
        assert set(VARIANT_MODES) <= set(registered_modes())

    @pytest.mark.parametrize(
        "label,expected",
        [
            ("Vault-Tree", (EncryptionComponent, MacIntegrityComponent, CounterTreeComponent)),
            ("Scalable-SGX", (EncryptionComponent,)),
            (
                "Toleo+Tree",
                (
                    EncryptionComponent,
                    MacIntegrityComponent,
                    StealthFreshnessComponent,
                    CounterTreeComponent,
                ),
            ),
        ],
    )
    def test_variant_stack_composition(self, label, expected):
        from repro.sim.configs import mode_parameters

        components = build_components(
            mode_parameters(label),
            SystemConfig(),
            EngineOptions(),
            footprint_bytes=32 * MIB,
            seed=1,
            num_accesses=1000,
        )
        assert tuple(type(c) for c in components) == expected

    def test_variants_simulate_through_the_suite(self):
        suite = run_suite(("bsw",), modes=VARIANT_MODES, num_accesses=2000, seed=1)
        per_mode = suite["bsw"]
        assert list(per_mode) == list(VARIANT_MODES)
        for result in per_mode.values():
            assert result.slowdown >= 1.0
        # The hybrid pays for both freshness paths; the no-MAC mode for neither.
        assert per_mode["Toleo+Tree"].traffic.stealth_bytes > 0
        assert per_mode["Scalable-SGX"].traffic.mac_uv_bytes == 0
        assert per_mode["Vault-Tree"].traffic.stealth_bytes > 0  # tree node fetches

    def test_vault_geometry_differs_from_client_sgx_tree(self):
        from repro.sim.configs import mode_parameters

        def tree_of(label):
            components = build_components(
                mode_parameters(label),
                SystemConfig(),
                EngineOptions(),
                footprint_bytes=256 * MIB,
            )
            return next(c for c in components if isinstance(c, CounterTreeComponent))

        vault = tree_of("Vault-Tree")
        cif = tree_of("CIF-Tree")
        # VAULT's split counters pack more children per node near the leaves,
        # so the same footprint needs no more levels than the 8-ary tree.
        assert vault.levels <= cif.levels
        assert vault.cache.size_bytes > cif.cache.size_bytes

    def test_fresh_scale_experiment_covers_the_variants(self):
        from repro.experiments import freshness_scaling

        rows = freshness_scaling.run(("bsw",), scale=0.002, num_accesses=2000)
        assert rows
        for label in VARIANT_MODES:
            assert all(label in row for row in rows), label
        growth = freshness_scaling.tree_growth(rows)
        assert set(VARIANT_MODES) <= set(growth["bsw"])
