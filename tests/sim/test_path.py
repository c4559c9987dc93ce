"""Tests for the composable protection-path pipeline.

The heart of this file is the golden-equivalence suite: the component
pipeline must reproduce the pre-refactor inline engine's results *bit for
bit* for all five original modes (the fixture was generated by the seed
engine before the refactor).  The rest covers the new simulated modes --
trace-replay determinism, the tree-depth scaling behaviour the paper argues
from, and the open mode registry.
"""

import json
import os

import pytest

from repro.baselines.invisimem import InvisiMemModel
from repro.core.config import CACHE_BLOCK_BYTES, MIB, SystemConfig
from repro.sim.configs import (
    LATENCY_MODES,
    CounterTreeSpec,
    EpcPagingSpec,
    ModeParameters,
    mode_parameters,
)
from repro.sim.engine import EngineOptions, SimulationEngine, compare_modes, run_suite
from repro.sim.path import (
    CounterTreeComponent,
    EncryptionComponent,
    EpcPagingComponent,
    InvisiMemComponent,
    MacIntegrityComponent,
    StealthFreshnessComponent,
    build_components,
)
from repro.workloads.registry import get_workload

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_quick_suite.json")

NEW_MODES = ("CIF-Tree", "Client-SGX")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


class TestGoldenEquivalence:
    """The refactored pipeline is bit-identical to the seed inline engine."""

    @pytest.fixture(scope="class")
    def suite(self, request):
        golden = json.load(open(GOLDEN_PATH))
        settings = golden["settings"]
        return run_suite(
            tuple(settings["benchmarks"]),
            modes=LATENCY_MODES,
            scale=settings["scale"],
            num_accesses=settings["num_accesses"],
            seed=settings["seed"],
        )

    def test_golden_covers_all_five_seed_modes(self, golden):
        assert golden["settings"]["modes"] == list(LATENCY_MODES)

    def test_bit_identical_to_seed_engine(self, suite, golden):
        mismatches = []
        for bench, per_mode in suite.items():
            for mode, result in per_mode.items():
                expected = golden["results"][bench][mode]
                measured = {
                    "instructions": result.instructions,
                    "llc_misses": result.llc_misses,
                    "writebacks": result.writebacks,
                    "execution_time_ns": result.execution_time_ns,
                    "traffic": result.traffic.to_dict(),
                    "latency": result.latency.to_dict(),
                    "stealth_cache_hit_rate": result.stealth_cache_hit_rate,
                    "mac_cache_hit_rate": result.mac_cache_hit_rate,
                }
                for field, value in measured.items():
                    if expected[field] != value:
                        mismatches.append((bench, mode, field, expected[field], value))
        assert mismatches == []


class TestTraceReplayNewModes:
    """Trace replay must match fresh-workload runs for the simulated baselines."""

    @pytest.mark.parametrize("mode", NEW_MODES)
    def test_trace_matches_fresh_workload(self, mode):
        fresh = SimulationEngine.from_mode(mode, seed=7).run(
            get_workload("memcached", scale=0.002, seed=7), num_accesses=4000
        )
        trace = get_workload("memcached", scale=0.002, seed=7).capture(4000)
        replay = SimulationEngine.from_mode(mode, seed=7).run(trace, num_accesses=4000)
        assert fresh.execution_time_ns == replay.execution_time_ns
        assert fresh.traffic.to_dict() == replay.traffic.to_dict()
        assert fresh.latency.to_dict() == replay.latency.to_dict()
        assert fresh.llc_misses == replay.llc_misses

    @pytest.mark.parametrize("mode", NEW_MODES)
    def test_same_seed_is_deterministic(self, mode):
        a = SimulationEngine.from_mode(mode, seed=3).run(
            get_workload("hyrise", scale=0.002, seed=2), num_accesses=3000
        )
        b = SimulationEngine.from_mode(mode, seed=3).run(
            get_workload("hyrise", scale=0.002, seed=2), num_accesses=3000
        )
        assert a.execution_time_ns == b.execution_time_ns
        assert a.traffic.total_bytes == b.traffic.total_bytes


class TestComponentAssembly:
    """build_components mirrors each registered mode's declared stack."""

    CASES = {
        "NoProtect": (),
        "C": (EncryptionComponent,),
        "CI": (EncryptionComponent, MacIntegrityComponent),
        "Toleo": (
            EncryptionComponent,
            MacIntegrityComponent,
            StealthFreshnessComponent,
        ),
        "InvisiMem": (
            EncryptionComponent,
            MacIntegrityComponent,
            InvisiMemComponent,
        ),
        "CIF-Tree": (
            EncryptionComponent,
            MacIntegrityComponent,
            CounterTreeComponent,
        ),
        "Client-SGX": (
            EncryptionComponent,
            MacIntegrityComponent,
            CounterTreeComponent,
            EpcPagingComponent,
        ),
    }

    @pytest.mark.parametrize("mode", list(CASES))
    def test_stack_composition(self, mode):
        components = build_components(
            mode_parameters(mode),
            SystemConfig(),
            EngineOptions(),
            footprint_bytes=32 * MIB,
            seed=1,
            num_accesses=1000,
        )
        assert tuple(type(c) for c in components) == self.CASES[mode]

    def test_invisimem_mac_fetch_is_batched(self):
        model = InvisiMemModel()
        components = build_components(
            mode_parameters("InvisiMem"),
            SystemConfig(),
            EngineOptions(),
            footprint_bytes=32 * MIB,
        )
        mac = next(c for c in components if isinstance(c, MacIntegrityComponent))
        assert mac.fetch_bytes == int(model.metadata_bytes_per_access(CACHE_BLOCK_BYTES))
        assert mac.fetch_bytes < CACHE_BLOCK_BYTES

    def test_client_sgx_tree_spans_only_the_epc(self):
        components = build_components(
            mode_parameters("Client-SGX"),
            SystemConfig(),
            EngineOptions(),
            footprint_bytes=64 * MIB,
        )
        tree = next(c for c in components if isinstance(c, CounterTreeComponent))
        epc = next(c for c in components if isinstance(c, EpcPagingComponent))
        assert tree.protected_bytes == epc.epc_bytes
        assert epc.epc_bytes < 64 * MIB

    def test_unknown_tree_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown counter-tree scheme"):
            CounterTreeComponent(CounterTreeSpec(scheme="nope"), footprint_bytes=MIB)


class TestCounterTreeScaling:
    """The acceptance shape: tree-based freshness cost grows with footprint,
    Toleo's stays near-flat (the paper's core scaling argument)."""

    SCALES = (0.0005, 0.002, 0.008)

    @pytest.fixture(scope="class")
    def per_scale(self):
        out = {}
        for scale in self.SCALES:
            out[scale] = compare_modes(
                lambda scale=scale: get_workload("pr", scale=scale, seed=1),
                modes=("Toleo", "CIF-Tree"),
                num_accesses=5000,
            )
        return out

    def test_tree_levels_grow_with_footprint(self):
        components = {
            scale: build_components(
                mode_parameters("CIF-Tree"),
                SystemConfig(),
                EngineOptions(),
                footprint_bytes=get_workload("pr", scale=scale).footprint_bytes,
            )
            for scale in (self.SCALES[0], self.SCALES[-1])
        }
        levels = {
            scale: next(
                c for c in comps if isinstance(c, CounterTreeComponent)
            ).levels
            for scale, comps in components.items()
        }
        assert levels[self.SCALES[-1]] > levels[self.SCALES[0]]

    def test_tree_slowdown_grows_with_footprint(self, per_scale):
        slowdowns = [
            per_scale[scale]["CIF-Tree"].slowdown for scale in self.SCALES
        ]
        assert slowdowns == sorted(slowdowns)
        assert slowdowns[-1] > slowdowns[0]

    def test_tree_grows_faster_than_toleo(self, per_scale):
        def growth(mode):
            return (
                per_scale[self.SCALES[-1]][mode].slowdown
                - per_scale[self.SCALES[0]][mode].slowdown
            )

        assert growth("CIF-Tree") > growth("Toleo")

    def test_tree_costs_more_than_toleo(self, per_scale):
        for scale in self.SCALES:
            assert (
                per_scale[scale]["CIF-Tree"].slowdown
                > per_scale[scale]["Toleo"].slowdown
            )


class TestClientSgxMode:
    def test_paging_dominates_once_working_set_spills(self):
        results = compare_modes(
            lambda: get_workload("pr", scale=0.002, seed=1),
            modes=("CI", "Client-SGX"),
            num_accesses=5000,
        )
        sgx = results["Client-SGX"]
        assert sgx.slowdown > 2.0
        assert sgx.slowdown > results["CI"].slowdown
        # Page-in traffic inflates the data byte count well past CI's.
        assert sgx.traffic.data_bytes > results["CI"].traffic.data_bytes

    def test_no_paging_when_working_set_fits(self):
        spec = EpcPagingSpec(epc_fraction=2.0)  # EPC larger than the footprint
        component = EpcPagingComponent(spec, footprint_bytes=8 * MIB)
        assert component.epc_bytes >= 8 * MIB

    def test_fault_counters_exposed(self):
        engine = SimulationEngine.from_mode("Client-SGX", seed=1)
        components = build_components(
            engine.params,
            engine.config,
            engine.options,
            footprint_bytes=get_workload("pr", scale=0.002).footprint_bytes,
        )
        epc = next(c for c in components if isinstance(c, EpcPagingComponent))
        assert epc.page_faults == 0 and epc.dirty_evictions == 0


class TestOpenRegistry:
    def test_replaced_registration_changes_store_keys(self):
        # register_mode(..., replace=True) must invalidate cached suite
        # results computed under the previous registration -- the key folds
        # the registered ModeParameters in, not just the mode label.
        from repro.sim.configs import register_mode
        from repro.sim.results import suite_key

        args = (("bsw",), ("CI",), 0.002, 4000, 1234, None, None)
        before = suite_key(*args)
        original = mode_parameters("CI")
        try:
            register_mode(ModeParameters("CI"), replace=True)
            assert suite_key(*args) != before
        finally:
            register_mode(original, replace=True)
        assert suite_key(*args) == before

    def test_replaced_baseline_registration_also_changes_keys(self):
        # NoProtect always runs (baseline time), so its parameters are part
        # of every key even when it is not in the requested modes.
        from repro.sim.configs import register_mode
        from repro.sim.results import suite_key

        args = (("bsw",), ("CI",), 0.002, 4000, 1234, None, None)
        before = suite_key(*args)
        original = mode_parameters("NoProtect")
        try:
            register_mode(
                ModeParameters("NoProtect", aes_on_read=True),
                replace=True,
            )
            assert suite_key(*args) != before
        finally:
            register_mode(original, replace=True)

    def test_parallel_tasks_carry_resolved_parameters(self):
        # Workers must never re-resolve modes against their own registry
        # (under spawn they would see the defaults, not runtime overrides).
        from repro.sim.parallel import suite_tasks

        tasks = suite_tasks(("bsw",), ("CI",), 0.002, 1000, 1)
        assert [task[1].label for task in tasks] == ["NoProtect", "CI"]
        assert all(isinstance(task[1], ModeParameters) for task in tasks)

    def test_custom_mode_runs_through_the_engine(self):
        # A scheme the repo never shipped: encryption plus a VAULT-geometry
        # tree, no MACs, under a label no enum ever knew.  Constructing the
        # parameters is all it takes to simulate.
        params = ModeParameters(
            "Ad-Hoc-Vault",
            aes_on_read=True,
            counter_tree=CounterTreeSpec(scheme="vault"),
            description="ad-hoc vault-tree variant",
        )
        engine = SimulationEngine(params)
        result = engine.run(get_workload("bsw", scale=0.002, seed=1), num_accesses=3000)
        assert result.traffic.stealth_bytes > 0  # tree node fetches
        assert result.traffic.mac_uv_bytes == 0  # no MAC component built
        assert result.latency.decryption_ns > 0
