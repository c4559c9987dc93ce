"""The declarative artifact registry: completeness, shape, budgets."""

import pkgutil

import pytest

import repro.experiments
from repro.report.artifacts import (
    KINDS,
    ArtifactError,
    ArtifactSpec,
    ReproContext,
    artifact_spec,
    load_artifact_registry,
    register_artifact,
    registered_artifacts,
)

#: Every artifact reproduce-all must rebuild, in report order.
EXPECTED_ARTIFACTS = (
    "table1", "table2", "table3", "table4",
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
    "sec62", "fresh-scale", "ablations",
)


@pytest.fixture(scope="module")
def registry():
    return load_artifact_registry()


class TestCompleteness:
    def test_expected_artifact_set(self, registry):
        assert tuple(s.name for s in registry) == EXPECTED_ARTIFACTS

    def test_every_experiment_module_registers_its_artifact(self, registry):
        """No figure/table module can silently drop out of reproduce-all (or
        of the ``repro <name>`` commands, which read the same registry)."""
        import importlib

        shared = {"harness", "report"}
        for info in pkgutil.iter_modules(repro.experiments.__path__):
            module = importlib.import_module(f"repro.experiments.{info.name}")
            if info.name in shared:
                assert not hasattr(module, "ARTIFACT")
                continue
            assert hasattr(module, "ARTIFACT"), (
                f"{module.__name__} declares no ARTIFACT -- reproduce-all would skip it"
            )
            assert artifact_spec(module.ARTIFACT.name) is module.ARTIFACT
            assert not hasattr(module, "render"), "a render() twin beside the registry"

    def test_stages_live_in_the_declaring_module(self, registry):
        for spec in registry:
            assert spec.data.__module__ == spec.render.__module__
            assert spec.data.__module__.startswith("repro.experiments.")

    def test_kinds_titles_orders(self, registry):
        orders = [(s.order, s.name) for s in registry]
        assert orders == sorted(orders)
        for spec in registry:
            assert spec.kind in KINDS
            assert spec.title and spec.description

    def test_budgets_reference_known_tiers(self, registry):
        from repro.report.reproduce import TIERS

        for spec in registry:
            assert set(spec.budgets) <= set(TIERS), spec.name

    def test_lookup_by_name(self, registry):
        assert artifact_spec("fig6").kind == "figure"
        with pytest.raises(ArtifactError, match="unknown artifact"):
            artifact_spec("fig99")


class TestSpecBehaviour:
    def make_spec(self, **overrides):
        base = dict(
            name="dummy", kind="analysis", title="Dummy", description="d",
            data=lambda ctx: {"payload": {"rows": []}},
            render=lambda payload: "text",
        )
        base.update(overrides)
        return ArtifactSpec(**base)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ArtifactError, match="kind"):
            self.make_spec(kind="poem")

    def test_empty_name_rejected(self):
        with pytest.raises(ArtifactError):
            self.make_spec(name="")

    def test_budgets_override_base_context(self):
        spec = self.make_spec(budgets={"quick": {"num_accesses": 5, "scale": 0.5}})
        base = ReproContext(
            tier="quick", benchmarks=("bsw",), scale=0.002,
            num_accesses=1000, seed=1,
        )
        ctx = spec.context_for(base)
        assert (ctx.num_accesses, ctx.scale) == (5, 0.5)
        assert ctx.benchmarks == ("bsw",)
        full = spec.context_for(base.replace(tier="full"))
        assert full.num_accesses == 1000  # no budget for this tier

    def test_run_data_requires_payload_key(self):
        spec = self.make_spec(data=lambda ctx: {"rows": []})
        with pytest.raises(ArtifactError, match="payload"):
            spec.run_data(None)

    def test_run_data_defaults_store_keys_and_modes(self):
        result = self.make_spec().run_data(None)
        assert result["store_keys"] == [] and result["modes"] == []

    def test_cross_module_name_clash_rejected(self, registry):
        with pytest.raises(ArtifactError, match="already registered"):
            register_artifact(self.make_spec(name="fig6"))
        # The real registration is untouched by the failed attempt.
        assert artifact_spec("fig6").data.__module__ == "repro.experiments.fig6"

    def test_registry_is_idempotent_under_reload(self, registry):
        before = registered_artifacts()
        assert load_artifact_registry() == before
