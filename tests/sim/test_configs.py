"""Tests for the protection-mode configuration objects and the registry.

The registry is keyed by string label and capability flags are *derived*
from ``ModeParameters``.  These tests pin the open-registry semantics.
"""

import pytest

from repro.baselines.invisimem import InvisiMemModel
from repro.sim.configs import (
    BASELINE_MODE,
    EVALUATED_MODES,
    FRESHNESS_MODES,
    LATENCY_MODES,
    MODE_PARAMETERS,
    CounterTreeSpec,
    ModeParameters,
    UnknownModeError,
    mode_label,
    mode_parameters,
    register_mode,
    registered_modes,
    resolve_mode,
    unregister_mode,
)
from repro.sim.variants import VARIANT_MODES

SEED_LABELS = (
    "NoProtect", "C", "CI", "Toleo", "InvisiMem", "CIF-Tree", "Client-SGX",
)


class TestDerivedCapabilities:
    """Capability flags come from the component stack, not hand-kept lists."""

    def test_encrypts_follows_aes(self):
        assert not ModeParameters("x-none").encrypts
        assert ModeParameters("x-c", aes_on_read=True).encrypts

    def test_integrity_from_mac_or_invisimem(self):
        assert ModeParameters("x-mac", mac_traffic=True).has_integrity
        assert ModeParameters("x-im", invisimem=InvisiMemModel()).has_integrity
        assert not ModeParameters("x-c", aes_on_read=True).has_integrity

    def test_freshness_from_stealth_tree_or_invisimem(self):
        assert ModeParameters("x-st", stealth_traffic=True).has_freshness
        assert ModeParameters("x-tree", counter_tree=CounterTreeSpec()).has_freshness
        assert ModeParameters("x-im", invisimem=InvisiMemModel()).has_freshness
        assert not ModeParameters("x-ci", mac_traffic=True).has_freshness

    def test_toleo_device_only_for_stealth_traffic(self):
        assert ModeParameters("x-st", stealth_traffic=True).uses_toleo_device
        assert not ModeParameters("x-tree", counter_tree=CounterTreeSpec()).uses_toleo_device

    def test_seed_mode_capabilities(self):
        assert not mode_parameters("NoProtect").encrypts
        assert mode_parameters("C").encrypts and not mode_parameters("C").has_integrity
        assert mode_parameters("CI").has_integrity and not mode_parameters("CI").has_freshness
        toleo, invisimem = mode_parameters("Toleo"), mode_parameters("InvisiMem")
        assert toleo.has_freshness and toleo.uses_toleo_device
        assert invisimem.has_freshness and invisimem.is_invisimem
        assert not invisimem.uses_toleo_device
        for label in ("CIF-Tree", "Client-SGX"):
            params = mode_parameters(label)
            assert params.encrypts and params.has_integrity and params.has_freshness
            assert not params.uses_toleo_device and not params.is_invisimem

    def test_registered_modes_flags_are_consistent(self):
        for label, params in MODE_PARAMETERS.items():
            assert params.label == label
            assert params.encrypts == params.aes_on_read
            assert params.has_integrity == (
                params.mac_traffic or params.invisimem is not None
            )
            assert params.has_freshness == (
                params.stealth_traffic
                or params.counter_tree is not None
                or params.invisimem is not None
            )


class TestModeRegistry:
    def test_every_seed_label_is_registered(self):
        assert set(SEED_LABELS) <= set(registered_modes())

    def test_variant_modes_are_registered(self):
        for label in VARIANT_MODES:
            assert label in registered_modes()
            assert label not in SEED_LABELS

    def test_registration_order_is_preserved(self):
        assert registered_modes()[: len(SEED_LABELS)] == SEED_LABELS

    def test_mode_parameters_lookup_by_label(self):
        params = mode_parameters("Toleo")
        assert params.label == "Toleo"
        assert params.stealth_traffic

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ModeParameters("")

    def test_a_label_must_be_a_string(self):
        assert mode_label("Toleo") == "Toleo"
        with pytest.raises(TypeError, match="expected a mode label"):
            mode_label(42)
        with pytest.raises(TypeError, match="expected a mode label"):
            ModeParameters(42)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_mode(ModeParameters("CI"))

    def test_replace_reregisters(self):
        original = mode_parameters("CI")
        try:
            replaced = register_mode(
                ModeParameters("CI", aes_on_read=True), replace=True
            )
            assert mode_parameters("CI") is replaced
        finally:
            register_mode(original, replace=True)

    def test_fold_colliding_label_rejected(self):
        # "toleo tree" folds to the same key as the registered "Toleo+Tree";
        # allowing it would make resolve_mode spelling-dependent.
        with pytest.raises(ValueError, match="ambiguous"):
            register_mode(ModeParameters("toleo tree", aes_on_read=True))
        with pytest.raises(ValueError, match="ambiguous"):
            register_mode(ModeParameters("TOLEO", aes_on_read=True))
        assert "toleo tree" not in registered_modes()

    def test_register_and_unregister_round_trip(self):
        params = register_mode(ModeParameters("Unit-Test-Mode", aes_on_read=True))
        try:
            assert resolve_mode("unit-test-mode") == "Unit-Test-Mode"
            assert mode_parameters("Unit-Test-Mode") is params
        finally:
            unregister_mode("Unit-Test-Mode")
        assert "Unit-Test-Mode" not in registered_modes()

    def test_resolve_mode_by_label_case_insensitive(self):
        assert resolve_mode("Toleo") == "Toleo"
        assert resolve_mode("toleo") == "Toleo"
        assert resolve_mode("cif-tree") == "CIF-Tree"
        assert resolve_mode("CLIENT_SGX") == "Client-SGX"  # old enum-name spelling
        assert resolve_mode("vault_tree") == "Vault-Tree"
        assert resolve_mode("toleo-tree") == "Toleo+Tree"  # '+' folds like -/_

    def test_seed_modes_cannot_be_unregistered(self):
        # The baseline runs in every suite and the paper's mode groups name
        # the seed labels; removing one would break both.
        for label in SEED_LABELS:
            with pytest.raises(ValueError, match="cannot be unregistered"):
                unregister_mode(label)
            assert label in registered_modes()

    def test_resolve_unknown_mode_is_a_clean_error(self):
        with pytest.raises(UnknownModeError, match="unknown protection mode"):
            resolve_mode("nope")

    def test_unknown_mode_error_lists_registered_labels(self):
        with pytest.raises(UnknownModeError) as excinfo:
            resolve_mode("nope")
        message = excinfo.value.args[0]
        for label in ("NoProtect", "Toleo", "CIF-Tree", "Vault-Tree", "Toleo+Tree"):
            assert label in message

    def test_descriptions_present_for_cli_listing(self):
        for label in registered_modes():
            assert mode_parameters(label).description


class TestModeParameters:
    def test_parameter_consistency_for_seed_modes(self):
        for label in SEED_LABELS:
            params = MODE_PARAMETERS[label]
            if label == "InvisiMem":
                assert isinstance(params.invisimem, InvisiMemModel)
            else:
                assert params.invisimem is None

    def test_only_toleo_and_hybrid_have_stealth_traffic(self):
        stealthy = {
            label for label, params in MODE_PARAMETERS.items() if params.stealth_traffic
        }
        assert stealthy == {"Toleo", "Toleo+Tree"}


class TestModeGroups:
    def test_groups_are_plain_labels(self):
        for group in (EVALUATED_MODES, LATENCY_MODES, FRESHNESS_MODES):
            assert all(type(mode) is str for mode in group)

    def test_evaluated_modes_match_figure6(self):
        assert EVALUATED_MODES == ("NoProtect", "CI", "Toleo", "InvisiMem")

    def test_latency_modes_include_c(self):
        assert "C" in LATENCY_MODES
        assert len(LATENCY_MODES) == 5

    def test_freshness_modes_compare_toleo_to_tree_baselines(self):
        assert FRESHNESS_MODES == ("NoProtect", "Toleo", "CIF-Tree", "Client-SGX")

    def test_baseline_mode_is_registered_first(self):
        assert registered_modes()[0] == BASELINE_MODE
