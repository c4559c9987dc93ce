"""Variant protection schemes registered purely through the open registry.

This module is the proof that the mode registry is genuinely open: every
scheme below is a plain :func:`repro.sim.configs.register_mode` call -- no
engine branch, no new path component.
Each one recombines the existing :mod:`repro.sim.path` components under a
fresh string label, and from that single registration it is simulatable by
``SimulationEngine``, run by ``run_plans`` (``repro bench``), swept by
``run_sweep``, cached by the persistent store, and listed by ``repro list`` /
``repro bench --modes`` / ``repro sweep --modes``.

The three shipped variants are the ROADMAP's named candidates:

* ``Vault-Tree`` -- CI plus VAULT's split-counter tree (higher arity near
  the leaves than Client SGX's 8-ary tree, so fewer levels per walk) behind
  a metadata cache twice the CIF-Tree default.  Compared against
  ``CIF-Tree`` it shows how tree geometry and cache provisioning trade off
  while both still deepen with footprint -- unlike Toleo.
* ``Scalable-SGX`` -- Scalable SGX's actual production memory protection:
  transparent memory encryption only, no integrity MACs and no freshness.
  The paper's CI mode adds integrity on top of this; the variant provides
  the honest no-MAC floor for that comparison.
* ``Toleo+Tree`` -- a hybrid split: stealth-version freshness over the
  CXL-attached Toleo device *plus* a small MorphCtr counter tree, modelling
  a deployment that keeps a tree over a locally attached region while the
  far pool uses Toleo.  Both freshness components charge their own costs,
  so the curve sits between pure Toleo and pure tree scaling.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.config import KIB
from repro.sim.configs import CounterTreeSpec, ModeParameters, register_mode

VAULT_TREE = register_mode(
    ModeParameters(
        "Vault-Tree",
        aes_on_read=True,
        mac_traffic=True,
        counter_tree=CounterTreeSpec(scheme="vault", cache_bytes=512 * KIB),
        description="CI + VAULT split-counter tree, 512 KiB metadata cache",
    )
)

SCALABLE_SGX = register_mode(
    ModeParameters(
        "Scalable-SGX",
        aes_on_read=True,
        description="Scalable SGX / TME: encryption only, no MACs, no freshness",
    )
)

TOLEO_TREE_HYBRID = register_mode(
    ModeParameters(
        "Toleo+Tree",
        aes_on_read=True,
        mac_traffic=True,
        stealth_traffic=True,
        counter_tree=CounterTreeSpec(scheme="morphctr", cache_bytes=128 * KIB),
        description="hybrid split: Toleo stealth versions + a MorphCtr tree region",
    )
)

#: The registry-only variant labels, in registration order.
VARIANT_MODES: Tuple[str, ...] = (
    VAULT_TREE.label,
    SCALABLE_SGX.label,
    TOLEO_TREE_HYBRID.label,
)

__all__ = ["VARIANT_MODES", "VAULT_TREE", "SCALABLE_SGX", "TOLEO_TREE_HYBRID"]
