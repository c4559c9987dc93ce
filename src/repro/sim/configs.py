"""Protection configurations and the open, string-keyed mode registry.

The paper evaluates four configurations (Section 7):

* ``NoProtect`` -- no memory protection; the baseline all overheads are
  reported against.
* ``CI`` -- confidentiality (AES-XTS) plus integrity (MACs), equivalent to
  Scalable SGX's TME with an added integrity guarantee.  No freshness.
* ``Toleo`` -- CI plus freshness through the CXL-attached Toleo device.
* ``InvisiMem`` -- the InvisiMem-far all-smart-memory design, which provides
  CIF plus address/timing side-channel defences at the cost of double
  encryption, symmetric packets and dummy traffic.

``C`` (encryption only) is also provided because Figure 9's latency breakdown
separates the C and I components, and two *simulated baseline* modes wire the
previously table-only models from :mod:`repro.baselines` into the simulator:

* ``CIF-Tree`` -- CI plus counter-tree freshness: every miss walks the
  :class:`repro.baselines.counter_trees.CounterTreeModel` levels through a
  metadata cache, so the cost grows with tree depth (i.e. with footprint) --
  the scaling argument the introduction makes against Merkle/counter trees.
* ``Client-SGX`` -- Client SGX's enclave page cache: full CIF inside a small
  EPC (its own shallow counter tree) plus page faults whenever the working
  set spills out of it.

A mode is *described* declaratively by :class:`ModeParameters` and *named* by
its string ``label``; the simulation engine builds the matching
protection-path component stack from the parameters
(:func:`repro.sim.path.build_components`).  The registry is fully open:
``register_mode`` a new ``ModeParameters`` under a fresh label and the
engine, harness, persistent store, sweep runner and CLI all pick the mode up
without modification -- no engine edit (the shipped variant
modes in :mod:`repro.sim.variants` are registered exactly this way).
Capability flags (``has_integrity``, ``has_freshness``, ...) are *derived*
from the parameters rather than maintained as per-mode lists, so they can
never drift from what the component stack actually does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.baselines.invisimem import InvisiMemModel
from repro.baselines.sgx import ClientSgxModel
from repro.core.config import GIB, KIB


#: Label of the unprotected configuration every slowdown is reported against.
#: The engine always runs it first; the suite key always folds it in.
BASELINE_MODE = "NoProtect"


def mode_label(mode: str) -> str:
    """Check that a mode designator is a label string, and return it.

    Does *not* touch the registry, so it is safe on unregistered labels.
    """
    if isinstance(mode, str):
        return mode
    raise TypeError(f"expected a mode label, got {type(mode).__name__}")


class UnknownModeError(KeyError):
    """Raised for a protection-mode name not in the registry (a user-input
    error, so CLIs can catch it narrowly -- mirrors ``UnknownBenchmarkError``).

    The message always lists the currently registered labels, so a CLI typo
    doubles as discovery of what ``--modes`` accepts.
    """

    def __init__(self, name: str) -> None:
        available = ", ".join(registered_modes())
        super().__init__(f"unknown protection mode {name!r}; available: {available}")


@dataclass(frozen=True)
class CounterTreeSpec:
    """Parameters of a simulated counter-tree freshness path.

    ``scheme`` picks the tree geometry from
    :mod:`repro.baselines.counter_trees` (``client_sgx``, ``vault`` or
    ``morphctr``); the metadata cache holds recently verified tree nodes so a
    traversal stops at the first cached ancestor.
    """

    scheme: str = "client_sgx"
    cache_bytes: int = 256 * KIB
    cache_ways: int = 16

    @property
    def label(self) -> str:
        return self.scheme


#: Reference Client SGX model (baselines layer); the simulated mode's spec
#: derives its defaults from it so the static tables and the simulation can
#: never silently disagree on the EPC constants.
_CLIENT_SGX_REFERENCE = ClientSgxModel()

#: Typical paper-benchmark resident set size (Table 2 averages ~12 GB); with
#: the reference 128 MB EPC this fixes the EPC : footprint provisioning ratio.
_REFERENCE_RSS_BYTES = 12 * GIB


@dataclass(frozen=True)
class EpcPagingSpec:
    """Parameters of the Client SGX enclave-page-cache cost model.

    The EPC is provisioned as a fraction of the workload footprint so the
    down-scaled simulation preserves the paper's 128 MB EPC : ~12 GB RSS
    ratio; touches outside the resident set page-fault with
    ``page_fault_penalty_ns`` (the paper cites ~5x slowdowns from EPC paging).
    Defaults come from :class:`repro.baselines.sgx.ClientSgxModel`.
    """

    epc_fraction: float = _CLIENT_SGX_REFERENCE.epc_bytes / _REFERENCE_RSS_BYTES
    min_epc_pages: int = 32
    page_fault_penalty_ns: float = _CLIENT_SGX_REFERENCE.page_fault_penalty_us * 1000.0


@dataclass(frozen=True)
class ModeParameters:
    """Declarative description of one protection mode's component stack.

    ``label`` is the registry key and the paper-style display name, a plain
    string.  The capability properties are *derived* from the component-stack
    fields -- there is no separate flag to keep in sync.
    """

    label: str
    aes_on_read: bool = False
    mac_traffic: bool = False
    stealth_traffic: bool = False
    invisimem: InvisiMemModel | None = None
    counter_tree: CounterTreeSpec | None = None
    epc_paging: EpcPagingSpec | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not mode_label(self.label):
            raise ValueError("mode label must be a non-empty string")

    # -- derived capabilities ----------------------------------------------

    @property
    def encrypts(self) -> bool:
        """Data confidentiality: AES decryption sits on the read path."""
        return self.aes_on_read

    @property
    def has_integrity(self) -> bool:
        """MAC verification, either explicit or inside InvisiMem's packets."""
        return self.mac_traffic or self.invisimem is not None

    @property
    def has_freshness(self) -> bool:
        """Replay protection: stealth versions, a counter tree, or InvisiMem."""
        return (
            self.stealth_traffic
            or self.counter_tree is not None
            or self.invisimem is not None
        )

    @property
    def uses_toleo_device(self) -> bool:
        """Freshness served by the CXL-attached Toleo stealth-version device."""
        return self.stealth_traffic

    @property
    def is_invisimem(self) -> bool:
        return self.invisimem is not None


# ---------------------------------------------------------------------------
# The mode registry
# ---------------------------------------------------------------------------

#: Label -> parameters.  Open: ``register_mode`` adds entries; the historical
#: ``MODE_PARAMETERS`` name is kept as the live registry mapping.
MODE_PARAMETERS: Dict[str, ModeParameters] = {}


def register_mode(params: ModeParameters, replace: bool = False) -> ModeParameters:
    """Register a protection mode's parameters with the simulator.

    Everything downstream -- the engine, the experiment harness, the sweep
    runner, the persistent store keys and the CLI's ``--modes`` filter --
    resolves modes through this registry, so registering is all a new scheme
    needs to become simulatable.
    """
    if params.label in MODE_PARAMETERS and not replace:
        raise ValueError(f"mode {params.label!r} is already registered")
    folded = _fold(params.label)
    for existing in MODE_PARAMETERS:
        if existing != params.label and _fold(existing) == folded:
            # resolve_mode matches case/separator-insensitively; two labels
            # that fold together would resolve the same user input to
            # different modes (and different store keys) depending on
            # spelling.
            raise ValueError(
                f"mode label {params.label!r} is ambiguous with registered "
                f"mode {existing!r} (names are matched case- and "
                "separator-insensitively)"
            )
    MODE_PARAMETERS[params.label] = params
    return params


def unregister_mode(mode: str) -> None:
    """Remove a registered mode (tests and ad-hoc experiments clean up).

    The seven seed labels this module registers are load-bearing -- the
    baseline runs in every suite and the paper's mode groups name them -- so
    they can be replaced but never removed.
    """
    label = mode_label(mode)
    if label in _SEED_MODES:
        raise ValueError(f"seed mode {label!r} cannot be unregistered (replace it instead)")
    MODE_PARAMETERS.pop(label, None)


def mode_parameters(mode: str) -> ModeParameters:
    """Look up a registered mode's parameters by label."""
    label = mode_label(mode)
    try:
        return MODE_PARAMETERS[label]
    except KeyError:
        raise UnknownModeError(label) from None


def registered_modes() -> Tuple[str, ...]:
    """Every registered mode label, in registration order."""
    return tuple(MODE_PARAMETERS)


def _fold(name: str) -> str:
    """Case-fold a mode name and drop separator punctuation, so user input
    like ``client_sgx``, ``cif tree`` or ``toleo-tree`` still finds
    ``Client-SGX``/``CIF-Tree``/``Toleo+Tree``."""
    folded = name.strip().lower()
    for separator in "-_+ ":
        folded = folded.replace(separator, "")
    return folded


def resolve_mode(name: str) -> str:
    """Resolve a user-supplied mode name to its canonical registered label.

    Matching is case-insensitive and ignores ``-``/``_``/space differences
    (covering spellings like ``CLIENT_SGX``).  Raises
    :class:`UnknownModeError` for names outside the registry, so CLIs can
    report a clean error instead of a traceback.
    """
    wanted = mode_label(name)
    if wanted in MODE_PARAMETERS:
        return wanted
    folded = _fold(wanted)
    for label in MODE_PARAMETERS:
        if _fold(label) == folded:
            return label
    raise UnknownModeError(wanted)


register_mode(
    ModeParameters(
        "NoProtect",
        description="no memory protection; the overhead baseline",
    )
)
register_mode(
    ModeParameters(
        "C",
        aes_on_read=True,
        description="confidentiality only (AES-XTS decryption latency)",
    )
)
register_mode(
    ModeParameters(
        "CI",
        aes_on_read=True,
        mac_traffic=True,
        description="confidentiality + integrity (MAC cache and MAC+UV traffic)",
    )
)
register_mode(
    ModeParameters(
        "Toleo",
        aes_on_read=True,
        mac_traffic=True,
        stealth_traffic=True,
        description="CI + freshness via the CXL-attached Toleo stealth-version device",
    )
)
register_mode(
    ModeParameters(
        "InvisiMem",
        aes_on_read=True,
        mac_traffic=True,
        stealth_traffic=False,
        invisimem=InvisiMemModel(),
        description="InvisiMem-far smart memory: CIF + side channels, inflated packets",
    )
)
register_mode(
    ModeParameters(
        "CIF-Tree",
        aes_on_read=True,
        mac_traffic=True,
        counter_tree=CounterTreeSpec(),
        description="CI + counter-tree freshness; traversal cost grows with footprint",
    )
)
register_mode(
    ModeParameters(
        "Client-SGX",
        aes_on_read=True,
        mac_traffic=True,
        counter_tree=CounterTreeSpec(cache_bytes=64 * KIB),
        epc_paging=EpcPagingSpec(),
        description="Client SGX: CIF inside a small EPC, page faults beyond it",
    )
)

#: The seed labels registered above, which :func:`unregister_mode` refuses.
_SEED_MODES: Tuple[str, ...] = registered_modes()

#: The configurations compared in Figure 6 and Figure 8.
EVALUATED_MODES: Tuple[str, ...] = ("NoProtect", "CI", "Toleo", "InvisiMem")

#: The configurations in Figure 9's latency breakdown.
LATENCY_MODES: Tuple[str, ...] = ("NoProtect", "C", "CI", "Toleo", "InvisiMem")

#: Freshness-scheme comparison: Toleo versus the simulated tree baselines.
FRESHNESS_MODES: Tuple[str, ...] = ("NoProtect", "Toleo", "CIF-Tree", "Client-SGX")

__all__ = [
    "BASELINE_MODE",
    "ModeParameters",
    "CounterTreeSpec",
    "EpcPagingSpec",
    "UnknownModeError",
    "MODE_PARAMETERS",
    "mode_label",
    "register_mode",
    "unregister_mode",
    "mode_parameters",
    "registered_modes",
    "resolve_mode",
    "EVALUATED_MODES",
    "LATENCY_MODES",
    "FRESHNESS_MODES",
]
