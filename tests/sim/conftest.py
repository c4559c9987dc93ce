"""Fixtures shared by the simulation-pipeline tests.

Besides the isolated default store, two helpers are shared as fixtures:
``compute_tiers`` (every verdict tier a stack's kernels read, computed
in-process) and the config leaf walk (``leaves``, ``replaced``,
``perturbed``) that the store-key completeness tests run over every field
of a run description.  A test marked ``leaves_of(**roots)`` runs once per
leaf of those roots instead, with the leaf as its ``leaf`` argument.
"""

import dataclasses

import pytest

from repro.sim import replaycore
from repro.sim.store import ResultStore, default_store, set_default_store

#: The counter-tree schemes a perturbed ``scheme`` field cycles through.
SCHEMES = ("client_sgx", "vault", "morphctr")


@pytest.fixture
def fresh_default_store(tmp_path):
    """An isolated default store, as a fresh worker process sees it, so entry
    counts see only this test's entries (forked workers inherit the object)."""
    previous = default_store()
    store = ResultStore(tmp_path / "cache")
    set_default_store(store)
    yield store
    set_default_store(previous)


def _compute_tiers(components, events, config=None):
    """Every verdict tier a stack's kernels read, each simulated once over
    ``events`` in-process -- the one-shot reference the store-served tier
    slices are pinned against, and what a test hands
    ``BatchReplayEngine(tiers=...)`` to replay without the store."""
    tiers = {}
    for component in components:
        if type(component) not in replaycore._TIER_SIMULATORS:
            continue
        simulator, geometry = replaycore._tier_geometry(component, config)
        slot = replaycore._tier_slot(simulator.TIER.KIND, geometry)
        if slot not in tiers:
            tiers[slot] = simulator(**geometry).advance(events)
    return list(tiers.values())


@pytest.fixture(scope="session")
def compute_tiers():
    return _compute_tiers


def _leaves(value, prefix):
    """``(path, value)`` of every scalar field, recursing into dataclasses."""
    for field in dataclasses.fields(value):
        inner = getattr(value, field.name)
        path = f"{prefix}.{field.name}"
        if dataclasses.is_dataclass(inner):
            yield from _leaves(inner, path)
        else:
            yield path, inner


def _replaced(value, path, new):
    """``value`` with the field at dotted ``path`` (below it) set to ``new``."""
    head, _, rest = path.partition(".")
    if not rest:
        return dataclasses.replace(value, **{head: new})
    return dataclasses.replace(value, **{head: _replaced(getattr(value, head), rest, new)})


def _perturbed(path, value):
    """A value far enough from ``value`` to move any geometry it feeds.

    A field of a type with no rule here raises, so a field added later must
    be classified before the key tests pass again.
    """
    if path.endswith("scheme"):
        return SCHEMES[(SCHEMES.index(value) + 1) % len(SCHEMES)]
    if path.endswith("stealth_bits"):
        # StealthVersionPolicy only takes widths in (0, 64).
        return value // 2
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value * 64 + 1000
    if isinstance(value, float):
        return value * 64 + 0.5
    if isinstance(value, str):
        return value + "-perturbed"
    raise TypeError(f"no perturbation for {path} = {value!r}")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "leaves_of(**roots): run once per leaf of the roots, as the leaf argument"
    )


def pytest_generate_tests(metafunc):
    """Parametrize a ``leaves_of`` test's ``leaf`` -- a ``(path, value)``
    pair -- over every leaf of its roots, with each path as the case id, so
    a failing field is named and does not hide the fields after it."""
    mark = metafunc.definition.get_closest_marker("leaves_of")
    if mark is not None:
        pairs = [pair for root, value in mark.kwargs.items() for pair in _leaves(value, root)]
        metafunc.parametrize("leaf", pairs, ids=[path for path, _ in pairs])


@pytest.fixture(scope="session")
def leaves():
    return _leaves


@pytest.fixture(scope="session")
def replaced():
    return _replaced


@pytest.fixture(scope="session")
def perturbed():
    return _perturbed
