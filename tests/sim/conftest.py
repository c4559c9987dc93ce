"""Fixtures shared by the simulation-pipeline tests."""

import pytest

from repro.sim.store import ResultStore, default_store, set_default_store


@pytest.fixture
def fresh_default_store(tmp_path):
    """An isolated default store, as a fresh worker process sees it, so entry
    counts see only this test's entries (forked workers inherit the object)."""
    previous = default_store()
    store = ResultStore(tmp_path / "cache")
    set_default_store(store)
    yield store
    set_default_store(previous)
