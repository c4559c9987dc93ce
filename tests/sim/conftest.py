"""Fixtures shared by the simulation-pipeline tests.

Besides the isolated default store, three helpers are shared as fixtures:
``compute_tiers`` (every verdict tier a stack's kernels read, computed
in-process), ``binary_damage`` (one way of damaging a stored payload per
case) and the config leaf walk (``leaves``, ``replaced``,
``perturbed``) that the store-key completeness tests run over every field
of a run description.  A test marked ``leaves_of(**roots)`` runs once per
leaf of those roots instead, with the leaf as its ``leaf`` argument.
"""

import dataclasses
import sqlite3
import struct

import pytest

from repro.sim import replaycore
from repro.sim import store as store_module
from repro.sim.store import (
    ResultStore,
    default_store,
    pack_columns,
    set_default_store,
    unpack_columns,
)

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


def _blob_path(store, key):
    with sqlite3.connect(store.db_path) as conn:
        (name,) = conn.execute("SELECT blob FROM entries WHERE key = ?", (key,)).fetchone()
    assert name is not None and name.endswith(".bin"), f"{key} is not a .bin blob"
    return store.blob_dir / name


def _edit_blob(edit):
    """Damage an entry's ``.bin`` blob file in place (``None`` deletes it)."""

    def damage(store, key):
        path = _blob_path(store, key)
        if edit is None:
            path.unlink()
        else:
            path.write_bytes(edit(path.read_bytes()))

    return damage


def _edit_inline(edit):
    """Replace an entry's payload with an edited copy, as an inline BLOB,
    keeping the row's content name, as damage to the row itself leaves it."""

    def damage(store, key):
        payload = ResultStore(store.root).get(key)
        assert isinstance(payload, bytes), f"{key} holds no payload"
        with sqlite3.connect(store.db_path) as conn:
            conn.execute("UPDATE entries SET payload = ? WHERE key = ?", (edit(payload), key))

    return damage


def _flip_a_bit(data):
    flipped = bytearray(data)
    flipped[len(data) // 2] ^= 0x10
    return bytes(flipped)


def _other_byteorder(payload):
    header, columns = unpack_columns(payload)
    header["byteorder"] = "big" if header["byteorder"] == "little" else "little"
    return pack_columns(header, columns)


def _tenfold_header_number(payload):
    """The payload re-packed whole with one header float ten times over (a
    slice's ``scale``, a tier geometry's reset probability): a well-formed
    edit, which no decoder can tell from data."""
    header, columns = unpack_columns(payload)
    holder = header.get("geometry", header)
    name = next(name for name, value in holder.items() if type(value) is float)
    holder[name] *= 10
    return pack_columns(header, columns)


#: Damage to a stored payload, each of which must read as a miss: three to
#: its ``.bin`` blob and five to an inline copy of it, all caught by the
#: content name the row keeps -- the last even though it still decodes.
BINARY_DAMAGES = {
    "truncated-bin": _edit_blob(lambda data: data[: len(data) // 2]),
    "bit-flipped-bin": _edit_blob(_flip_a_bit),
    "missing-bin": _edit_blob(None),
    "garbled-inline": _edit_inline(lambda payload: payload[:4] + bytes(len(payload) - 4)),
    "header-overrun": _edit_inline(
        lambda payload: struct.pack("<I", len(payload)) + payload[4:]
    ),
    "trailing-bytes": _edit_inline(lambda payload: payload + bytes(8)),
    "wrong-byteorder": _edit_inline(_other_byteorder),
    "consistent-inline": _edit_inline(_tenfold_header_number),
}


@pytest.fixture(params=sorted(BINARY_DAMAGES))
def binary_damage(request, monkeypatch):
    """One :data:`BINARY_DAMAGES` case, as ``damage(store, key)``.

    Every put in a test that takes it spills to a ``.bin`` blob, so the blob
    damages always find one; the inline damages move the row's payload
    inline, edited."""
    monkeypatch.setattr(store_module, "INLINE_LIMIT", 0)
    return BINARY_DAMAGES[request.param]


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
