"""Tests for the persistent result store and its content-hash keys."""

import dataclasses
import hashlib
import json
import os
import sqlite3
import sys
from array import array

import pytest

from repro.core.config import SystemConfig
from repro.experiments.harness import run_benchmarks
from repro.sim.configs import EVALUATED_MODES
from repro.sim.engine import EngineOptions, run_suite
from repro.sim.results import SimulationResult, suite_key
from repro.sim.store import (
    _SCHEMA,
    BUSY_TIMEOUT_ENV,
    FORMAT_VERSION,
    INLINE_LIMIT,
    ResultStore,
    StoreBusyError,
    code_fingerprint,
    content_key,
    pack_columns,
    unpack_columns,
)


def as_json(value):
    """A JSON store encoder, as the suite and space-study encoders are one."""
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


def corrupt_entry(store, key, **columns):
    """Damage one index row out-of-band, as hand-editing or bitrot would."""
    sets = ", ".join(f"{name} = ?" for name in columns)
    with sqlite3.connect(store.db_path) as conn:
        conn.execute(
            f"UPDATE entries SET {sets} WHERE key = ?", (*columns.values(), key)
        )


class TestContentKey:
    def test_stable_across_calls(self):
        a = content_key("suite", benchmarks=["bsw"], scale=0.002, config=SystemConfig())
        b = content_key("suite", benchmarks=["bsw"], scale=0.002, config=SystemConfig())
        assert a == b

    def test_kind_prefix(self):
        assert content_key("space", seed=1).startswith("space-")

    def test_every_parameter_matters(self):
        base = dict(
            benchmarks=["bsw"],
            modes=list(EVALUATED_MODES),
            scale=0.002,
            num_accesses=4000,
            seed=1234,
            config=None,
            options=None,
        )
        keys = {content_key("suite", **base)}
        variants = [
            {"benchmarks": ["pr"]},
            {"scale": 0.001},
            {"num_accesses": 4001},
            {"seed": 1235},
            {"config": SystemConfig()},
            {"config": dataclasses.replace(SystemConfig(), aes_latency_cycles=41)},
            {"options": EngineOptions()},
            {"options": EngineOptions(base_cpi=0.7)},
        ]
        for override in variants:
            keys.add(content_key("suite", **{**base, **override}))
        assert len(keys) == len(variants) + 1

    def test_nested_dataclass_fields_reach_the_key(self):
        shrunk_l3 = dataclasses.replace(
            SystemConfig(),
            l3_config=dataclasses.replace(SystemConfig().l3_config, size_bytes=1 << 20),
        )
        assert content_key("suite", config=SystemConfig()) != content_key(
            "suite", config=shrunk_l3
        )

    def test_unhashable_parameter_rejected(self):
        with pytest.raises(TypeError):
            content_key("suite", config=object())

    def test_code_fingerprint_reaches_the_key(self, monkeypatch):
        """A simulator source change must invalidate warm persistent caches."""
        from repro.sim import store as store_module

        before = content_key("suite", seed=1)
        monkeypatch.setattr(store_module, "code_fingerprint", lambda: "other-code")
        assert content_key("suite", seed=1) != before

    def test_code_fingerprint_is_stable_and_hex(self):
        from repro.sim.store import code_fingerprint

        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestResultStore:
    def test_memory_layer_preserves_identity(self, tmp_path):
        store = ResultStore(tmp_path)
        value = {"anything": object()}
        store.put("k", value)
        assert store.get("k") is value

    def test_memory_only_without_encoder(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", {"x": 1})
        assert list(store.disk_keys()) == []
        assert ResultStore(tmp_path).get("k") is None

    def test_disk_round_trip(self, tmp_path):
        first = ResultStore(tmp_path)
        first.put("k", {"x": 1}, encoder=as_json)
        second = ResultStore(tmp_path)  # fresh process, cold memory layer
        assert second.get("k", decoder=json.loads) == {"x": 1}

    def test_put_rejects_an_encoder_that_returns_no_bytes(self, tmp_path):
        store = ResultStore(tmp_path)
        for payload in ({"x": 1}, "text", bytearray(b"x"), None):
            with pytest.raises(TypeError, match="returns bytes"):
                store.put("k", 1, encoder=lambda value, payload=payload: payload)
        assert "k" not in store and list(store.disk_keys()) == []

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", {"x": 1}, encoder=as_json)
        corrupt_entry(store, "k", payload="{ not json")
        assert ResultStore(tmp_path).get("k", decoder=json.loads) is None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        # Out-of-band damage can leave a prefix of the payload behind; the
        # store must recompute, not raise.
        store = ResultStore(tmp_path)
        store.put("k", {"x": 1}, encoder=as_json)
        full = ResultStore(tmp_path).get("k")
        corrupt_entry(store, "k", payload=full[: len(full) // 2])
        assert ResultStore(tmp_path).get("k", decoder=json.loads) is None

    def test_null_payload_without_blob_is_a_miss(self, tmp_path):
        # A row that claims a spilled payload but names no blob (or lost its
        # inline text) must be a miss like any other corruption.
        store = ResultStore(tmp_path)
        store.put("k", {"x": 1}, encoder=as_json)
        corrupt_entry(store, "k", payload=None, blob=None)
        assert ResultStore(tmp_path).get("k", decoder=json.loads) is None

    def test_wrong_payload_shape_is_a_miss(self, tmp_path):
        # The payload is whole but no longer matches the decoder's
        # expectations (e.g. an entry of an older layout under the same key).
        store = ResultStore(tmp_path)
        store.put("k", ["not", "a", "suite"], encoder=as_json)
        store.clear_memory()

        def strict_decoder(payload):
            return json.loads(payload)["x"]  # TypeError on a list

        assert ResultStore(tmp_path).get("k", decoder=strict_decoder) is None

    def test_missing_blob_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", {"data": "z" * (INLINE_LIMIT + 1)}, encoder=as_json)
        for blob in store.blob_dir.glob("*.bin"):
            blob.unlink()
        assert ResultStore(tmp_path).get("k", decoder=json.loads) is None

    def test_damaged_blob_is_a_miss(self, tmp_path):
        # A blob's name is its content hash: a truncated or bit-flipped blob
        # fails the digest check and degrades to a miss, never wrong data.
        store = ResultStore(tmp_path)
        store.put("k", {"data": "z" * (INLINE_LIMIT + 1)}, encoder=as_json)
        (blob,) = store.blob_dir.glob("*.bin")
        blob.write_bytes(blob.read_bytes()[:100])
        assert ResultStore(tmp_path).get("k", decoder=json.loads) is None

    def test_corrupted_suite_entry_recomputes(self, tmp_path):
        # End to end: a corrupted on-disk suite entry behaves like a cold
        # cache for run_benchmarks -- same results, one extra simulation.
        store = ResultStore(tmp_path)
        computed = run_benchmarks(("hyrise",), scale=0.002, num_accesses=4000, store=store)
        (key,) = [entry.key for entry in store.query(kind="suite")]
        corrupt_entry(store, key, payload="{ truncated", blob=None)
        recomputed = run_benchmarks(
            ("hyrise",), scale=0.002, num_accesses=4000, store=ResultStore(tmp_path)
        )
        for mode in computed["hyrise"]:
            assert (
                recomputed["hyrise"][mode].to_dict() == computed["hyrise"][mode].to_dict()
            )

    def test_a_consistent_edit_of_the_suite_entry_recomputes(self, tmp_path):
        # Valid JSON with Toleo's execution time doubled, written back in the
        # row's own form: every field still decodes, so only the content
        # name catches it, and run_benchmarks recomputes.
        store = ResultStore(tmp_path)
        computed = run_benchmarks(("hyrise",), scale=0.002, num_accesses=4000, store=store)
        (key,) = [entry.key for entry in store.query(kind="suite")]
        with sqlite3.connect(store.db_path) as conn:
            (stored,) = conn.execute(
                "SELECT payload FROM entries WHERE key = ?", (key,)
            ).fetchone()
        suite = json.loads(stored)
        suite["hyrise"]["Toleo"]["execution_time_ns"] *= 2
        edited = json.dumps(suite, separators=(",", ":"))
        corrupt_entry(
            store, key, payload=edited.encode("utf-8") if isinstance(stored, bytes) else edited
        )
        recomputed = run_benchmarks(
            ("hyrise",), scale=0.002, num_accesses=4000, store=ResultStore(tmp_path)
        )
        for mode in computed["hyrise"]:
            assert (
                recomputed["hyrise"][mode].to_dict() == computed["hyrise"][mode].to_dict()
            )

    def test_format_version_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", {"x": 1}, encoder=as_json)
        corrupt_entry(store, "k", format=FORMAT_VERSION + 1)
        assert ResultStore(tmp_path).get("k", decoder=json.loads) is None

    def test_invalidate_drops_both_layers(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", {"x": 1}, encoder=as_json)
        store.invalidate("k")
        assert store.get("k", decoder=json.loads) is None
        assert "k" not in ResultStore(tmp_path)

    def test_invalidate_drops_unreferenced_blob(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", {"data": "z" * (INLINE_LIMIT + 1)}, encoder=as_json)
        assert len(list(store.blob_dir.glob("*.bin"))) == 1
        store.invalidate("k")
        assert list(store.blob_dir.glob("*.bin")) == []

    def test_shared_blob_survives_one_invalidate(self, tmp_path):
        # Identical payloads dedup to one content-named blob; dropping one
        # referencing key must not orphan the other.
        store = ResultStore(tmp_path)
        payload = {"data": "z" * (INLINE_LIMIT + 1)}
        store.put("a", payload, encoder=as_json)
        store.put("b", payload, encoder=as_json)
        assert len(list(store.blob_dir.glob("*.bin"))) == 1
        store.invalidate("a")
        assert ResultStore(tmp_path).get("b", decoder=json.loads) == payload

    def test_clear_memory_keeps_disk(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", {"x": 1}, encoder=as_json)
        store.clear_memory()
        assert store.get("k", decoder=json.loads) == {"x": 1}

    def test_disk_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("suite-aa", 1, encoder=as_json)
        store.put("space-bb", 2, encoder=as_json)
        assert set(store.disk_keys()) == {"suite-aa", "space-bb"}


class TestConsistentViews:
    """`in`, `len` and decoder-less `get` must agree on what is served.

    Historically ``key in store`` saw disk entries while ``get(key)`` without
    a decoder never read disk and ``__len__`` counted only memory -- so
    containment could be True for a key ``get`` returned None for.
    """

    def test_decoderless_get_serves_disk(self, tmp_path):
        ResultStore(tmp_path).put("k", {"x": 1}, encoder=as_json)
        cold = ResultStore(tmp_path)
        assert "k" in cold
        assert cold.get("k") == as_json({"x": 1})
        assert len(cold) == 1

    def test_decoderless_disk_hit_not_promoted_to_memory(self, tmp_path):
        # The raw payload must not shadow the decoded object: a decoder-less
        # read followed by a decoded read still decodes.
        ResultStore(tmp_path).put("k", {"x": 1}, encoder=lambda v: as_json([v["x"]]))
        cold = ResultStore(tmp_path)
        assert cold.get("k") == b"[1]"  # the bytes, as the encoder returned them
        assert cold.get("k", decoder=lambda p: {"x": json.loads(p)[0]}) == {"x": 1}

    def test_contains_false_for_unservable_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", {"data": "z" * (INLINE_LIMIT + 1)}, encoder=as_json)
        for blob in store.blob_dir.glob("*.bin"):
            blob.unlink()
        cold = ResultStore(tmp_path)
        assert "k" not in cold
        assert cold.get("k") is None

    def test_len_unions_memory_and_disk(self, tmp_path):
        ResultStore(tmp_path).put("disk-aa", 1, encoder=as_json)
        store = ResultStore(tmp_path)
        store.put("mem-bb", 2)  # memory-only
        store.put("disk-aa", 1, encoder=as_json)  # in both layers
        assert len(store) == 2
        assert "mem-bb" in store and "disk-aa" in store


class TestQueryStatsGc:
    def test_query_filters_kind_and_prefix(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("suite-aa", 1, encoder=as_json)
        store.put("suite-ab", 2, encoder=as_json)
        store.put("events-xx", 3, encoder=as_json)
        assert [e.key for e in store.query()] == ["events-xx", "suite-aa", "suite-ab"]
        assert [e.key for e in store.query(kind="suite")] == ["suite-aa", "suite-ab"]
        assert [e.key for e in store.query(prefix="suite-ab")] == ["suite-ab"]

    def test_query_reports_spill_and_staleness(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("suite-aa", {"x": 1}, encoder=as_json)
        store.put("events-bb", {"d": "z" * (INLINE_LIMIT + 1)}, encoder=as_json)
        corrupt_entry(store, "suite-aa", code="other-fingerprint")
        by_key = {e.key: e for e in store.query()}
        assert by_key["suite-aa"].inline and by_key["suite-aa"].stale
        assert not by_key["events-bb"].inline and not by_key["events-bb"].stale

    def test_stats_aggregates_by_kind(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("suite-aa", {"x": 1}, encoder=as_json)
        store.put("suite-ab", {"x": 2}, encoder=as_json)
        store.put("events-bb", {"d": "z" * (INLINE_LIMIT + 1)}, encoder=as_json)
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["blob_entries"] == 1
        assert stats["stale_entries"] == 0
        assert stats["kinds"]["suite"]["entries"] == 2
        assert stats["kinds"]["events"]["entries"] == 1
        assert stats["index_bytes"] > 0

    def test_gc_drops_stale_entries_and_orphan_blobs(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("suite-keep", {"x": 1}, encoder=as_json)
        store.put("events-stale", {"d": "z" * (INLINE_LIMIT + 1)}, encoder=as_json)
        corrupt_entry(store, "events-stale", code="old-fingerprint")
        (store.blob_dir / "orphan.bin").write_bytes(b"{}")
        result = store.gc()
        assert result.dropped_entries == 1
        assert result.dropped_blobs == 2  # the stale entry's blob + the orphan
        assert result.kept_entries == 1
        assert list(ResultStore(tmp_path).disk_keys()) == ["suite-keep"]
        assert list(store.blob_dir.iterdir()) == []

    def test_gc_on_clean_store_drops_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("suite-aa", {"x": 1}, encoder=as_json)
        result = store.gc()
        assert result.dropped_entries == 0
        assert result.kept_entries == 1
        assert ResultStore(tmp_path).get("suite-aa") == as_json({"x": 1})

    def test_gc_on_empty_directory(self, tmp_path):
        result = ResultStore(tmp_path).gc()
        assert result.dropped_entries == 0
        assert result.kept_entries == 0


class TestOlderLayouts:
    def test_a_format_2_store_reads_as_misses_and_gc_empties_it(self, tmp_path):
        # Format 2 stored a JSON payload as text: inline, or in a `.json`
        # blob named by the sha256 of that text, with no name on inline rows.
        text = json.dumps({"x": 1})
        spilled = json.dumps({"d": "z" * (INLINE_LIMIT + 1)}).encode("utf-8")
        name = hashlib.sha256(spilled).hexdigest() + ".json"
        (tmp_path / "blobs").mkdir()
        (tmp_path / "blobs" / name).write_bytes(spilled)
        with sqlite3.connect(tmp_path / "index.sqlite") as conn:
            for statement in _SCHEMA:
                conn.execute(statement)
            conn.executemany(
                "INSERT INTO entries VALUES (?, ?, 2, ?, ?, ?, ?)",
                [
                    ("suite-old", "suite", code_fingerprint(), len(text), text, None),
                    ("events-old", "events", code_fingerprint(), len(spilled), None, name),
                ],
            )
        store = ResultStore(tmp_path)
        for key in ("suite-old", "events-old"):
            assert key not in store
            assert store.get(key) is None
            assert store.get(key, decoder=json.loads) is None
        assert [entry.stale for entry in store.query()] == [True, True]
        result = store.gc()
        assert (result.dropped_entries, result.dropped_blobs, result.kept_entries) == (2, 1, 0)
        assert list(store.disk_keys()) == []
        assert list(store.blob_dir.iterdir()) == []


class TestSuitePersistence:
    def test_suite_round_trip_is_lossless(self, tmp_path):
        store = ResultStore(tmp_path)
        computed = run_benchmarks(
            ("hyrise",), scale=0.002, num_accesses=4000, store=store
        )
        loaded = ResultStore(tmp_path)  # simulates a new process
        served = run_benchmarks(
            ("hyrise",), scale=0.002, num_accesses=4000, store=loaded
        )
        assert served is not computed
        for mode in computed["hyrise"]:
            a = computed["hyrise"][mode]
            b = served["hyrise"][mode]
            assert isinstance(b, SimulationResult)
            assert a.to_dict() == b.to_dict()
            assert a.slowdown == b.slowdown
            assert b.mode == mode

    def test_loaded_suite_matches_fresh_simulation(self, tmp_path):
        store = ResultStore(tmp_path)
        run_benchmarks(("hyrise",), scale=0.002, num_accesses=4000, store=store)
        served = run_benchmarks(
            ("hyrise",), scale=0.002, num_accesses=4000, store=ResultStore(tmp_path)
        )
        fresh = run_suite(("hyrise",), scale=0.002, num_accesses=4000, seed=1234)
        for mode in fresh["hyrise"]:
            assert served["hyrise"][mode].to_dict() == fresh["hyrise"][mode].to_dict()

    def test_key_change_invalidates(self, tmp_path):
        store = ResultStore(tmp_path)
        a = run_benchmarks(("hyrise",), scale=0.002, num_accesses=4000, store=store)
        b = run_benchmarks(("hyrise",), scale=0.002, num_accesses=4004, store=store)
        assert a is not b
        assert a["hyrise"]["NoProtect"].accesses == 4000
        assert b["hyrise"]["NoProtect"].accesses == 4004

    def test_no_cache_bypasses_store(self, tmp_path):
        # The suite is neither read nor written; the run's event slices and
        # verdict tiers are derived artifacts and still go to its store.
        store = ResultStore(tmp_path)
        run_benchmarks(
            ("hyrise",), scale=0.002, num_accesses=4000, store=store, use_cache=False
        )
        assert store.query(kind="suite") == []
        assert suite_key(("hyrise",), EVALUATED_MODES, 0.002, 4000, 1234, None, None) not in store

    def test_suite_key_distinguishes_configs(self):
        k_none = suite_key(("bsw",), EVALUATED_MODES, 0.002, 4000, 1234, None, None)
        k_cfg = suite_key(
            ("bsw",), EVALUATED_MODES, 0.002, 4000, 1234, SystemConfig(), None
        )
        k_opts = suite_key(
            ("bsw",), EVALUATED_MODES, 0.002, 4000, 1234, None, EngineOptions()
        )
        assert len({k_none, k_cfg, k_opts}) == 3


def packed(n=16, *, values=None):
    """A raw-bytes payload as the slice and tier encoders write one, with a
    calibration number in its header that the decoder takes as it is."""
    column = array("Q", range(n) if values is None else values)
    header = {"byteorder": sys.byteorder, "n": len(column), "llc_mpki": 2.5}
    return pack_columns(header, [column, bytes(n)])


def decode_packed(payload):
    """The decoder of :func:`packed` payloads: the header and first column."""
    header, (column, flags) = unpack_columns(payload)
    if header["byteorder"] != sys.byteorder:
        raise ValueError("packed on a different byte order")
    values = array("Q")
    values.frombytes(column)
    if len(values) != header["n"] or len(flags) != header["n"]:
        raise ValueError("column lengths disagree with the header")
    return list(values)


class TestBinaryPayloads:
    """An encoder that returns bytes has them stored raw: an inline BLOB or a
    ``.bin`` blob, read back as the same bytes after the digest check."""

    def test_small_bytes_stay_inline_and_round_trip(self, tmp_path):
        payload = packed()
        ResultStore(tmp_path).put("events-aa", payload, encoder=lambda v: v)
        (entry,) = ResultStore(tmp_path).query()
        assert entry.inline and entry.size == len(payload)
        assert not ResultStore(tmp_path).blob_dir.exists()
        assert ResultStore(tmp_path).get("events-aa") == payload
        assert ResultStore(tmp_path).get("events-aa", decoder=decode_packed) == list(range(16))

    def test_large_bytes_spill_to_a_bin_blob(self, tmp_path):
        payload = packed(INLINE_LIMIT)
        store = ResultStore(tmp_path)
        store.put("events-bb", payload, encoder=lambda v: v)
        (blob,) = store.blob_dir.iterdir()
        assert blob.suffix == ".bin" and blob.read_bytes() == payload
        received = []
        cold = ResultStore(tmp_path)
        assert cold.get("events-bb", decoder=lambda p: received.append(p) or len(p))
        assert received == [payload] and type(received[0]) is bytes

    def test_every_damage_is_a_miss_and_recomputed(self, tmp_path, binary_damage):
        store = ResultStore(tmp_path)
        store.put("events-cc", packed(), encoder=lambda v: v, keep_in_memory=False)
        binary_damage(store, "events-cc")
        assert ResultStore(tmp_path).get("events-cc", decoder=decode_packed) is None
        store.put("events-cc", packed(), encoder=lambda v: v, keep_in_memory=False)
        assert ResultStore(tmp_path).get("events-cc", decoder=decode_packed) == list(range(16))

    @pytest.mark.parametrize("where", ["index", "outside", "absolute"])
    def test_a_row_naming_a_file_outside_blobs_touches_nothing(self, tmp_path, where):
        outside = tmp_path / "outside.bin"
        outside.write_bytes(b"not a blob")
        store = ResultStore(tmp_path / "store")
        store.put("events-dd", packed(INLINE_LIMIT), encoder=lambda v: v, keep_in_memory=False)
        store.put("events-ee", packed(INLINE_LIMIT), encoder=lambda v: v, keep_in_memory=False)
        target = {"index": store.db_path, "outside": outside, "absolute": outside}[where]
        name = {"index": "../index.sqlite", "outside": "../../outside.bin"}.get(
            where, str(outside)
        )
        before = target.read_bytes()
        for key in ("events-dd", "events-ee"):
            corrupt_entry(store, key, blob=name)
        assert "events-dd" not in store
        assert ResultStore(store.root).get("events-dd") is None
        store.put("events-dd", packed(), encoder=lambda v: v)
        store.invalidate("events-ee")
        assert target.exists() and (where == "index" or target.read_bytes() == before)
        assert ResultStore(store.root).get("events-dd") == packed()

    def test_unpack_rejects_what_is_not_a_whole_payload(self):
        payload = packed()
        for broken in (payload[:3], payload[:-1], payload + b"\0", {"x": 1}, "text"):
            with pytest.raises(ValueError):
                unpack_columns(broken)

    def test_identical_bytes_share_one_blob(self, tmp_path):
        store = ResultStore(tmp_path)
        payload = packed(INLINE_LIMIT)
        store.put("events-a", payload, encoder=lambda v: v)
        store.put("events-b", payload, encoder=lambda v: v)
        assert len(list(store.blob_dir.glob("*.bin"))) == 1
        store.invalidate("events-a")
        assert ResultStore(tmp_path).get("events-b") == payload
        store.invalidate("events-b")
        assert list(store.blob_dir.iterdir()) == []

    def test_gc_drops_stale_and_orphan_bin_blobs(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("events-keep", packed(INLINE_LIMIT), encoder=lambda v: v)
        store.put("events-stale", packed(INLINE_LIMIT, values=[7] * INLINE_LIMIT),
                  encoder=lambda v: v)
        corrupt_entry(store, "events-stale", code="old-fingerprint")
        (store.blob_dir / "orphan.bin").write_bytes(b"\0")
        result = store.gc()
        assert (result.dropped_entries, result.dropped_blobs, result.kept_entries) == (1, 2, 1)
        (kept,) = store.blob_dir.iterdir()
        assert ResultStore(tmp_path).get("events-keep") == kept.read_bytes()
        store.clear()
        assert list(store.blob_dir.iterdir()) == []

    def test_stats_count_binary_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("events-aa", packed(), encoder=lambda v: v)
        store.put("events-bb", packed(INLINE_LIMIT), encoder=lambda v: v)
        store.put("suite-cc", {"x": 1}, encoder=as_json)
        stats = store.stats()
        assert (stats["entries"], stats["inline_entries"], stats["blob_entries"]) == (3, 2, 1)
        assert stats["kinds"]["events"]["bytes"] == len(packed()) + len(packed(INLINE_LIMIT))


class _BusyConnection:
    """Stands in for a connection whose every query loses the lock race."""

    def execute(self, *args, **kwargs):
        raise sqlite3.OperationalError("database is locked")


class TestBusyHandling:
    def test_exhausted_write_timeout_names_the_lock_holder(
        self, tmp_path, monkeypatch
    ):
        # WAL readers never block, but writers serialise on one lock; hold it
        # from a second connection and the store's write must give up fast
        # and say who it was waiting on -- not surface a raw sqlite error or
        # silently stop persisting.
        monkeypatch.setenv(BUSY_TIMEOUT_ENV, "50")
        store = ResultStore(tmp_path)
        store.put(content_key("busy", n=1), {"v": 1}, encoder=as_json)

        blocker = sqlite3.connect(store.db_path)
        blocker.execute("BEGIN IMMEDIATE")
        try:
            with pytest.raises(StoreBusyError) as err:
                store.put(content_key("busy", n=2), {"v": 2}, encoder=as_json)
        finally:
            blocker.rollback()
            blocker.close()
        assert err.value.holder_pid == str(os.getpid())
        assert err.value.pid_file.name == "writer.pid"
        assert "writer lock" in str(err.value)

    def test_busy_read_warns_and_serves_a_miss(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        key = content_key("busy", n=3)
        store.put(key, {"v": 3}, encoder=as_json)
        store.clear_memory()
        monkeypatch.setattr(
            store, "_connection", lambda create=False: _BusyConnection()
        )
        with pytest.warns(RuntimeWarning, match="cache miss"):
            assert store.get(key, decoder=json.loads) is None

    def test_close_reopens_on_next_access(self, tmp_path):
        store = ResultStore(tmp_path)
        key = content_key("busy", n=4)
        store.put(key, {"v": 4}, encoder=as_json)
        store.close()
        store.clear_memory()
        assert store.get(key, decoder=json.loads) == {"v": 4}
