"""Concurrent-writer stress test for the sqlite-backed ResultStore.

Eight processes hammer one store directory with interleaved put/get/
invalidate traffic over both shared keys (every process rewrites and
occasionally drops the same entries, including a blob-sized one) and
distinct per-process keys (never invalidated).  The contract under
contention:

* **zero corrupt reads** -- every get either misses cleanly (a racing
  invalidate) or returns a payload whose self-describing fields are
  internally consistent; never a torn or mixed-up value;
* **zero lost updates** -- every distinct key each worker wrote survives
  with exactly the value it wrote;
* **a clean index afterwards** -- sqlite integrity_check passes and a gc
  pass finds nothing stale.
"""

import json
import sqlite3
import threading

from repro.sim.parallel import _pool_context
from repro.sim.store import INLINE_LIMIT, ResultStore

WORKERS = 8
ITERATIONS = 25
SHARED_KEYS = tuple(f"suite-shared{j}" for j in range(4))
SHARED_BLOB_KEY = "events-bigshared"
DISTINCT_PER_WORKER = 6


def _shared_payload(key: str, writer: int, iteration: int) -> dict:
    # Self-describing and internally consistent: a torn read that stitched
    # two writers' payloads together would break the check digest.
    return {
        "key": key,
        "writer": writer,
        "iteration": iteration,
        "check": f"{key}:{writer}:{iteration}",
    }


def _distinct_payload(key: str, worker: int, j: int) -> dict:
    return {"key": key, "value": worker * 1000 + j}


def _blob_payload(key: str) -> dict:
    return {"key": key, "data": "b" * (INLINE_LIMIT + 64), "check": key}


def _as_json(value: dict) -> bytes:
    return json.dumps(value).encode("utf-8")


def _hammer(task):
    """Worker body: interleaved put/get/invalidate; returns observed anomalies."""
    root, worker = task
    store = ResultStore(root)
    anomalies = []

    def check_shared(key, payload):
        if payload is None:
            return  # a racing invalidate: an honest miss, not corruption
        expected = f"{payload.get('key')}:{payload.get('writer')}:{payload.get('iteration')}"
        if payload.get("key") != key or payload.get("check") != expected:
            anomalies.append(f"worker {worker}: corrupt read of {key}: {payload!r}")

    for t in range(ITERATIONS):
        shared = SHARED_KEYS[(worker + t) % len(SHARED_KEYS)]
        store.put(shared, _shared_payload(shared, worker, t), encoder=_as_json)
        store.put(SHARED_BLOB_KEY, _blob_payload(SHARED_BLOB_KEY), encoder=_as_json)

        key = f"suite-w{worker}x{t % DISTINCT_PER_WORKER}"
        store.put(key, _distinct_payload(key, worker, t % DISTINCT_PER_WORKER),
                  encoder=_as_json)

        probe = SHARED_KEYS[t % len(SHARED_KEYS)]
        try:
            # A fresh store per probe defeats the memory layer: the read
            # must come through the index, where the contention is.
            check_shared(probe, ResultStore(root).get(probe, decoder=json.loads))
            blob = ResultStore(root).get(SHARED_BLOB_KEY, decoder=json.loads)
            if blob is not None and blob.get("check") != SHARED_BLOB_KEY:
                anomalies.append(f"worker {worker}: corrupt blob read: {blob!r}")
        except Exception as exc:  # any raise under contention is a failure
            anomalies.append(f"worker {worker}: get raised {exc!r}")

        if t % 7 == worker % 7:
            store.invalidate(SHARED_KEYS[(worker + t) % len(SHARED_KEYS)])
        if t % 11 == worker % 11:
            store.invalidate(SHARED_BLOB_KEY)
    return anomalies


class TestConcurrentWriters:
    def test_eight_processes_no_lost_updates_no_corruption(self, tmp_path):
        root = str(tmp_path)
        tasks = [(root, worker) for worker in range(WORKERS)]
        with _pool_context().Pool(processes=WORKERS) as pool:
            per_worker = pool.map(_hammer, tasks, chunksize=1)

        anomalies = [a for worker in per_worker for a in worker]
        assert anomalies == []

        # Zero lost updates: every distinct key every worker wrote survives
        # with exactly the payload it wrote (distinct keys are never
        # invalidated, so nothing may be missing either).
        store = ResultStore(root)
        for worker in range(WORKERS):
            for j in range(DISTINCT_PER_WORKER):
                key = f"suite-w{worker}x{j}"
                assert store.get(key, decoder=json.loads) == _distinct_payload(key, worker, j), key

        # The index survived the contention structurally intact...
        with sqlite3.connect(store.db_path) as conn:
            (verdict,) = conn.execute("PRAGMA integrity_check").fetchone()
        assert verdict == "ok"

        # ...and a compaction pass finds nothing stale (same source tree)
        # while keeping every surviving entry readable.
        result = store.gc()
        assert result.dropped_entries == 0
        clean = ResultStore(root)
        for worker in range(WORKERS):
            for j in range(DISTINCT_PER_WORKER):
                key = f"suite-w{worker}x{j}"
                assert clean.get(key, decoder=json.loads) == _distinct_payload(key, worker, j), key


class TestFreshIndex:
    def test_a_put_waits_out_a_writer_on_a_fresh_index(self, tmp_path):
        # Opening a fresh index switches it to WAL, which fails at once --
        # without the busy handler's wait -- while another connection holds
        # the writer lock.  Two workers opening one new store race on exactly
        # that, and the loser's puts stored nothing.
        store = ResultStore(tmp_path)
        holder = sqlite3.connect(store.db_path, isolation_level=None, check_same_thread=False)
        holder.execute("CREATE TABLE held (x)")
        holder.execute("BEGIN IMMEDIATE")
        release = threading.Timer(0.3, holder.execute, ("COMMIT",))
        release.start()
        try:
            store.put("suite-fresh", {"a": 1}, encoder=_as_json, keep_in_memory=False)
        finally:
            release.join()
            holder.close()
        assert ResultStore(tmp_path).get("suite-fresh", decoder=json.loads) == {"a": 1}
