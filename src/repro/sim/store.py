"""Persistent, content-addressed store for simulation results.

The experiment harness used to memoise suite results in a per-process dict,
which meant every new process (CI job, figure script, notebook) replayed the
full benchmark suite from scratch -- and the cache key silently omitted the
``SystemConfig``/``EngineOptions``, so two runs with different configurations
could be served each other's results.  This module fixes both:

* :func:`content_key` hashes the *complete* run description -- benchmark
  names, modes, scale, trace length, seed, and the full ``SystemConfig`` and
  ``EngineOptions`` dataclasses (recursively) -- into a stable hex digest.
  Any change to any field produces a different key.
* :class:`ResultStore` is a two-layer cache: an in-process memory layer that
  preserves object identity (repeated calls in one process return the same
  object), and an on-disk layer under ``.repro_cache/`` (override with
  ``REPRO_CACHE_DIR``) that survives across processes, so a second invocation
  of ``repro bench`` is served in milliseconds.

The disk layer is a **sqlite index** (``index.sqlite``, WAL mode) rather than
one JSON file per entry.  The motivation is the distributed-execution
roadmap: many writer processes must be able to hit the same store without
racing (WAL + one writer transaction per :meth:`ResultStore.put`), and
"what do I have cached?" must be answerable without ``stat``-ing thousands
of files (:meth:`ResultStore.query`, :meth:`ResultStore.stats`).

A payload is the ``bytes`` its encoder returns -- the packed columns of an
event slice or a verdict tier (:func:`pack_columns`), a checkpoint, or the
UTF-8 JSON text of a suite -- and its decoder gets the same ``bytes`` back.
Every index row names its payload's content, ``<sha256>.bin``, whether the
bytes sit inline in the row (small payloads) or spill to a blob file of
that name under ``blobs/`` (event streams and verdict tiers past
:data:`INLINE_LIMIT`); identical spilled payloads share one blob.  Every
disk read hashes the bytes it serves against that name, so a payload that
no longer matches it -- bit rot, a truncated or swapped blob, a hand edit
that still parses -- reads as a miss, never as data.

Corrupt, version-mismatched or damaged entries (payload bytes that fail
the digest, truncated or missing blobs, a blob column that is not a content
name) are treated as misses, never errors, and a read deletes nothing but a
blob file that failed its digest check.  Bumping ``FORMAT_VERSION``
invalidates every existing on-disk entry at once, and
:meth:`ResultStore.gc` drops entries whose recorded code fingerprint or
format no longer matches, with every blob file no row names.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import re
import sqlite3
import struct
import tempfile
import threading
import time
import warnings
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Bump whenever the serialised payload layout changes.
FORMAT_VERSION = 3

#: Default on-disk location, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable carrying a precomputed :func:`code_fingerprint` into
#: worker processes (see :func:`export_code_fingerprint`).
CODE_FINGERPRINT_ENV = "REPRO_CODE_FINGERPRINT"

#: The sqlite index file inside the store root.
INDEX_FILENAME = "index.sqlite"

#: Directory (inside the store root) holding spilled payload blobs.
BLOB_DIR_NAME = "blobs"

#: Payloads longer than this (in bytes) spill to a blob file instead of
#: living inline in the index -- the index stays small and fast to scan
#: while event streams and verdict tiers (hundreds of KiB) stay on the
#: filesystem where they belong.
INLINE_LIMIT = 32 * 1024

#: The only content names the store writes, reads or deletes: a sha256.
_CONTENT_NAME = re.compile(r"[0-9a-f]{64}\.bin")

#: The suffix of a blob file still being written (see ``_write_blob``).
_PARTIAL_SUFFIX = ".tmp"

#: How long a writer waits for a competing writer's transaction (ms).
_BUSY_TIMEOUT_MS = 30_000

#: Environment override for the busy timeout -- tests use a tiny value to
#: exercise the contention paths without waiting 30 s per probe.
BUSY_TIMEOUT_ENV = "REPRO_BUSY_TIMEOUT_MS"

#: File (inside the store root) naming the most recent writer process, so a
#: :class:`StoreBusyError` can point at who is holding the lock.  Purely
#: diagnostic: last-writer-wins, never cleaned up, never trusted for
#: correctness.
WRITER_PID_FILENAME = "writer.pid"


def _busy_timeout_ms() -> int:
    raw = os.environ.get(BUSY_TIMEOUT_ENV)
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return _BUSY_TIMEOUT_MS


def _is_busy_error(exc: BaseException) -> bool:
    """Whether a sqlite error means "writer lock still held at timeout"."""
    if not isinstance(exc, sqlite3.OperationalError):
        return False
    message = str(exc).lower()
    return "locked" in message or "busy" in message


class StoreBusyError(RuntimeError):
    """A store write gave up waiting for a competing writer's lock.

    Raised (instead of silently degrading to memory-only caching) because a
    persistently-blocked writer means the cache is not doing its job: the
    caller should know, and the message names the lock holder's pid file so
    the stuck process can be found and dealt with.
    """

    def __init__(self, db_path: Path, pid_file: Path, timeout_ms: int) -> None:
        holder = "unknown"
        try:
            holder = pid_file.read_text().strip() or "unknown"
        except OSError:
            pass
        super().__init__(
            f"store write to {db_path} timed out after {timeout_ms} ms waiting "
            f"for the writer lock (last writer recorded in {pid_file}: "
            f"pid {holder})"
        )
        self.db_path = db_path
        self.pid_file = pid_file
        self.holder_pid = holder

_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS entries (
        key     TEXT PRIMARY KEY,
        kind    TEXT NOT NULL,
        format  INTEGER NOT NULL,
        code    TEXT NOT NULL,
        size    INTEGER NOT NULL,
        payload TEXT,
        blob    TEXT
    )
    """,
    "CREATE INDEX IF NOT EXISTS entries_by_kind ON entries(kind)",
)

#: Connections inherited across fork are never reused *or* closed (closing
#: could interact with the parent's locks); parking them here keeps the
#: child's garbage collector from closing them behind our back.
_ABANDONED_CONNECTIONS: List[sqlite3.Connection] = []


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every ``repro`` source file, folded into all cache keys.

    The run parameters describe *what* was simulated, not *how*: after any
    edit to the performance model a warm ``.repro_cache/`` would otherwise
    silently keep serving the old model's numbers -- the worst failure mode
    for a reproducibility repo.  Hashing the package source makes every code
    change invalidate the persistent store automatically (conservative, but
    re-simulation is cheap next to a wrong figure).

    The hash is computed at most once per *pool*, not once per process: when
    ``REPRO_CODE_FINGERPRINT`` is set (the parent exports it via
    :func:`export_code_fingerprint` before starting worker pools), the value
    is taken from the environment and the package source is never re-read --
    spawn-start workers would otherwise each re-hash the whole tree on their
    first store access.
    """
    inherited = os.environ.get(CODE_FINGERPRINT_ENV)
    if inherited:
        return inherited
    import repro

    digest = hashlib.sha256()
    try:
        root = Path(repro.__file__).resolve().parent
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(path.read_bytes())
    except OSError:
        return getattr(repro, "__version__", "unknown")
    return digest.hexdigest()


def export_code_fingerprint() -> str:
    """Publish the parent's fingerprint to the environment for workers.

    Pool starters call this immediately before creating worker processes:
    spawn-start workers inherit the environment, so their first
    :func:`code_fingerprint` call returns the parent's value instead of
    re-hashing the entire package source per worker (fork workers inherit
    the parent's ``lru_cache`` and were already fine).
    """
    fingerprint = code_fingerprint()
    os.environ[CODE_FINGERPRINT_ENV] = fingerprint
    return fingerprint


#: Exact types :func:`_canonical` returns as they are.  Checked first, by
#: exact type: most leaves of a key are plain scalars, and an enum subclass
#: of one (an ``IntEnum``) still falls through to its enum branch.
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _canonical(value: Any) -> Any:
    """Convert a run parameter into a canonical JSON-serialisable form.

    Dataclasses are tagged with their class name so two different
    configuration types with coincidentally equal fields hash differently;
    enums collapse to their value; tuples/sets become lists.
    """
    if type(value) in _SCALARS:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__class__": type(value).__name__, **fields}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_canonical(v) for v in items]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot build a stable cache key from {type(value).__name__}")


def content_key(kind: str, **params: Any) -> str:
    """A stable content hash of a run description.

    ``kind`` namespaces the entry (``"suite"``, ``"space"``, ...); ``params``
    is everything that influences the result.  The digest is prefixed with the
    kind so cache entries remain human-identifiable in the index.
    """
    payload = {
        "kind": kind,
        "format": FORMAT_VERSION,
        "code": code_fingerprint(),
        "params": _canonical(params),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return f"{kind}-{hashlib.sha256(blob.encode('utf-8')).hexdigest()}"


def _kind_of(key: str) -> str:
    """The kind prefix of a content key (``"suite-ab12..."`` -> ``"suite"``).

    Only the trailing digest is stripped, so dashed kinds
    (``"events-slice-ab12..."`` -> ``"events-slice"``) keep their own
    namespace instead of folding into the first dash-separated word.
    """
    return key.rsplit("-", 1)[0]


def _content_name(data: bytes) -> str:
    """A payload's content name: the sha256 of its bytes, as a blob file name."""
    return hashlib.sha256(data).hexdigest() + ".bin"


#: The length prefix of a :func:`pack_columns` header.
_HEADER_SIZE = struct.Struct("<I")


def pack_columns(header: Mapping[str, Any], columns: Sequence[Any]) -> bytes:
    """A raw-bytes store payload: a small JSON header, then packed columns.

    ``columns`` are bytes-like (``bytes``, ``bytearray``, ``array``); their
    byte lengths ride in the header, so :func:`unpack_columns` can tell a
    short, long or garbled payload from a whole one.  Byte order is the
    caller's to record, as is everything else that describes the columns.
    """
    views = [memoryview(column).cast("B") for column in columns]
    meta = json.dumps(
        {**header, "columns": [view.nbytes for view in views]}, separators=(",", ":")
    ).encode("utf-8")
    return b"".join([_HEADER_SIZE.pack(len(meta)), meta, *views])


def unpack_columns(payload: Any) -> Tuple[Dict[str, Any], List[memoryview]]:
    """Split a :func:`pack_columns` payload into its header and column views.

    The views share ``payload``'s buffer.  Anything that is not a whole
    payload -- not bytes, a header that overruns the payload or does not
    parse, column lengths that leave bytes short or over -- raises
    ``ValueError``, which a store read turns into a miss.
    """
    if not isinstance(payload, bytes):
        raise ValueError(f"expected a raw-bytes payload, got {type(payload).__name__}")
    view = memoryview(payload)
    if len(view) < _HEADER_SIZE.size:
        raise ValueError("payload is shorter than its header length")
    (size,) = _HEADER_SIZE.unpack_from(view)
    cursor = _HEADER_SIZE.size + size
    if cursor > len(view):
        raise ValueError(f"a {size}-byte header overruns a {len(view)}-byte payload")
    header = json.loads(bytes(view[_HEADER_SIZE.size : cursor]).decode("utf-8"))
    lengths = header.pop("columns", None) if isinstance(header, dict) else None
    if not isinstance(lengths, list) or not all(
        type(length) is int and length >= 0 for length in lengths
    ):
        raise ValueError("payload header names no column lengths")
    if sum(lengths) != len(view) - cursor:
        raise ValueError(
            f"columns of {sum(lengths)} bytes, but {len(view) - cursor} follow the header"
        )
    columns = []
    for length in lengths:
        columns.append(view[cursor : cursor + length])
        cursor += length
    return header, columns


@dataclasses.dataclass(frozen=True)
class StoreEntry:
    """One row of the queryable index (see :meth:`ResultStore.query`)."""

    key: str
    kind: str
    size: int
    inline: bool
    stale: bool


@dataclasses.dataclass(frozen=True)
class GcResult:
    """Outcome of one :meth:`ResultStore.gc` pass."""

    dropped_entries: int
    dropped_blobs: int
    kept_entries: int


class ResultStore:
    """Two-layer (memory + sqlite-indexed disk) result cache.

    The memory layer holds the live Python objects and preserves identity;
    the disk layer holds their encoded ``bytes`` in a WAL-mode sqlite index
    (inline for small payloads, content-named blob files for large ones),
    every entry named by the sha256 of its bytes and checked against it on
    every read.  Values without an encoder stay memory-only.  Corrupt,
    damaged or version-mismatched disk entries are treated as misses, never
    errors.

    **Decoder-less contract.**  ``get(key)`` *without* a decoder serves the
    memory layer's live object when present, and otherwise the payload
    ``bytes`` exactly as the encoder returned them -- it cannot reconstruct
    the domain object, so the bytes are returned as-is and are *not*
    promoted into the memory layer (a later decoded ``get`` must still see
    the payload, not a half-typed cache line).  ``key in store`` and
    ``len(store)`` cover exactly the keys ``get`` can serve: the union of the
    memory layer and the readable disk index.  Neither hashes a payload, so
    an entry whose bytes fail the digest check still counts as present, as
    one its decoder rejects does.

    **Concurrency.**  Any number of processes may ``put``/``get``/
    ``invalidate`` against the same directory: every write is one sqlite
    transaction (concurrent writers serialise on the WAL writer lock with a
    generous busy timeout), blob files are written atomically under
    content-derived names, and readers never observe a half-written entry --
    at worst a racing delete turns a read into an honest miss.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.root = Path(root)
        self._memory: Dict[str, Any] = {}
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None
        self._pid_advertised: Optional[int] = None

    # -- paths ---------------------------------------------------------------

    @property
    def db_path(self) -> Path:
        """Location of the sqlite index file."""
        return self.root / INDEX_FILENAME

    @property
    def blob_dir(self) -> Path:
        """Directory holding spilled (content-named) payload blobs."""
        return self.root / BLOB_DIR_NAME

    @property
    def writer_pid_path(self) -> Path:
        """Diagnostic file naming the most recent writer process."""
        return self.root / WRITER_PID_FILENAME

    # -- connection management -----------------------------------------------

    def _connection(self, create: bool) -> Optional[sqlite3.Connection]:
        """The per-process sqlite connection (caller holds ``self._lock``).

        ``create=False`` avoids materialising an index for a read against a
        directory that has none.  A connection inherited across ``fork``
        belongs to the parent and is abandoned, not reused: sqlite
        connections must never cross a process boundary.
        """
        if self._conn is not None:
            if self._conn_pid == os.getpid():
                return self._conn
            _ABANDONED_CONNECTIONS.append(self._conn)
            self._conn = None
            self._conn_pid = None
        if not create and not self.db_path.exists():
            return None
        timeout_ms = _busy_timeout_ms()
        deadline = time.monotonic() + timeout_ms / 1000
        while True:
            conn = None
            try:
                self.root.mkdir(parents=True, exist_ok=True)
                conn = sqlite3.connect(
                    self.db_path,
                    timeout=timeout_ms / 1000,
                    check_same_thread=False,
                )
                conn.execute(f"PRAGMA busy_timeout={timeout_ms}")
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                with conn:
                    for statement in _SCHEMA:
                        conn.execute(statement)
                break
            except (sqlite3.Error, OSError) as exc:
                if conn is not None:
                    conn.close()
                # Switching a new index to WAL fails at once, without the
                # busy handler's wait, while another connection holds the
                # writer lock -- which is what two workers opening a fresh
                # store at once do.  Returning None there would make this
                # process's puts store nothing, silently, so wait the lock
                # out like any other writer.
                if not _is_busy_error(exc) or time.monotonic() >= deadline:
                    return None
                time.sleep(0.01)
        self._conn = conn
        self._conn_pid = os.getpid()
        return conn

    # -- blob spill ----------------------------------------------------------

    def _write_blob(self, data: bytes, name: str) -> None:
        """Atomically persist a spilled payload under its content name.

        Identical payloads under different keys share one file, and a
        partially-written or damaged blob can never be mistaken for valid
        data (the digest check on read fails).  An existing blob of the same
        name *is* the payload already -- no rewrite needed.
        """
        target = self.blob_dir / name
        if target.exists():
            return
        self.blob_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.blob_dir, suffix=_PARTIAL_SUFFIX)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, target)
        finally:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)

    def _blob_path(self, name: Any) -> Optional[Path]:
        """The file an index row's content name stands for, or ``None``.

        Only a content name -- 64 hex digits and ``.bin``, as
        :func:`_content_name` makes -- names a file.  Anything else in a
        damaged or hand-edited row (``../index.sqlite``, an absolute path)
        names nothing: its entry reads as a miss, and no read, put or
        invalidate reads or deletes a file for it.
        """
        if not isinstance(name, str) or _CONTENT_NAME.fullmatch(name) is None:
            return None
        return self.blob_dir / name

    def _release_blob(self, conn: sqlite3.Connection, name: str) -> None:
        """Drop a blob file once no spilled index row references it.

        A racing writer re-adding an entry for the same payload between the
        reference count and the unlink degrades that entry to a miss on its
        next read (missing blob), which recomputes and rewrites the blob --
        never a corrupt read.
        """
        path = self._blob_path(name)
        if path is None:
            return
        (refs,) = conn.execute(
            "SELECT COUNT(*) FROM entries WHERE blob = ? AND payload IS NULL", (name,)
        ).fetchone()
        if refs == 0:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass

    def _advertise_writer(self) -> None:
        """Record this process in the writer pid file, once per process.

        Purely diagnostic (see :class:`StoreBusyError`): the file names the
        most recent process to write this store, so a blocked writer's error
        message can point at a likely lock holder.  Never read back for
        correctness, and failures to write it are ignored.
        """
        pid = os.getpid()
        if self._pid_advertised == pid:
            return
        try:
            self.writer_pid_path.write_text(f"{pid}\n")
        except OSError:
            pass
        self._pid_advertised = pid

    def _write_row(self, conn: sqlite3.Connection, key: str, payload: bytes) -> None:
        """One writer transaction: insert/replace a single entry.

        The row names the payload's content either way; the bytes are stored
        inline as a BLOB, or past :data:`INLINE_LIMIT` in the blob file of
        that name (and the row's ``payload`` is NULL).
        """
        self._advertise_writer()
        name = _content_name(payload)
        inline: Optional[bytes] = payload
        if len(payload) > INLINE_LIMIT:
            self._write_blob(payload, name)
            inline = None
        old = conn.execute(
            "SELECT blob, payload IS NULL FROM entries WHERE key = ?", (key,)
        ).fetchone()
        with conn:
            conn.execute(
                "INSERT OR REPLACE INTO entries (key, kind, format, code, size, payload, blob)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    key,
                    _kind_of(key),
                    FORMAT_VERSION,
                    code_fingerprint(),
                    len(payload),
                    inline,
                    name,
                ),
            )
        if old is not None and old[1]:
            self._release_blob(conn, old[0])

    # -- lookup --------------------------------------------------------------

    def _read_payload(self, key: str) -> Optional[bytes]:
        """A disk entry's payload ``bytes``, checked against its content
        name, or ``None`` for a miss."""
        with self._lock:
            conn = self._connection(create=False)
            if conn is None:
                return None
            try:
                row = conn.execute(
                    "SELECT format, payload, blob FROM entries WHERE key = ?",
                    (key,),
                ).fetchone()
            except sqlite3.Error as exc:
                if _is_busy_error(exc):
                    # A read that loses the lock race is an honest miss (the
                    # caller recomputes), but a *silent* one hides that the
                    # store is thrashing -- say so once per occurrence.
                    warnings.warn(
                        f"store read of {key!r} timed out waiting for the "
                        f"writer lock on {self.db_path}; treating as a cache "
                        "miss",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                return None
        if row is None:
            return None
        fmt, payload, name = row
        if fmt != FORMAT_VERSION:
            return None
        path = None
        if payload is None:
            path = self._blob_path(name)
            if path is None:
                return None
            try:
                payload = path.read_bytes()
            except OSError:
                return None
        # The row's name *is* its payload's content hash, inline or spilled:
        # bit rot, a truncated or swapped blob, or an edit that still parses
        # fails the digest check and degrades to a miss.  A damaged blob can
        # never be served, so it goes: a put of the recomputed payload skips
        # a blob whose name exists, and would otherwise leave the damage --
        # and the miss -- in place.
        if not isinstance(payload, bytes) or _content_name(payload) != name:
            if path is not None:
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
            return None
        return payload

    def get(
        self,
        key: str,
        decoder: Optional[Callable[[bytes], Any]] = None,
        promote: bool = True,
    ) -> Optional[Any]:
        """Fetch a cached value, promoting decoded disk hits into memory.

        A disk hit is served only once its bytes match the row's content
        name.  With a ``decoder``, it is decoded, promoted into the memory
        layer and returned; a decoder that rejects the payload degrades to a
        miss.  The decoder gets the same ``bytes`` the encoder returned.
        Without one (the decoder-less contract, see the class docstring) a
        disk hit returns those bytes, un-promoted.
        ``promote=False`` skips the memory-layer insert (still serving
        memory hits): bulk streaming readers -- one event slice per window of
        a tera-scale run -- would otherwise grow the memory layer by the
        whole run.
        """
        if key in self._memory:
            return self._memory[key]
        payload = self._read_payload(key)
        if payload is None:
            return None
        if decoder is None:
            return payload
        try:
            value = decoder(payload)
        except (ValueError, KeyError, TypeError, AttributeError):
            # A stale or hand-edited payload the decoder rejects must degrade
            # to a miss and a recompute, never an exception.
            return None
        if promote:
            self._memory[key] = value
        return value

    def put(
        self,
        key: str,
        value: Any,
        encoder: Optional[Callable[[Any], bytes]] = None,
        keep_in_memory: bool = True,
    ) -> None:
        """Insert a value; with an encoder it is also written to disk.

        The encoder returns the payload ``bytes``, stored as they are under
        their content name (see the module docstring); anything else raises
        ``TypeError``.  The disk write is one sqlite transaction (plus an
        atomic blob write for spilled payloads), so concurrent writers --
        even hammering the same key -- serialise cleanly and a killed worker
        never leaves a half-written entry.  Any I/O failure degrades to
        memory-only caching rather than failing the run.
        ``keep_in_memory=False`` writes the disk layer only (requires an
        encoder -- a memory-less, encoder-less put would silently store
        nothing): streaming producers persist one window at a time without
        accumulating the run in the memory layer.
        """
        if not keep_in_memory and encoder is None:
            raise ValueError("keep_in_memory=False requires an encoder")
        if encoder is None:
            self._memory[key] = value
            return
        payload = encoder(value)
        if not isinstance(payload, bytes):
            raise TypeError(
                f"a store encoder returns bytes, {encoder!r} returned {type(payload).__name__}"
            )
        if keep_in_memory:
            self._memory[key] = value
        with self._lock:
            conn = self._connection(create=True)
            if conn is None:
                return
            try:
                self._write_row(conn, key, payload)
            except (sqlite3.Error, OSError) as exc:
                if _is_busy_error(exc):
                    # An exhausted busy timeout is not an I/O hiccup: some
                    # other process is sitting on the writer lock, every
                    # subsequent write will stall the same way, and silently
                    # dropping to memory-only caching would hide it.  Name
                    # the likely holder instead.
                    raise StoreBusyError(
                        self.db_path, self.writer_pid_path, _busy_timeout_ms()
                    ) from exc

    # -- maintenance ---------------------------------------------------------

    def close(self) -> None:
        """Close this process's sqlite connection (reopened on next access).

        Interrupt handlers call this so an aborted run does not leave an open
        handle pinning the WAL; a connection inherited across ``fork``
        belongs to the parent and is abandoned, not closed (see
        :meth:`_connection`).  The memory layer is untouched.
        """
        with self._lock:
            conn, pid = self._conn, self._conn_pid
            self._conn = None
            self._conn_pid = None
            if conn is None:
                return
            if pid != os.getpid():
                _ABANDONED_CONNECTIONS.append(conn)
                return
            try:
                conn.close()
            except sqlite3.Error:
                pass

    def invalidate(self, key: str) -> None:
        """Drop one entry from both layers."""
        self._memory.pop(key, None)
        with self._lock:
            conn = self._connection(create=False)
            if conn is None:
                return
            try:
                row = conn.execute(
                    "SELECT blob, payload IS NULL FROM entries WHERE key = ?", (key,)
                ).fetchone()
                with conn:
                    conn.execute("DELETE FROM entries WHERE key = ?", (key,))
                if row is not None and row[1]:
                    self._release_blob(conn, row[0])
            except (sqlite3.Error, OSError):
                pass

    def clear_memory(self) -> None:
        """Drop the in-process layer only (disk entries survive)."""
        self._memory.clear()

    def clear(self) -> None:
        """Drop both layers."""
        self.clear_memory()
        with self._lock:
            conn = self._connection(create=False)
            if conn is not None:
                try:
                    with conn:
                        conn.execute("DELETE FROM entries")
                except (sqlite3.Error, OSError):
                    pass
        for path in self._blob_files():
            try:
                path.unlink()
            except OSError:
                pass

    def _blob_files(self) -> List[Path]:
        """Every file under ``blobs/`` but a half-written ``.tmp``: the
        content-named blobs, and whatever an older store layout left there."""
        if not self.blob_dir.is_dir():
            return []
        return [path for path in self.blob_dir.iterdir() if path.suffix != _PARTIAL_SUFFIX]

    def gc(self) -> GcResult:
        """Compact the store: drop stale entries, orphaned blobs, vacuum.

        An entry is stale when its recorded code fingerprint no longer
        matches the current source tree (its key can never be looked up
        again -- :func:`content_key` folds the fingerprint in) or its format
        version predates the current layout.  Orphaned blob files (no spilled
        index row names them, which covers every blob an older layout wrote)
        are removed, and the index file is vacuumed so million-entry sweeps
        do not leave a bloated index behind.
        """
        current = code_fingerprint()
        with self._lock:
            conn = self._connection(create=False)
            if conn is None:
                return GcResult(dropped_entries=0, dropped_blobs=0, kept_entries=0)
            try:
                with conn:
                    dropped = conn.execute(
                        "DELETE FROM entries WHERE code != ? OR format != ?",
                        (current, FORMAT_VERSION),
                    ).rowcount
                live = {
                    name
                    for (name,) in conn.execute(
                        "SELECT DISTINCT blob FROM entries WHERE payload IS NULL"
                    )
                }
                dropped_blobs = 0
                for path in self._blob_files():
                    if path.name not in live:
                        try:
                            path.unlink()
                            dropped_blobs += 1
                        except OSError:
                            pass
                (kept,) = conn.execute("SELECT COUNT(*) FROM entries").fetchone()
                conn.execute("VACUUM")
            except (sqlite3.Error, OSError):
                return GcResult(dropped_entries=0, dropped_blobs=0, kept_entries=0)
        return GcResult(
            dropped_entries=dropped, dropped_blobs=dropped_blobs, kept_entries=kept
        )

    # -- the queryable index -------------------------------------------------

    def _rows(self, kind: Optional[str], prefix: Optional[str]) -> List[tuple]:
        with self._lock:
            conn = self._connection(create=False)
            if conn is None:
                return []
            sql = "SELECT key, kind, format, code, size, payload IS NULL FROM entries"
            clauses, args = [], []
            if kind is not None:
                clauses.append("kind = ?")
                args.append(kind)
            if prefix is not None:
                # Keys are kind prefixes + hex digests: no LIKE wildcards.
                clauses.append("key LIKE ?")
                args.append(prefix + "%")
            if clauses:
                sql += " WHERE " + " AND ".join(clauses)
            sql += " ORDER BY key"
            try:
                return conn.execute(sql, args).fetchall()
            except sqlite3.Error:
                return []

    def query(
        self, kind: Optional[str] = None, prefix: Optional[str] = None
    ) -> List[StoreEntry]:
        """Enumerate disk entries without touching any payload.

        ``kind`` filters on the key's namespace (``"suite"``, ``"events"``,
        ...); ``prefix`` on the key text itself.  Entries whose recorded
        fingerprint or format no longer matches the current source tree are
        flagged ``stale`` (see :meth:`gc`).
        """
        current = code_fingerprint()
        return [
            StoreEntry(
                key=key,
                kind=entry_kind,
                size=size,
                inline=not spilled,
                stale=(code != current or fmt != FORMAT_VERSION),
            )
            for key, entry_kind, fmt, code, size, spilled in self._rows(kind, prefix)
        ]

    def stats(self) -> Dict[str, Any]:
        """Aggregate index statistics (``repro store stats``)."""
        rows = self._rows(None, None)
        current = code_fingerprint()
        kinds: Dict[str, Dict[str, int]] = {}
        stale = spilled_total = 0
        for key, entry_kind, fmt, code, size, spilled in rows:
            info = kinds.setdefault(entry_kind, {"entries": 0, "bytes": 0})
            info["entries"] += 1
            info["bytes"] += size
            if code != current or fmt != FORMAT_VERSION:
                stale += 1
            if spilled:
                spilled_total += 1
        try:
            index_bytes = self.db_path.stat().st_size
        except OSError:
            index_bytes = 0
        return {
            "root": str(self.root),
            "entries": len(rows),
            "bytes": sum(row[4] for row in rows),
            "inline_entries": len(rows) - spilled_total,
            "blob_entries": spilled_total,
            "stale_entries": stale,
            "index_bytes": index_bytes,
            "kinds": kinds,
        }

    def disk_keys(self) -> Iterator[str]:
        """Keys currently present on disk."""
        for key, *_ in self._rows(None, None):
            yield key

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        with self._lock:
            conn = self._connection(create=False)
            if conn is None:
                return False
            try:
                row = conn.execute(
                    "SELECT format, blob, payload IS NULL FROM entries WHERE key = ?", (key,)
                ).fetchone()
            except sqlite3.Error:
                return False
        if row is None or row[0] != FORMAT_VERSION:
            return False
        path = self._blob_path(row[1])
        return path is not None and (not row[2] or path.exists())

    def __len__(self) -> int:
        disk = {row[0] for row in self._rows(None, None) if row[2] == FORMAT_VERSION}
        return len(disk | set(self._memory))


_DEFAULT_STORE: Optional[ResultStore] = None


def default_store() -> ResultStore:
    """The process-wide store: the one store every run reads and writes.

    Every layer of a run -- its suite, event slices, verdict tiers and
    checkpoints -- goes through this store, and no layer takes a store of
    its own; pool workers open the same one (same root), forked or
    spawned.  Created on first use at ``REPRO_CACHE_DIR`` (or
    ``.repro_cache/`` under the working directory).
    """
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = ResultStore()
    return _DEFAULT_STORE


def set_default_store(store: Optional[ResultStore]) -> None:
    """Replace the process-wide store, so every later run of this process
    and of the pools it starts reads and writes ``store`` (``None`` goes
    back to a store at ``REPRO_CACHE_DIR`` on next use)."""
    global _DEFAULT_STORE
    _DEFAULT_STORE = store


def close_default_connections() -> None:
    """Close the default store's per-process sqlite connection, if any.

    Called from interrupt cleanup in :mod:`repro.sim.parallel`: a
    ``KeyboardInterrupt`` mid-run must not leave the WAL pinned by a handle
    nobody will ever use again.  A no-op when no default store exists.
    """
    if _DEFAULT_STORE is not None:
        _DEFAULT_STORE.close()


__all__ = [
    "BUSY_TIMEOUT_ENV",
    "CACHE_DIR_ENV",
    "CODE_FINGERPRINT_ENV",
    "DEFAULT_CACHE_DIR",
    "FORMAT_VERSION",
    "INLINE_LIMIT",
    "WRITER_PID_FILENAME",
    "GcResult",
    "ResultStore",
    "StoreBusyError",
    "StoreEntry",
    "close_default_connections",
    "code_fingerprint",
    "content_key",
    "default_store",
    "export_code_fingerprint",
    "pack_columns",
    "set_default_store",
    "unpack_columns",
]
