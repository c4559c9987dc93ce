"""Mode-independent miss-event distillation.

Every registered protection mode replays the *identical* access stream
through the *identical* L1/L2/L3 data hierarchy: the hierarchy sees only
``(address, is_write)`` pairs, never anything mode-specific, so with ten
registered modes ≥90% of a suite's replay time recomputes a hit/miss
sequence that was already known after the first mode.  This module factors
that work out:

* :class:`HierarchyDistiller` runs the trace through a rewritten hot-path
  model of the three-level hierarchy **once**, by one of two passes with one
  oracle.  The dict pass walks the accesses one by one over flat per-set
  dicts keyed by tag with insertion-order LRU (no ``OrderedDict``-of-
  ``_Line`` objects, no per-access result allocation); it is pinned
  bit-identical in every counter to
  :class:`repro.cache.hierarchy.CacheHierarchy` and runs on numpy-free
  installs.  Wherever numpy imports the lockstep pass runs instead: a window
  goes through L1, then L1's misses through L2, then L2's misses through
  L3, and each level serves every set at once, step by step.  It is exact
  because each level is a plain LRU cache over its own input, and it is
  pinned against the dict pass window by window;
* the result is a :class:`MissEventStream`: packed arrays of (global access
  index, address, is_write, optional writeback address) for every LLC miss,
  plus the final per-level :class:`~repro.cache.cache.CacheStats`;
* :meth:`repro.sim.engine.SimulationEngine.replay_events` then drives the
  rack memory and the protection-path components from the event stream
  alone.  This is exact by construction: a cache *hit* touches nothing
  outside the hierarchy, so skipping it cannot change any accumulator, and
  index-periodic ``on_access`` telemetry is re-fired at its recorded global
  indices between events.

Distilled streams are content-keyed by the trace identity plus the *cache
geometry only* (:func:`events_key`) -- protection mode, memory latencies and
engine options do not appear in the key -- so one pre-pass feeds every mode
of a suite, in this process (the store's memory layer), across processes
(``.repro_cache/``), and across shard chains.

**Exactness contract.**  Distillation is an execution strategy, not a model
change: for every registered mode, at every shard width, a distilled run
produces counters *bit-identical* -- every integer and every float -- to the
full per-access replay (pinned by ``tests/sim/test_distill.py``, including
hypothesis-generated traces).  Because the results are identical, distilled
and undistilled runs **share persistent-store keys**: whether distillation
ran never appears in a result's key, a cached undistilled suite serves a
distilled request and vice versa, and ``repro reproduce-all`` provenance
stamps are strategy-independent.  Any change that breaks this identity must
either be fixed or become a separately-keyed, explicitly-opt-in path.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cache.cache import CacheStats
from repro.core.config import CacheConfig, SystemConfig
from repro.sim.store import (
    ResultStore,
    content_key,
    default_store,
    pack_columns,
    unpack_columns,
)
from repro.workloads.base import Trace, calibrated_instruction_count

try:  # numpy is optional: without it the column views (and the vectorized
    # replay core built on them) are unavailable and everything falls back
    # to the dict pass and the scalar event replay -- exact either way.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-free installs
    _np = None

#: Whether numpy imports: the one observation every numpy path reads -- the
#: distiller's lockstep pass, :meth:`MissEventStream.validate` and the replay
#: core's batch kernels (:func:`repro.sim.replaycore.vectorizable`).  Tests
#: patch it here to run either side of all of them at once.
HAVE_NUMPY = _np is not None

#: Sentinel in ``writeback_addresses`` for events that evicted no dirty line.
#: Real addresses are far below it (the synthetic address space tops out at
#: the counter-tree metadata region around 2^45).
WB_NONE = (1 << 64) - 1

#: Names of the hierarchy levels, in access order.
LEVELS = ("l1", "l2", "l3")


@dataclass
class MissEventStream:
    """The distilled form of one trace window under one cache geometry.

    Carries everything the engine reads from a workload (name, footprint,
    MPKI calibration) plus the packed per-event arrays and the final
    hierarchy counters, so a stream can stand in for its source trace on the
    event-replay path -- a warm event store never regenerates the trace.

    ``start_index`` / ``num_accesses`` describe the half-open window of the
    parent trace this stream covers (full-run streams start at 0); event
    ``indices`` are *global* trace indices.  Windowed streams produced by
    :meth:`HierarchyDistiller.advance` concatenate (:meth:`concat`) back into
    exactly the stream a one-shot distillation of the whole window produces
    -- counters telescope the same way :meth:`Trace.shards` instruction
    counts do.
    """

    name: str
    scale: float
    seed: int
    footprint_bytes: int
    llc_mpki: float
    instructions_per_access: float
    num_accesses: int
    start_index: int = 0
    indices: array = field(default_factory=lambda: array("Q"))
    addresses: array = field(default_factory=lambda: array("Q"))
    writes: bytearray = field(default_factory=bytearray)
    writeback_addresses: array = field(default_factory=lambda: array("Q"))
    level_stats: Dict[str, CacheStats] = field(
        default_factory=lambda: {level: CacheStats() for level in LEVELS}
    )
    memory_accesses: int = 0
    hierarchy_writebacks: int = 0

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def llc_misses(self) -> int:
        return self.level_stats["l3"].misses

    @property
    def stop_index(self) -> int:
        return self.start_index + self.num_accesses

    def events(self) -> Iterator[Tuple[int, int, bool, Optional[int]]]:
        """Yield ``(global index, address, is_write, writeback or None)``."""
        for i, address, write, wb in zip(
            self.indices, self.addresses, self.writes, self.writeback_addresses
        ):
            yield i, address, bool(write), None if wb == WB_NONE else wb

    def _column(self, buffer, dtype) -> "_np.ndarray":
        if _np is None:
            raise RuntimeError(
                "numpy is required for the packed column views; "
                "install it or iterate events() instead"
            )
        view = _np.frombuffer(buffer, dtype=dtype)
        view.flags.writeable = False
        return view

    @property
    def index_view(self) -> "_np.ndarray":
        """Zero-copy ``uint64`` view of the global event indices.

        All four ``*_view`` properties wrap the packed builtin arrays with
        ``np.frombuffer`` -- no copy, read-only.  Taking a view exports the
        underlying buffer, so appending to the stream while any view is alive
        raises ``BufferError``; take views only from fully built streams
        (every stream handed to the replay path already is).
        """
        return self._column(self.indices, _np.uint64)

    @property
    def address_view(self) -> "_np.ndarray":
        """Zero-copy ``uint64`` view of the miss addresses."""
        return self._column(self.addresses, _np.uint64)

    @property
    def write_view(self) -> "_np.ndarray":
        """Zero-copy ``uint8`` view of the demand-write flags."""
        return self._column(self.writes, _np.uint8)

    @property
    def writeback_view(self) -> "_np.ndarray":
        """Zero-copy ``uint64`` view of the writeback addresses.

        Events without a dirty eviction hold :data:`WB_NONE`.
        """
        return self._column(self.writeback_addresses, _np.uint64)

    def instruction_count(self, num_accesses: int, llc_misses: Optional[int] = None) -> int:
        """Identical calibration to :meth:`Trace.instruction_count`, so the
        stream can replace the trace in :meth:`SimulationEngine.finish`."""
        return calibrated_instruction_count(
            num_accesses,
            self.llc_mpki,
            self.instructions_per_access,
            llc_misses=llc_misses,
            start_index=self.start_index,
        )

    def run_meta(self, num_accesses: int) -> "MissEventStream":
        """A metadata-only stand-in for the *whole run* this slice belongs to.

        Carries the workload identity and calibration constants with
        ``start_index`` 0 and no events, so a shard step replaying slices can
        hand :meth:`SimulationEngine.finish` a run-level subject without ever
        materialising the run's trace or full event stream.  A
        slice with ``start_index > 0`` must not be that subject itself: its
        uncalibrated instruction fallback counts only its own window.
        """
        return MissEventStream(
            name=self.name,
            scale=self.scale,
            seed=self.seed,
            footprint_bytes=self.footprint_bytes,
            llc_mpki=self.llc_mpki,
            instructions_per_access=self.instructions_per_access,
            num_accesses=num_accesses,
        )

    def validate(self) -> None:
        """Check the structural invariants every distilled stream satisfies."""
        lengths = {
            len(self.indices),
            len(self.addresses),
            len(self.writes),
            len(self.writeback_addresses),
        }
        if len(lengths) != 1:
            raise ValueError(f"event arrays disagree on length: {sorted(lengths)}")
        if len(self.indices) != self.level_stats["l3"].misses:
            raise ValueError(
                f"{len(self.indices)} events but {self.level_stats['l3'].misses} "
                "L3 misses -- every LLC miss must be exactly one event"
            )
        if self.memory_accesses != self.level_stats["l3"].misses:
            raise ValueError("memory_accesses must equal L3 misses")
        unordered = None
        if HAVE_NUMPY:
            # The same checks over the column views: every store read
            # validates its slice, so the per-event loop stays for numpy-free
            # installs.  No view outlives the block, so the stream can still
            # grow after a failed check.
            indices = self.index_view
            behind = _np.flatnonzero(indices[1:] <= indices[:-1]) + 1
            if indices.size and indices[0] < self.start_index:
                unordered = int(indices[0])
            elif behind.size:
                unordered = int(indices[behind[0]])
            del indices
            wb_count = int(_np.count_nonzero(self.writeback_view != _np.uint64(WB_NONE)))
        else:
            previous = self.start_index - 1
            for index in self.indices:
                if index <= previous:
                    unordered = index
                    break
                previous = index
            wb_count = sum(1 for wb in self.writeback_addresses if wb != WB_NONE)
        if unordered is not None:
            raise ValueError(f"event indices not strictly increasing at {unordered}")
        if self.indices and self.indices[-1] >= self.stop_index:
            raise ValueError("event index beyond the stream's window")
        if wb_count != self.hierarchy_writebacks:
            raise ValueError(
                f"{wb_count} writeback events but {self.hierarchy_writebacks} recorded"
            )

    @classmethod
    def concat(cls, streams: Sequence["MissEventStream"]) -> "MissEventStream":
        """Concatenate contiguous window streams into one covering stream.

        Windows must abut (each starts where the previous stopped); counters
        sum, so ``concat(distiller windows) == one-shot distillation`` -- the
        telescoping property the tests pin.
        """
        if not streams:
            raise ValueError("cannot concatenate zero streams")
        first = streams[0]
        merged = cls(
            name=first.name,
            scale=first.scale,
            seed=first.seed,
            footprint_bytes=first.footprint_bytes,
            llc_mpki=first.llc_mpki,
            instructions_per_access=first.instructions_per_access,
            num_accesses=0,
            start_index=first.start_index,
        )
        cursor = first.start_index
        for stream in streams:
            if stream.start_index != cursor:
                raise ValueError(
                    f"window starting at {stream.start_index} does not abut "
                    f"the previous stop at {cursor}"
                )
            cursor = stream.stop_index
            merged.num_accesses += stream.num_accesses
            merged.indices.extend(stream.indices)
            merged.addresses.extend(stream.addresses)
            merged.writes.extend(stream.writes)
            merged.writeback_addresses.extend(stream.writeback_addresses)
            merged.memory_accesses += stream.memory_accesses
            merged.hierarchy_writebacks += stream.hierarchy_writebacks
            for level in LEVELS:
                merged.level_stats[level] = merged.level_stats[level].merge(
                    stream.level_stats[level]
                )
        return merged

    # -- persistent-store serialisation -------------------------------------

    def to_payload(self) -> bytes:
        """The store payload: a JSON header, then the four packed columns raw
        (:func:`~repro.sim.store.pack_columns`)."""
        header = {
            "name": self.name,
            "scale": self.scale,
            "seed": self.seed,
            "footprint_bytes": self.footprint_bytes,
            "llc_mpki": self.llc_mpki,
            "instructions_per_access": self.instructions_per_access,
            "num_accesses": self.num_accesses,
            "start_index": self.start_index,
            "byteorder": sys.byteorder,
            "level_stats": {level: vars(stats).copy() for level, stats in self.level_stats.items()},
            "memory_accesses": self.memory_accesses,
            "hierarchy_writebacks": self.hierarchy_writebacks,
        }
        return pack_columns(
            header, (self.indices, self.addresses, self.writes, self.writeback_addresses)
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "MissEventStream":
        header, columns = unpack_columns(payload)
        if header.get("byteorder") != sys.byteorder:
            # A cache directory shared across differently-endian machines;
            # ValueError degrades to a store miss and a local re-distillation.
            raise ValueError("event stream was packed on a different byte order")
        if len(columns) != 4:
            raise ValueError(f"an event stream has 4 columns, the payload {len(columns)}")
        indices, addresses, writes, writebacks = columns

        def unpack(column: memoryview) -> array:
            packed = array("Q")
            packed.frombytes(column)
            return packed

        stream = cls(
            name=header["name"],
            scale=header["scale"],
            seed=header["seed"],
            footprint_bytes=header["footprint_bytes"],
            llc_mpki=header["llc_mpki"],
            instructions_per_access=header["instructions_per_access"],
            num_accesses=header["num_accesses"],
            start_index=header["start_index"],
            indices=unpack(indices),
            addresses=unpack(addresses),
            writes=bytearray(writes),
            writeback_addresses=unpack(writebacks),
            level_stats={
                level: CacheStats(**stats) for level, stats in header["level_stats"].items()
            },
            memory_accesses=header["memory_accesses"],
            hierarchy_writebacks=header["hierarchy_writebacks"],
        )
        stream.validate()
        return stream


#: Subtracted from a way's key when its tag matches, which puts a hit below
#: every empty or valid way of its set.  Keys stay below it while the level
#: has run fewer than ``2**(61 - shift)`` steps.
_HIT = 1 << 62

#: The tag of an empty way.  Only a level of one set and one-byte lines
#: could see it as a real tag; the distiller keeps such levels on the
#: dict pass.
_EMPTY_TAG = (1 << 64) - 1

#: The most sets one lockstep step serves at once.  A step's sets are
#: independent, so a wide step (an L3 serves thousands of sets per step) is
#: cut into slices of this many, which bounds its ``(ways, sets)`` temporaries
#: to a few hundred KiB.
_STEP_SETS = 2048


def _radix_key(values: "_np.ndarray", bound: int) -> "_np.ndarray":
    """``values`` (all below ``bound``) as a key numpy stable-sorts by radix."""
    return values.astype(_np.uint16) if bound <= 1 << 16 else values


class _LevelState:
    """One cache level of the distiller: geometry, counters and its lines.

    The dict pass keeps each set as a plain dict mapping tag -> dirty flag;
    dict insertion order *is* the LRU order (``d[tag] = d.pop(tag)`` is
    move-to-end, the first key is the victim), which reproduces
    :class:`SetAssociativeCache`'s true-LRU behaviour without
    ``OrderedDict`` overhead or per-line objects.

    The lockstep pass (:meth:`lockstep`) keeps way-major ``(ways, num_sets)``
    arrays instead: ``tags`` and one int64 ``keys`` word per way,
    ``(stamp << shift) | slot`` with ``stamp = 2 * step + dirty`` and
    ``slot = way * num_sets + set`` (the way's flat index).  An empty way
    holds stamp -2, so the smallest key of a set is its first empty way,
    else its least recently used one, and a single ``min`` picks the victim
    and names its slot.
    """

    __slots__ = (
        "line_bytes",
        "num_sets",
        "ways",
        "sets",
        "hits",
        "misses",
        "evictions",
        "dirty_evictions",
        "insertions",
        "tags",
        "keys",
        "shift",
        "clock",
    )

    def __init__(self, cfg: CacheConfig) -> None:
        if cfg.size_bytes <= 0 or cfg.ways <= 0 or cfg.line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        lines = cfg.size_bytes // cfg.line_bytes
        if lines == 0:
            raise ValueError("cache must hold at least one line")
        self.line_bytes = cfg.line_bytes
        self.ways = min(cfg.ways, lines)
        self.num_sets = max(1, lines // self.ways)
        self.sets: List[Dict[int, bool]] = [{} for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.insertions = 0

    def to_lockstep(self) -> None:
        """Swap the (still empty) dict sets for the lockstep pass's arrays."""
        slots = self.ways * self.num_sets
        self.sets = []
        self.shift = (slots - 1).bit_length()
        self.tags = _np.full((self.ways, self.num_sets), _EMPTY_TAG, dtype=_np.uint64)
        self.keys = _np.arange(slots, dtype=_np.int64).reshape(self.ways, self.num_sets)
        self.keys |= -2 << self.shift
        self.clock = 0

    def lockstep(
        self,
        sets: "_np.ndarray",
        tags: "_np.ndarray",
        fill_dirty: Optional["_np.ndarray"],
        write_hits_dirty: bool,
        writebacks: bool = False,
    ) -> Tuple["_np.ndarray", Optional["_np.ndarray"]]:
        """Run one window's input through this level, every set in lockstep.

        Sets are independent, so step k serves the k-th access of every set
        at once.  A hit is a tag match.  A miss fills the set's first empty
        way, else evicts its least recently used one, and the fill is dirty
        where ``fill_dirty`` says so (``None``: always clean).  With
        ``write_hits_dirty`` a hit ORs its ``fill_dirty`` flag into the line
        (L1's write hits); otherwise a hit keeps the line's bit (L3).

        Returns the miss mask over the input and, with ``writebacks``, each
        access's writeback address: the dirty victim's line address, or
        :data:`WB_NONE`.  The counters advance by the window's deltas.
        """
        np = _np
        n = len(sets)
        counts = np.bincount(sets, minlength=self.num_sets)
        by_set = np.argsort(_radix_key(sets, self.num_sets), kind="stable")
        rank = np.empty(n, dtype=np.intp)
        rank[by_set] = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
        del by_set
        depth = int(counts.max())
        order = np.argsort(_radix_key(rank, depth), kind="stable")
        bounds = [0]
        for end in np.cumsum(np.bincount(rank, minlength=depth)).tolist():
            bounds.extend(range(bounds[-1] + _STEP_SETS, end, _STEP_SETS))
            bounds.append(end)
        shift = self.shift
        dirty = 1 << shift
        slot_mask = dirty - 1
        hit_floor = -2 << shift
        # Each access's new key, less its slot: its step's stamp and its
        # fill's dirty bit.
        fills = (rank[order] + self.clock) * 2
        del rank
        if fill_dirty is not None:
            fills += fill_dirty[order]
        fills <<= shift
        step_sets = sets[order]
        step_tags = tags[order]
        chosen = np.empty(n, dtype=np.int64)
        victims = np.empty(n, dtype=np.uint64) if writebacks else None
        keys, way_tags = self.keys, self.tags
        flat_keys, flat_tags = keys.reshape(-1), way_tags.reshape(-1)
        for start, stop in zip(bounds, bounds[1:]):
            at = step_sets[start:stop]
            tag = step_tags[start:stop]
            candidates = keys.take(at, axis=1)
            np.subtract(candidates, _HIT, out=candidates, where=way_tags.take(at, axis=1) == tag)
            best = np.minimum.reduce(candidates, axis=0, out=chosen[start:stop])
            slot = best & slot_mask
            if writebacks:
                victims[start:stop] = flat_tags.take(slot)
            flat_tags[slot] = tag
            fill = fills[start:stop]
            if write_hits_dirty:
                # A hit (or an empty way, whose bit is clear) keeps its
                # dirty bit; an evicted line's goes with it.
                flat_keys[slot] = best & ((best >> 63) & dirty | slot_mask) | fill
            else:
                flat_keys[slot] = np.where(
                    best < hit_floor, fill & ~dirty | best & (dirty | slot_mask), fill | slot
                )
        self.clock += depth
        del fills, step_sets, step_tags
        # Back to input order.
        outcome = np.empty(n, dtype=np.int64)
        outcome[order] = chosen
        del chosen
        missed = outcome >= hit_floor
        evicted = outcome >= 0
        dirty_evicted = evicted & (outcome & dirty != 0)
        misses = int(np.count_nonzero(missed))
        self.hits += n - misses
        self.misses += misses
        self.insertions += misses
        self.evictions += int(np.count_nonzero(evicted))
        self.dirty_evictions += int(np.count_nonzero(dirty_evicted))
        if not writebacks:
            return missed, None
        victim_tags = np.empty(n, dtype=np.uint64)
        victim_tags[order] = victims
        lines = (victim_tags * self.num_sets + sets.astype(np.uint64)) * self.line_bytes
        return missed, np.where(dirty_evicted, lines, np.uint64(WB_NONE))

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            dirty_evictions=self.dirty_evictions,
            insertions=self.insertions,
        )


class HierarchyDistiller:
    """One-pass hierarchy simulation producing a :class:`MissEventStream`.

    The distiller is resumable: :meth:`advance` consumes a contiguous window
    of the trace and returns that window's stream (events plus *per-window*
    counter deltas), keeping the cache state across calls -- which is how the
    sharded execution path distills each shard window exactly once while the
    windows still concatenate to the full-trace stream.

    It has two passes and picks one at construction, from what it observes:
    the numpy lockstep pass (:meth:`_lockstep`) whenever numpy imports
    (:data:`HAVE_NUMPY`), as workers pick the batch kernels, and the dict
    loop (:meth:`_run`) otherwise.  The dict loop is the oracle the lockstep
    pass is pinned against, window by window; neither is ever a flag or a
    store-key axis.
    """

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config if config is not None else SystemConfig()
        self.l1 = _LevelState(self.config.l1_config)
        self.l2 = _LevelState(self.config.l2_config)
        self.l3 = _LevelState(self.config.l3_config)
        self.memory_accesses = 0
        self.writebacks = 0
        self.position = 0
        levels = (self.l1, self.l2, self.l3)
        #: Which pass this distiller runs: the lockstep pass, or the dict loop.
        self.lockstep = HAVE_NUMPY and all(
            level.num_sets * level.line_bytes > 1 for level in levels
        )
        if self.lockstep:
            for level in levels:
                level.to_lockstep()

    def distill(self, trace: Trace, num_accesses: Optional[int] = None) -> MissEventStream:
        """Distill a full trace from a cold hierarchy in one call."""
        if self.position != 0:
            raise ValueError("distill() needs a fresh distiller; use advance()")
        total = len(trace) if num_accesses is None else num_accesses
        return self.advance(trace, 0, total)

    def advance(self, trace: Trace, start: int, stop: int) -> MissEventStream:
        """Distill the window ``[start, stop)`` (global indices), statefully.

        The window must begin where the previous one stopped; the returned
        stream's counters are the deltas over this window only.
        """
        if start != self.position:
            raise ValueError(
                f"distiller is at access {self.position}, cannot advance from {start}"
            )
        if not trace.start_index <= start <= stop <= trace.start_index + len(trace):
            raise ValueError(f"window [{start}, {stop}) is outside the trace")

        stream = MissEventStream(
            name=trace.name,
            scale=trace.scale,
            seed=trace.seed,
            footprint_bytes=trace.footprint_bytes,
            llc_mpki=trace.llc_mpki,
            instructions_per_access=trace.instructions_per_access,
            num_accesses=stop - start,
            start_index=start,
        )
        before = [level.stats() for level in (self.l1, self.l2, self.l3)]
        memory_before = self.memory_accesses
        writebacks_before = self.writebacks

        if self.lockstep:
            self._lockstep(trace, start, stop, stream)
        else:
            self._run(trace, start, stop, stream)
        self.position = stop

        for name, level, prior in zip(LEVELS, (self.l1, self.l2, self.l3), before):
            current = level.stats()
            stream.level_stats[name] = CacheStats(
                hits=current.hits - prior.hits,
                misses=current.misses - prior.misses,
                evictions=current.evictions - prior.evictions,
                dirty_evictions=current.dirty_evictions - prior.dirty_evictions,
                insertions=current.insertions - prior.insertions,
            )
        stream.memory_accesses = self.memory_accesses - memory_before
        stream.hierarchy_writebacks = self.writebacks - writebacks_before
        return stream

    def _lockstep(self, trace: Trace, start: int, stop: int, stream: MissEventStream) -> None:
        """The numpy pass: the window runs level by level, each level in lockstep.

        Each level is a plain LRU cache over its own input -- L1 over every
        access, L2 over L1's misses (always filled clean), L3 over L2's
        misses -- so the window runs through L1 whole, then its misses
        through L2, then theirs through L3, and within a level
        :meth:`_LevelState.lockstep` serves every set at once.  An L3 miss
        that evicts a dirty line is that event's writeback.  Exact: pinned
        against :meth:`_run` window by window.
        """
        if stop == start:
            return
        np = _np
        offset = start - trace.start_index
        count = stop - start
        addresses = np.frombuffer(trace.addresses, dtype=np.uint64, count=count, offset=8 * offset)
        writes = np.frombuffer(trace.writes, dtype=np.uint8, count=count, offset=offset)
        written = writes != 0
        l1, l2, l3 = self.l1, self.l2, self.l3

        blocks = addresses // l1.line_bytes
        missed, _ = l1.lockstep(
            (blocks % l1.num_sets).astype(np.intp), blocks // l1.num_sets, written, True
        )
        at = np.flatnonzero(missed)  # window offsets of the accesses reaching L2
        lines = blocks[at] * l1.line_bytes
        del blocks, missed

        # L2 fills clean and is never dirtied, so either hit rule holds; the
        # L1 one is cheaper.
        blocks = lines // l2.line_bytes
        missed, _ = l2.lockstep(
            (blocks % l2.num_sets).astype(np.intp), blocks // l2.num_sets, None, True
        )
        at, lines = at[missed], lines[missed]

        blocks = lines // l3.line_bytes
        missed, writebacks = l3.lockstep(
            (blocks % l3.num_sets).astype(np.intp),
            blocks // l3.num_sets,
            written[at],
            False,
            writebacks=True,
        )
        at, writebacks = at[missed], writebacks[missed]
        del blocks, lines, missed

        self.memory_accesses += len(at)
        self.writebacks += int(np.count_nonzero(writebacks != np.uint64(WB_NONE)))
        stream.indices.frombytes((at + start).astype(np.uint64).tobytes())
        stream.addresses.frombytes(addresses[at].tobytes())
        stream.writes.extend(writes[at].tobytes())
        stream.writeback_addresses.frombytes(writebacks.tobytes())

    def _run(self, trace: Trace, start: int, stop: int, stream: MissEventStream) -> None:
        """The dict pass: the rewritten hot loop, and the lockstep pass's oracle.

        Everything is bound to locals and inlined: one dict lookup per level,
        LRU via ``d[tag] = d.pop(tag)``, victim via ``next(iter(d))``.  The
        semantics (including every stat counter) are pinned against
        :class:`CacheHierarchy` by the differential tests, and it runs on
        numpy-free installs.
        """
        offset = trace.start_index
        addresses = trace.addresses
        writes = trace.writes

        l1, l2, l3 = self.l1, self.l2, self.l3
        l1_line, l2_line, l3_line = l1.line_bytes, l2.line_bytes, l3.line_bytes
        l1_sets_n, l2_sets_n, l3_sets_n = l1.num_sets, l2.num_sets, l3.num_sets
        l1_ways, l2_ways, l3_ways = l1.ways, l2.ways, l3.ways
        l1_sets, l2_sets, l3_sets = l1.sets, l2.sets, l3.sets

        l1_hits, l1_misses, l1_insertions = l1.hits, l1.misses, l1.insertions
        l1_evictions, l1_dirty = l1.evictions, l1.dirty_evictions
        l2_hits, l2_misses, l2_insertions = l2.hits, l2.misses, l2.insertions
        l2_evictions, l2_dirty = l2.evictions, l2.dirty_evictions
        l3_hits, l3_misses, l3_insertions = l3.hits, l3.misses, l3.insertions
        l3_evictions, l3_dirty = l3.evictions, l3.dirty_evictions
        memory_accesses = self.memory_accesses
        writebacks = self.writebacks

        ev_indices = stream.indices
        ev_addresses = stream.addresses
        ev_writes = stream.writes
        ev_wbs = stream.writeback_addresses

        for i in range(start, stop):
            address = addresses[i - offset]
            is_write = writes[i - offset]

            block = address // l1_line
            block_addr = block * l1_line

            # -- L1 ----------------------------------------------------------
            set1 = l1_sets[block % l1_sets_n]
            tag1 = block // l1_sets_n
            if tag1 in set1:
                l1_hits += 1
                if is_write:
                    set1[tag1] = set1.pop(tag1) or True
                else:
                    set1[tag1] = set1.pop(tag1)
                continue
            l1_misses += 1

            # -- L2 ----------------------------------------------------------
            block2 = block_addr // l2_line
            set2 = l2_sets[block2 % l2_sets_n]
            tag2 = block2 // l2_sets_n
            if tag2 in set2:
                l2_hits += 1
                set2[tag2] = set2.pop(tag2)
                # fill L1
                if len(set1) >= l1_ways:
                    victim = next(iter(set1))
                    l1_evictions += 1
                    if set1.pop(victim):
                        l1_dirty += 1
                set1[tag1] = bool(is_write)
                l1_insertions += 1
                continue
            l2_misses += 1

            # -- L3 ----------------------------------------------------------
            block3 = block_addr // l3_line
            set3 = l3_sets[block3 % l3_sets_n]
            tag3 = block3 // l3_sets_n
            if tag3 in set3:
                l3_hits += 1
                set3[tag3] = set3.pop(tag3)
            else:
                # LLC miss: fetch from memory, fill L3, maybe evict dirty.
                l3_misses += 1
                memory_accesses += 1
                wb = WB_NONE
                if len(set3) >= l3_ways:
                    victim = next(iter(set3))
                    l3_evictions += 1
                    if set3.pop(victim):
                        l3_dirty += 1
                        writebacks += 1
                        wb = (victim * l3_sets_n + block3 % l3_sets_n) * l3_line
                set3[tag3] = bool(is_write)
                l3_insertions += 1
                ev_indices.append(i)
                ev_addresses.append(address)
                ev_writes.append(is_write)
                ev_wbs.append(wb)

            # fill L2 (clean) and L1 on both the L3-hit and the miss paths
            if len(set2) >= l2_ways:
                victim = next(iter(set2))
                l2_evictions += 1
                if set2.pop(victim):
                    l2_dirty += 1
            set2[tag2] = False
            l2_insertions += 1

            if len(set1) >= l1_ways:
                victim = next(iter(set1))
                l1_evictions += 1
                if set1.pop(victim):
                    l1_dirty += 1
            set1[tag1] = bool(is_write)
            l1_insertions += 1

        l1.hits, l1.misses, l1.insertions = l1_hits, l1_misses, l1_insertions
        l1.evictions, l1.dirty_evictions = l1_evictions, l1_dirty
        l2.hits, l2.misses, l2.insertions = l2_hits, l2_misses, l2_insertions
        l2.evictions, l2.dirty_evictions = l2_evictions, l2_dirty
        l3.hits, l3.misses, l3.insertions = l3_hits, l3_misses, l3_insertions
        l3.evictions, l3.dirty_evictions = l3_evictions, l3_dirty
        self.memory_accesses = memory_accesses
        self.writebacks = writebacks


# ---------------------------------------------------------------------------
# Content-keyed caching: one pre-pass per (trace, cache geometry), ever
# ---------------------------------------------------------------------------

def geometry_fields(config: Optional[SystemConfig]) -> Dict[str, Tuple[int, int, int]]:
    """The cache-geometry projection of a :class:`SystemConfig`.

    Only size, associativity and line size shape the hit/miss sequence;
    latencies, bandwidths and protection parameters do not, so configs that
    differ only in those share one distilled stream.
    """
    cfg = config if config is not None else SystemConfig()
    return {
        level: (level_cfg.size_bytes, level_cfg.ways, level_cfg.line_bytes)
        for level, level_cfg in (
            ("l1", cfg.l1_config),
            ("l2", cfg.l2_config),
            ("l3", cfg.l3_config),
        )
    }


def events_key(
    name: str,
    scale: float,
    seed: int,
    num_accesses: int,
    config: Optional[SystemConfig] = None,
) -> str:
    """Content hash of one distilled stream: trace identity + cache geometry.

    Deliberately independent of protection mode, engine options and the
    non-geometry parts of the config, so every mode of every suite over the
    same trace shares the single entry.
    """
    return content_key(
        "events",
        benchmark=name,
        scale=scale,
        seed=seed,
        num_accesses=num_accesses,
        geometry=geometry_fields(config),
    )


def slice_bounds(num_accesses: int, window: int) -> List[Tuple[int, int]]:
    """The half-open window partition ``[0, num_accesses)`` in ``window`` steps.

    The final window absorbs the remainder, mirroring
    :func:`repro.sim.shard.shard_bounds` for shard planning.
    """
    if num_accesses <= 0:
        raise ValueError(f"num_accesses must be positive, got {num_accesses}")
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    return [
        (start, min(start + window, num_accesses))
        for start in range(0, num_accesses, window)
    ]


def events_slice_key(
    name: str,
    scale: float,
    seed: int,
    num_accesses: int,
    window: int,
    index: int,
    config: Optional[SystemConfig] = None,
) -> str:
    """Content hash of one windowed slice of a run's distilled stream.

    Same identity as :func:`events_key` -- trace identity + cache geometry --
    plus the window axis (window size and slice index), following the store
    discipline: a new partition of the same stream is a new *axis on the
    key*, never an ad-hoc cache.  Slices of a ``num_accesses`` run under
    window ``w`` telescope (:meth:`MissEventStream.concat`) to exactly the
    single :func:`events_key` stream -- and a window covering the run has
    one slice, which *is* that stream, so its key is :func:`events_key`.
    """
    if window >= num_accesses:
        return events_key(name, scale, seed, num_accesses, config)
    return content_key(
        "events-slice",
        benchmark=name,
        scale=scale,
        seed=seed,
        num_accesses=num_accesses,
        geometry=geometry_fields(config),
        window=window,
        index=index,
    )


def stream_event_slices(
    name: str,
    scale: float,
    seed: int,
    num_accesses: int,
    window: int,
    config: Optional[SystemConfig] = None,
    store: Optional[ResultStore] = None,
    progress: Optional[Callable[[int], None]] = None,
) -> List[str]:
    """Distill a run into windowed event-slice store entries, bounded-memory.

    Streams the workload through :meth:`Workload.stream` window by window,
    folds each window through one stateful :class:`HierarchyDistiller`, and
    persists every window's :class:`MissEventStream` under its
    :func:`events_slice_key`.  Returns the ordered slice keys.  Below one
    window per run, at no point is the full trace or the full event stream
    in memory: each window's trace and slice are dropped as soon as the
    slice is persisted.  No slice enters the store's memory layer here
    (``keep_in_memory=False``), not even a one-window run's single slice --
    its ``events`` entry: the process that ingests a run is rarely the one
    that replays it, and a run of several benchmarks would otherwise hold
    every benchmark's events until its replay.  Readers promote a
    one-window slice on first load (:func:`load_slice`).
    ``progress(stop)`` is called as each slice is stored, with the slice's
    stop (the pipeline's ingest task reports it to the steps waiting on
    the slice), and once with the run length when every slice was stored
    already.

    If every slice is already stored the generation is skipped entirely; a
    partial cold store regenerates from access 0 (the distiller is stateful,
    so a missing middle slice cannot be recomputed in isolation) but only
    writes the missing entries.
    """
    from repro.workloads.registry import get_workload

    bounds = slice_bounds(num_accesses, window)
    if store is None:
        store = default_store()
    keys = [
        events_slice_key(name, scale, seed, num_accesses, window, i, config)
        for i in range(len(bounds))
    ]
    if all(key in store for key in keys):
        if progress is not None:
            progress(num_accesses)
        return keys
    workload = get_workload(name, scale=scale, seed=seed)
    distiller = HierarchyDistiller(config)
    count = 0
    for key, (start, stop), trace_window in zip(
        keys, bounds, workload.stream(num_accesses, window)
    ):
        if len(trace_window) != stop - start or trace_window.start_index != start:
            raise RuntimeError(
                f"stream window [{trace_window.start_index}, "
                f"{trace_window.start_index + len(trace_window)}) does not "
                f"match planned slice [{start}, {stop}) for {name!r}"
            )
        stream = distiller.advance(trace_window, start, stop)
        if key not in store:
            store.put(key, stream, encoder=MissEventStream.to_payload, keep_in_memory=False)
        if progress is not None:
            progress(stop)
        count += 1
    if count != len(bounds):
        raise RuntimeError(
            f"workload {name!r} yielded {count} windows, expected {len(bounds)}"
        )
    return keys


def load_slice(
    name: str,
    scale: float,
    seed: int,
    num_accesses: int,
    window: int,
    index: int,
    config: Optional[SystemConfig] = None,
    store: Optional[ResultStore] = None,
) -> MissEventStream:
    """Slice ``index`` of a run's ``window``-wide partition, regenerated on a miss.

    The pipeline's one event loader.  A one-window run's slice is its
    ``events`` entry and is promoted into the store's memory layer like any
    other entry; narrower slices are read with ``promote=False``, so the
    memory layer never re-accumulates a streamed run.  A slice the store
    cannot serve -- missing, or present but undecodable -- is dropped and
    the run's slices are regenerated by :func:`stream_event_slices` (which
    skips every key the store reports present, so a corrupt row has to go
    first).

    Slices are exact *derived* artifacts, so they are served even when
    result caching is off (``--no-cache`` forces re-simulation, not
    re-distillation): the content key folds in the package code
    fingerprint, so any change that could alter the trace or the hierarchy
    model already invalidates every stored slice.
    """
    if store is None:
        store = default_store()
    whole = window >= num_accesses
    key = events_slice_key(name, scale, seed, num_accesses, window, index, config)
    events = store.get(key, decoder=MissEventStream.from_payload, promote=whole)
    if events is None:
        store.invalidate(key)
        stream_event_slices(name, scale, seed, num_accesses, window, config, store)
        events = store.get(key, decoder=MissEventStream.from_payload, promote=whole)
    if events is None:
        raise RuntimeError(
            f"event slice {index} of {name!r} (window {window}) is "
            "missing from the store and could not be regenerated"
        )
    return events


__all__ = [
    "WB_NONE",
    "HierarchyDistiller",
    "MissEventStream",
    "events_key",
    "events_slice_key",
    "geometry_fields",
    "load_slice",
    "slice_bounds",
    "stream_event_slices",
]
