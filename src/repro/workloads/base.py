"""Workload framework: regions, phases, the base class and captured traces.

A workload is a named collection of :class:`MemoryRegion` objects (its data
structures) plus one or more :class:`WorkloadPhase` generators that write
accesses over those regions straight into packed chunks: an ``array('Q')``
of addresses and a ``bytearray`` of write flags (:data:`Chunk`).  The
trace-driven simulator consumes addresses and write flags only, so the
synthetic traces capture everything the evaluation depends on: footprint,
read/write mix, spatial locality of writes (version locality) and the
page-access distribution.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.core.config import CACHE_BLOCK_BYTES, GIB, PAGE_BYTES


def calibrated_instruction_count(
    num_accesses: int,
    llc_mpki: float,
    instructions_per_access: float,
    llc_misses: Optional[int] = None,
    start_index: int = 0,
) -> int:
    """The one llc_mpki -> instructions calibration, shared by every caller.

    With an observed LLC miss count (and a positive MPKI reference), the
    instruction count is calibrated so the workload's MPKI matches its Table 2
    value (``instructions = misses * 1000 / MPKI``), floored at
    ``num_accesses``.  Without one, the fixed ``instructions_per_access``
    factor is applied to the global window ``[start_index, start_index +
    num_accesses)`` in floor-difference form, which telescopes: the
    uncalibrated counts of a contiguous partition always sum to exactly the
    whole trace's count.  :meth:`Workload.instruction_count`,
    :meth:`Trace.instruction_count` and the shard merge all route through
    here so the calibration can never drift between them.
    """
    if llc_misses is not None and llc_mpki > 0:
        calibrated = int(llc_misses * 1000.0 / llc_mpki)
        return max(calibrated, num_accesses)
    return int((start_index + num_accesses) * instructions_per_access) - int(
        start_index * instructions_per_access
    )


#: A run of consecutive accesses: packed addresses and 0/1 write flags.
Chunk = Tuple[array, bytearray]

#: Most accesses in one phase chunk, and the window of ``access_stream``.
ACCESS_CHUNK = 1 << 16


def chunk_sizes(count: int, chunk: int) -> Iterator[int]:
    """Lengths of ``count`` accesses cut into chunks of ``chunk``, the last shorter."""
    full, rest = divmod(count, chunk)
    yield from repeat(chunk, full)
    if rest:
        yield rest


@dataclass(frozen=True)
class MemoryRegion:
    """A contiguous data structure in the workload's address space."""

    name: str
    base: int
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"region {self.name} must have positive size")
        if self.base % CACHE_BLOCK_BYTES != 0:
            raise ValueError(f"region {self.name} base must be block aligned")

    @property
    def end(self) -> int:
        return self.base + self.size

    @property
    def blocks(self) -> int:
        return max(1, self.size // CACHE_BLOCK_BYTES)

    @property
    def pages(self) -> int:
        return max(1, self.size // PAGE_BYTES)

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


@dataclass
class WorkloadPhase:
    """One phase of a workload: a weighted, resumable chunk generator.

    ``generator`` is called with ``(rng, workload, count, chunk)`` and yields
    exactly ``count`` accesses as :data:`Chunk` pairs of ``chunk`` accesses
    each, the last one possibly shorter, calling ``rng`` in the same order
    whatever ``chunk`` is (:mod:`repro.workloads.patterns` states the rule).
    Weights determine how many of the workload's total accesses each phase
    contributes.
    """

    name: str
    weight: float
    generator: Callable[[random.Random, "Workload", int, int], Iterator[Chunk]]


@dataclass
class WorkloadCharacteristics:
    """Reference characteristics from Table 2 plus derived knobs."""

    rss_bytes: int
    llc_mpki: float
    category: str
    write_fraction: float = 0.3
    instructions_per_access: float = 3.0


class Workload:
    """Base class for synthetic benchmark workloads.

    Subclasses define :meth:`build_regions` and :meth:`build_phases`.  The
    framework then lays regions out in a flat address space, scales their
    sizes by ``scale`` (so a 11.7 GB RSS benchmark can be exercised with a
    ~12 MB footprint), and interleaves the phases' access streams.

    Parameters
    ----------
    scale:
        Footprint scale factor relative to the paper's resident set size.
    seed:
        RNG seed; the same (scale, seed) pair always produces the same trace.
    """

    name: str = "workload"
    characteristics = WorkloadCharacteristics(
        rss_bytes=1 * GIB, llc_mpki=1.0, category="generic"
    )

    #: Base of the synthetic physical address space.  Non-zero so that page 0
    #: is never implicitly special.
    ADDRESS_BASE = 1 << 30

    def __init__(self, scale: float = 0.002, seed: int = 1234) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self.seed = seed
        self.rng = random.Random(seed)
        self.regions: List[MemoryRegion] = []
        self._region_map = {}
        self._build_layout()
        self.phases = self.build_phases()
        if not self.phases:
            raise ValueError("workload must define at least one phase")

    # -- to be provided by subclasses ----------------------------------------

    def region_plan(self) -> Sequence[tuple[str, float]]:
        """Return (region name, fraction of RSS) pairs."""
        return [("heap", 1.0)]

    def build_phases(self) -> List[WorkloadPhase]:
        raise NotImplementedError

    # -- layout ------------------------------------------------------------------

    @property
    def rss_bytes(self) -> int:
        """Scaled resident set size of the synthetic workload."""
        return max(PAGE_BYTES, int(self.characteristics.rss_bytes * self.scale))

    def _build_layout(self) -> None:
        cursor = self.ADDRESS_BASE
        for name, fraction in self.region_plan():
            size = max(PAGE_BYTES, int(self.rss_bytes * fraction))
            size = (size // PAGE_BYTES) * PAGE_BYTES or PAGE_BYTES
            region = MemoryRegion(name=name, base=cursor, size=size)
            self.regions.append(region)
            self._region_map[name] = region
            # Leave a guard gap between regions so they never share a page.
            cursor = region.end + PAGE_BYTES

    def region(self, name: str) -> MemoryRegion:
        return self._region_map[name]

    @property
    def footprint_bytes(self) -> int:
        return sum(r.size for r in self.regions)

    # -- trace generation -------------------------------------------------------------

    def _chunks(self, num_accesses: int, chunk: int) -> Iterator[Chunk]:
        """The trace as chunks of at most ``chunk`` accesses, phase by phase.

        Phases are executed in order; each phase receives a share of the
        total proportional to its weight.  This matches how the benchmarks
        run: an initialisation/build phase followed by the main kernel.
        """
        total_weight = sum(p.weight for p in self.phases)
        remaining = num_accesses
        for i, phase in enumerate(self.phases):
            if i == len(self.phases) - 1:
                count = remaining
            else:
                count = min(int(round(num_accesses * phase.weight / total_weight)), remaining)
            remaining -= count
            if count > 0:
                yield from phase.generator(self.rng, self, count, chunk)

    def access_stream(self, num_accesses: int = 200_000) -> Iterator[Tuple[int, bool]]:
        """Yield ``(address, is_write)`` pairs, read out of packed windows."""
        for window in self.stream(num_accesses, ACCESS_CHUNK):
            yield from zip(window.addresses, map(bool, window.writes))

    def capture(self, num_accesses: int = 200_000) -> "Trace":
        """Materialise this workload's trace into a replayable :class:`Trace`.

        The captured trace is :meth:`stream`'s one window of the whole run.
        It carries everything the simulation engine reads from a workload
        (name, footprint, MPKI calibration), so it can stand in for the
        workload across repeated runs -- one trace generation feeds every
        protection mode instead of re-running the phase generators per mode.
        """
        (trace,) = self.stream(num_accesses, num_accesses)
        return trace

    def stream(self, num_accesses: int = 200_000, window: int = 100_000) -> Iterator["Trace"]:
        """Yield the trace as contiguous :class:`Trace` windows of ``window``
        accesses (final window may be shorter).

        Windows are cut from the phases' chunks of at most ``ACCESS_CHUNK``
        accesses, so a run holds the window being filled and one chunk,
        whatever its length: a 10^10-access run touches a window's worth of
        memory, not the trace.  Chunk size never changes what the phases
        draw (:mod:`repro.workloads.patterns`), so the windows concatenate
        to :meth:`capture` exactly, and each window's ``start_index``
        records its global position so instruction calibration and timeline
        sampling stay consistent.
        """
        if num_accesses <= 0:
            raise ValueError("num_accesses must be positive")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        addresses, writes = array("Q"), bytearray()
        start = 0
        for more_addresses, more_writes in self._chunks(num_accesses, min(window, ACCESS_CHUNK)):
            room = window - len(writes)
            addresses += more_addresses[:room]
            writes += more_writes[:room]
            if len(writes) == window:
                yield self._window_trace(addresses, writes, start)
                start += window
                addresses, writes = more_addresses[room:], more_writes[room:]
        if writes:
            yield self._window_trace(addresses, writes, start)

    def _window_trace(self, addresses: array, writes: bytearray, start: int) -> "Trace":
        return Trace(
            name=self.name,
            scale=self.scale,
            seed=self.seed,
            footprint_bytes=self.footprint_bytes,
            llc_mpki=self.characteristics.llc_mpki,
            instructions_per_access=self.characteristics.instructions_per_access,
            addresses=addresses,
            writes=writes,
            start_index=start,
        )

    # -- derived metrics --------------------------------------------------------------------

    @property
    def instructions_per_access(self) -> float:
        return self.characteristics.instructions_per_access

    def instruction_count(self, num_accesses: int, llc_misses: Optional[int] = None) -> int:
        """Instructions represented by a trace of ``num_accesses`` references.

        When the simulator supplies the observed LLC miss count, the
        instruction count is calibrated so that the workload's LLC MPKI
        matches its Table 2 reference value (``instructions = misses * 1000 /
        MPKI``).  This is what makes memory-bound benchmarks (pr, llama2-gen)
        spend most of their time in the memory system -- and therefore pay
        more for protection -- while compute-bound kernels (bsw, fmi) hide
        the metadata traffic behind computation, exactly as in the paper.
        Without a miss count the fixed ``instructions_per_access`` factor is
        used instead.
        """
        return calibrated_instruction_count(
            num_accesses,
            self.characteristics.llc_mpki,
            self.instructions_per_access,
            llc_misses=llc_misses,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Workload {self.name} scale={self.scale} "
            f"footprint={self.footprint_bytes / (1 << 20):.1f} MiB>"
        )


@dataclass
class Trace:
    """A captured access trace, replayable in place of its source workload.

    Addresses and write flags live in packed arrays (8 B + 1 B per access), so
    a captured trace is cheap to hold, cheap to pickle across worker-process
    boundaries, and replays without touching the phase generators or the
    workload RNG.  Replaying a trace is deterministic by construction: every
    protection mode sees exactly the same access sequence, which is what makes
    parallel (benchmark, mode) fan-out bit-identical to the serial run.

    A trace can be cut into contiguous shards (:meth:`slice` / :meth:`shards`)
    for the sharded execution path; ``start_index`` records where a shard
    begins in its parent trace, so global access indices (timeline sampling)
    and the instruction calibration stay consistent across shard boundaries.
    """

    name: str
    scale: float
    seed: int
    footprint_bytes: int
    llc_mpki: float
    instructions_per_access: float
    addresses: array
    writes: bytearray
    start_index: int = 0

    def __len__(self) -> int:
        return len(self.addresses)

    def access_stream(self, num_accesses: Optional[int] = None) -> Iterator[Tuple[int, bool]]:
        """Replay ``(address, is_write)`` pairs from the captured arrays."""
        count = len(self.addresses) if num_accesses is None else num_accesses
        if count < 0:
            raise ValueError(
                f"trace for {self.name!r} cannot replay a negative access "
                f"count ({count})"
            )
        if count > len(self.addresses):
            raise ValueError(
                f"trace for {self.name!r} holds {len(self.addresses)} accesses, "
                f"cannot replay {count}"
            )
        addresses = self.addresses
        writes = self.writes
        for i in range(count):
            yield addresses[i], bool(writes[i])

    def window(self, start: int, stop: int) -> Iterator[Tuple[int, bool]]:
        """Replay the half-open window ``[start, stop)`` of this trace.

        Indices are relative to this trace's own arrays (a shard replays its
        window of the *parent* trace by passing parent indices minus its
        ``start_index``).  The sharded engine path streams windows directly so
        resuming from a checkpoint never copies the packed arrays.
        """
        if not 0 <= start <= stop <= len(self.addresses):
            raise ValueError(
                f"window [{start}, {stop}) is outside trace for {self.name!r} "
                f"({len(self.addresses)} accesses)"
            )
        addresses = self.addresses
        writes = self.writes
        for i in range(start, stop):
            yield addresses[i], bool(writes[i])

    def slice(self, start: int, stop: int) -> "Trace":
        """A new :class:`Trace` holding the non-empty window ``[start, stop)``.

        The slice keeps the parent's identity and calibration metadata and
        records ``start_index`` relative to the parent, so concatenating the
        slices of a partition reproduces the parent access stream exactly and
        per-slice instruction counts telescope to the parent's
        (:meth:`instruction_count`).  Empty and out-of-range windows raise
        ``ValueError`` -- a zero-length shard is always a planning bug.
        """
        if start < 0 or stop > len(self.addresses):
            raise ValueError(
                f"slice [{start}, {stop}) is outside trace for {self.name!r} "
                f"({len(self.addresses)} accesses)"
            )
        if start >= stop:
            raise ValueError(
                f"slice [{start}, {stop}) of trace for {self.name!r} is empty"
            )
        return Trace(
            name=self.name,
            scale=self.scale,
            seed=self.seed,
            footprint_bytes=self.footprint_bytes,
            llc_mpki=self.llc_mpki,
            instructions_per_access=self.instructions_per_access,
            addresses=self.addresses[start:stop],
            writes=bytearray(self.writes[start:stop]),
            start_index=self.start_index + start,
        )

    def shards(self, shard_size: int) -> Iterator["Trace"]:
        """Cut the trace into contiguous shards of ``shard_size`` accesses.

        The final shard absorbs the remainder (it may be shorter); a
        ``shard_size`` at or beyond the trace length yields the single
        full-length slice.  ``shard_size <= 0`` raises ``ValueError``.
        """
        if shard_size <= 0:
            raise ValueError(f"shard_size must be positive, got {shard_size}")
        for start in range(0, len(self.addresses), shard_size):
            yield self.slice(start, min(start + shard_size, len(self.addresses)))

    def instruction_count(self, num_accesses: int, llc_misses: Optional[int] = None) -> int:
        """Identical calibration to :meth:`Workload.instruction_count`.

        For a shard (``start_index > 0``) the uncalibrated fallback counts
        the instructions of its global window ``[start_index, start_index +
        num_accesses)``; the floor-difference form telescopes, so the shard
        counts of a partition always sum to exactly the parent trace's count.
        """
        return calibrated_instruction_count(
            num_accesses,
            self.llc_mpki,
            self.instructions_per_access,
            llc_misses=llc_misses,
            start_index=self.start_index,
        )


__all__ = [
    "ACCESS_CHUNK",
    "calibrated_instruction_count",
    "Chunk",
    "chunk_sizes",
    "MemoryRegion",
    "Trace",
    "Workload",
    "WorkloadPhase",
    "WorkloadCharacteristics",
]
