"""Workload framework: memory accesses, regions, phases and the base class.

A workload is a named collection of :class:`MemoryRegion` objects (its data
structures) plus one or more :class:`WorkloadPhase` generators that emit
:class:`MemoryAccess` events over those regions.  The trace-driven simulator
consumes the access stream; the protection engine and Toleo device only ever
see addresses, so the synthetic traces capture everything the evaluation
depends on: footprint, read/write mix, spatial locality of writes (version
locality) and the page-access distribution.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from itertools import islice
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


@dataclass(frozen=True)
class MemoryAccess:
    """One memory reference in a trace."""

    address: int
    is_write: bool
    size: int = CACHE_BLOCK_BYTES

    @property
    def page(self) -> int:
        return self.address // PAGE_BYTES

    @property
    def block(self) -> int:
        return self.address // CACHE_BLOCK_BYTES


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

    def block_address(self, block_index: int) -> int:
        """Block-aligned address of the ``block_index``-th block, wrapping."""
        return self.base + (block_index % self.blocks) * CACHE_BLOCK_BYTES

    def page_address(self, page_index: int, block_in_page: int = 0) -> int:
        addr = self.base + (page_index % self.pages) * PAGE_BYTES
        return addr + (block_in_page % (PAGE_BYTES // CACHE_BLOCK_BYTES)) * CACHE_BLOCK_BYTES

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


@dataclass
class WorkloadPhase:
    """One phase of a workload: a weighted access generator.

    ``generator`` is called with (rng, regions, count) and must yield exactly
    ``count`` accesses.  Weights determine how many of the workload's total
    accesses each phase contributes.
    """

    name: str
    weight: float
    generator: Callable[[random.Random, "Workload", int], Iterator[MemoryAccess]]


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

    def generate(self, num_accesses: int = 200_000) -> Iterator[MemoryAccess]:
        """Yield ``num_accesses`` memory accesses, interleaving phases.

        Phases are executed in order; each phase receives a share of the
        total proportional to its weight.  This matches how the benchmarks
        run: an initialisation/build phase followed by the main kernel.
        """
        if num_accesses <= 0:
            raise ValueError("num_accesses must be positive")
        total_weight = sum(p.weight for p in self.phases)
        remaining = num_accesses
        for i, phase in enumerate(self.phases):
            if i == len(self.phases) - 1:
                count = remaining
            else:
                count = int(round(num_accesses * phase.weight / total_weight))
                count = min(count, remaining)
            remaining -= count
            if count <= 0:
                continue
            yield from phase.generator(self.rng, self, count)

    def trace(self, num_accesses: int = 200_000) -> List[MemoryAccess]:
        """Materialise the trace as a list."""
        return list(self.generate(num_accesses))

    def access_stream(self, num_accesses: int = 200_000) -> Iterator[Tuple[int, bool]]:
        """Yield ``(address, is_write)`` pairs -- the simulator's hot loop.

        The engine only ever consumes the address and the write flag, so this
        avoids committing to :class:`MemoryAccess` object construction in the
        replay path; :class:`Trace` overrides it to stream straight out of
        packed arrays.
        """
        for access in self.generate(num_accesses):
            yield access.address, access.is_write

    def capture(self, num_accesses: int = 200_000) -> "Trace":
        """Materialise this workload's trace into a replayable :class:`Trace`.

        The captured trace carries everything the simulation engine reads from
        a workload (name, footprint, MPKI calibration), so it can stand in for
        the workload across repeated runs -- one trace generation feeds every
        protection mode instead of re-running the phase generators per mode.
        """
        addresses = array("Q")
        writes = bytearray()
        for access in self.generate(num_accesses):
            addresses.append(access.address)
            writes.append(1 if access.is_write else 0)
        return Trace(
            name=self.name,
            scale=self.scale,
            seed=self.seed,
            footprint_bytes=self.footprint_bytes,
            llc_mpki=self.characteristics.llc_mpki,
            instructions_per_access=self.characteristics.instructions_per_access,
            addresses=addresses,
            writes=writes,
        )

    def stream(self, num_accesses: int = 200_000, window: int = 100_000) -> Iterator["Trace"]:
        """Yield the trace as contiguous :class:`Trace` windows of ``window``
        accesses (final window may be shorter), never holding more than one
        window's packed arrays at a time.

        The phase generators are single-pass over one RNG, so streaming is
        identical to one-shot capture by construction: concatenating the
        yielded windows reproduces :meth:`capture` exactly, and each window's
        ``start_index`` records its global position so instruction
        calibration and timeline sampling stay consistent.  This is the
        bounded-memory producer for tera-scale runs -- a 10^10-access run
        touches ``window`` accesses of memory, not the trace.
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        accesses = self.generate(num_accesses)
        start = 0
        while True:
            addresses = array("Q")
            writes = bytearray()
            for access in islice(accesses, window):
                addresses.append(access.address)
                writes.append(1 if access.is_write else 0)
            if not addresses:
                return
            yield self._window_trace(addresses, writes, start)
            start += len(addresses)

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

    def generate(self, num_accesses: Optional[int] = None) -> Iterator[MemoryAccess]:
        """Replay the trace as :class:`MemoryAccess` objects (compatibility)."""
        for address, is_write in self.access_stream(num_accesses):
            yield MemoryAccess(address=address, is_write=is_write)

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
    "calibrated_instruction_count",
    "MemoryAccess",
    "MemoryRegion",
    "Trace",
    "Workload",
    "WorkloadPhase",
    "WorkloadCharacteristics",
]
