"""Reusable memory-access patterns, written straight into packed chunks.

Each factory returns one resumable generator ``(rng, workload, count, chunk)``
suitable for use as a :class:`~repro.workloads.base.WorkloadPhase` generator.
It yields its ``count`` accesses as ``(addresses, writes)`` chunks -- an
``array('Q')`` of block-aligned addresses and a ``bytearray`` of 0/1 write
flags -- of ``chunk`` accesses each, the last one possibly shorter.  Region
geometry is read into locals once per phase, never per access.

RNG order: a pattern calls the shared ``random.Random`` exactly as it would
emitting its accesses one at a time.  It yields a chunk as soon as it is
full, before any draw for the next access; a draw that follows an access
(``pointer_chase``'s next hop) runs when the generator is resumed, so the one
after the last access runs when the phase is run to exhaustion.  Chunk size
therefore changes neither a trace nor the RNG state a phase leaves behind,
and no phase buffers the whole run (``SyntheticWorkload`` pulls chunks of one;
``docs/extending.md`` spells the rule out).

The patterns capture the behaviours the paper's Section 4.3 and 7.2 describe
as the drivers of version locality:

* ``sequential_write_sweep`` -- uniform writes over a large structure
  (dynamic-programming arrays, LLM intermediate layers): perfect version
  locality, pages stay flat.
* ``stencil_sweep`` -- read the previous row, write the current one (banded
  Smith-Waterman / chaining DP kernels).
* ``random_reads`` -- irregular read-only lookups (FM-index search, hash
  tables, key-value GETs): no writes, pages stay flat.
* ``random_block_writes`` -- writes scattered at cache-block granularity
  within a region: in-page strides exceed one and pages upgrade to uneven.
* ``zipf_writes`` -- power-law-skewed writes (graph rank arrays): a few very
  hot blocks push their pages to the full format.
* ``gaussian_kv_writes`` -- memtier-style Gaussian key popularity over a
  key-value store (redis / memcached).
* ``pointer_chase`` -- dependent random reads (tree/graph traversal).
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from itertools import accumulate
from typing import Iterator, List, Optional, Tuple

from repro.core.config import CACHE_BLOCK_BYTES, PAGE_BYTES
from repro.workloads.base import Chunk, Workload, chunk_sizes

BLOCKS_PER_PAGE = PAGE_BYTES // CACHE_BLOCK_BYTES


def _geometry(workload: Workload, region_name: str) -> Tuple[int, int]:
    """A region's base address and block count."""
    region = workload.region(region_name)
    return region.base, region.blocks


def _sweep(addresses: array, base: int, blocks: int, block: int, n: int, stride: int = 1) -> int:
    """Append the addresses of ``n`` blocks from ``block`` on, ``stride``
    apart and wrapping at the region's end; return the block after them
    (``0 <= block < blocks``)."""
    step = stride * CACHE_BLOCK_BYTES
    while n > 0:
        run = min(n, -(-(blocks - block) // stride))
        first = base + block * CACHE_BLOCK_BYTES
        addresses.extend(range(first, first + run * step, step))
        n -= run
        block = (block + run * stride) % blocks
    return block


def _zipf_cdf(n: int, exponent: float) -> List[float]:
    """CDF of a Zipf-like distribution truncated to ``min(n, 4096)`` ranks."""
    weights = [1.0 / (i + 1) ** exponent for i in range(min(n, 4096))]
    total = sum(weights)
    return list(accumulate(w / total for w in weights))


def sequential_write_sweep(region_name: str, read_fraction: float = 0.0):
    """Uniform block-by-block writes over a region (optionally with reads).

    The sweep wraps around the region, so a long phase performs multiple
    uniform passes -- each pass bumps every block's version by one, which is
    exactly the behaviour that keeps pages in the flat format.
    """

    def generate(rng: random.Random, workload: Workload, count: int, chunk: int) -> Iterator[Chunk]:
        base, blocks = _geometry(workload, region_name)
        draw = rng.random
        block = 0
        for n in chunk_sizes(count, chunk):
            addresses = array("Q")
            block = _sweep(addresses, base, blocks, block, n)
            if read_fraction > 0.0:
                writes = bytearray([draw() >= read_fraction for _ in range(n)])
            else:
                writes = bytearray(b"\x01") * n
            yield addresses, writes

    return generate


def stencil_sweep(write_region: str, read_region: Optional[str] = None, reads_per_write: int = 2):
    """Dynamic-programming stencil: read neighbouring cells, write the current one."""

    def generate(rng: random.Random, workload: Workload, count: int, chunk: int) -> Iterator[Chunk]:
        write_base, write_blocks = _geometry(workload, write_region)
        read_base, read_blocks = _geometry(workload, read_region or write_region)
        randint = rng.randint
        block = 0  # the cell being computed
        reads = 0  # neighbour reads emitted for it so far
        for n in chunk_sizes(count, chunk):
            addresses, writes = array("Q"), bytearray()
            add, flag = addresses.append, writes.append
            for _ in range(n):
                if reads < reads_per_write:
                    add(read_base + (block + randint(0, 2)) % read_blocks * CACHE_BLOCK_BYTES)
                    flag(0)
                    reads += 1
                else:
                    add(write_base + block % write_blocks * CACHE_BLOCK_BYTES)
                    flag(1)
                    block += 1
                    reads = 0
            yield addresses, writes

    return generate


def random_reads(region_name: str, hot_fraction: float = 0.0, hot_weight: float = 0.0):
    """Uniform (or hot/cold) random read-only lookups over a region."""

    def generate(rng: random.Random, workload: Workload, count: int, chunk: int) -> Iterator[Chunk]:
        base, blocks = _geometry(workload, region_name)
        hot_blocks = max(1, int(blocks * hot_fraction)) if hot_fraction > 0 else 0
        draw, randrange = rng.random, rng.randrange
        for n in chunk_sizes(count, chunk):
            addresses = array("Q")
            add = addresses.append
            for _ in range(n):
                hot = hot_blocks and draw() < hot_weight
                block = randrange(hot_blocks) if hot else randrange(blocks)
                add(base + block % blocks * CACHE_BLOCK_BYTES)
            yield addresses, bytearray(n)

    return generate


def random_block_writes(region_name: str, write_fraction: float = 0.5):
    """Scattered block-granularity writes mixed with reads.

    Because writes revisit blocks before their page is uniformly covered,
    in-page version strides exceed one and pages upgrade to the uneven
    format -- the behaviour Figure 10 shows for fmi and the graph kernels.
    """

    def generate(rng: random.Random, workload: Workload, count: int, chunk: int) -> Iterator[Chunk]:
        base, blocks = _geometry(workload, region_name)
        draw, randrange = rng.random, rng.randrange
        for n in chunk_sizes(count, chunk):
            addresses, writes = array("Q"), bytearray()
            add, flag = addresses.append, writes.append
            for _ in range(n):
                add(base + randrange(blocks) * CACHE_BLOCK_BYTES)
                flag(draw() < write_fraction)
            yield addresses, writes

    return generate


def zipf_writes(region_name: str, write_fraction: float = 0.6, exponent: float = 1.2):
    """Power-law-skewed writes: a few blocks become very hot (full pages).

    A phase's ``count`` rank draws come first in the shared RNG's sequence,
    then one write draw per access.  The ranks are read, chunk by chunk, from
    a clone of the shared RNG taken at the phase's start, and the shared RNG
    skips past them once, so the phase holds one chunk, not ``count`` ranks.
    """

    def generate(rng: random.Random, workload: Workload, count: int, chunk: int) -> Iterator[Chunk]:
        base, blocks = _geometry(workload, region_name)
        cdf = _zipf_cdf(blocks, exponent)
        last = len(cdf) - 1
        # Spread the coarse rank across the full region deterministically.
        spread = max(1, blocks // len(cdf))
        ranks = random.Random()
        ranks.setstate(rng.getstate())
        rank, draw = ranks.random, rng.random
        for _ in range(count):
            draw()
        for n in chunk_sizes(count, chunk):
            addresses, writes = array("Q"), bytearray()
            add, flag = addresses.append, writes.append
            for _ in range(n):
                add(base + bisect_left(cdf, rank(), 0, last) * spread % blocks * CACHE_BLOCK_BYTES)
                flag(draw() < write_fraction)
            yield addresses, writes

    return generate


def gaussian_kv_writes(region_name: str, write_fraction: float = 1.0, sigma_fraction: float = 0.08):
    """memtier-style Gaussian key popularity over a key-value region.

    Requests pick *pages* with a Gaussian popularity distribution (which is
    what defeats the page-granular stealth cache for redis and memcached),
    but within a page the store's allocator packs neighbouring keys whose
    values are rewritten at similar rates, so page coverage advances
    uniformly -- each request writes the next run of blocks in the page.
    That is why these workloads keep ~98 % of their pages in the flat format
    (Figure 10) despite their random page-access pattern.
    """

    def generate(rng: random.Random, workload: Workload, count: int, chunk: int) -> Iterator[Chunk]:
        region = workload.region(region_name)
        base, pages = region.base, region.pages
        mean = pages / 2.0
        sigma = max(1.0, pages * sigma_fraction)
        gauss, draw, randint = rng.gauss, rng.random, rng.randint
        cursors: dict[int, int] = {}
        left = 0  # accesses left in the current request's run
        for n in chunk_sizes(count, chunk):
            addresses, writes = array("Q"), bytearray()
            add, flag = addresses.append, writes.append
            for _ in range(n):
                if not left:
                    page = int(gauss(mean, sigma)) % pages
                    is_write = draw() < write_fraction
                    # A request touches a small run of blocks; runs advance
                    # around the page so coverage stays uniform (adjacent
                    # keys, similar rates).
                    left = randint(1, 4)
                    slot = cursors.get(page, 0)
                    cursors[page] = (slot + left) % BLOCKS_PER_PAGE
                    page_base = base + page * PAGE_BYTES
                add(page_base + slot % BLOCKS_PER_PAGE * CACHE_BLOCK_BYTES)
                flag(is_write)
                slot += 1
                left -= 1
            yield addresses, writes

    return generate


def pointer_chase(
    region_name: str,
    chain_length: int = 16,
    hot_fraction: float = 0.1,
    hot_weight: float = 0.6,
):
    """Dependent random reads modelling tree traversal / graph frontier walks.

    Real index traversals repeatedly revisit the top levels of the structure
    (the hot prefix of the region) before descending into cold leaves, which
    is why their page-level reuse remains high even though the block-level
    pattern looks random.  ``hot_fraction`` sizes that hot prefix and
    ``hot_weight`` is the probability a hop lands in it.
    """

    def generate(rng: random.Random, workload: Workload, count: int, chunk: int) -> Iterator[Chunk]:
        base, blocks = _geometry(workload, region_name)
        hot_blocks = max(1, int(blocks * hot_fraction))
        draw, randrange = rng.random, rng.randrange
        current = randrange(blocks)
        hops = 0  # hops taken in the current chain
        for n in chunk_sizes(count, chunk):
            addresses = array("Q")
            add = addresses.append
            for left in range(n - 1, -1, -1):
                add(base + current % blocks * CACHE_BLOCK_BYTES)
                if not left:
                    # Hand the full chunk over before drawing the next hop.
                    yield addresses, bytearray(n)
                if draw() < hot_weight:
                    current = randrange(hot_blocks)
                else:
                    # Deterministic hash-style next pointer keeps the cold
                    # part of the chase irregular.
                    current = (current * 1103515245 + 12345) % blocks
                hops += 1
                if hops == chain_length:
                    current = randrange(blocks)
                    hops = 0

    return generate


def streaming_reads(region_name: str, stride_blocks: int = 1):
    """Sequential streaming reads (edge-list scans, table scans)."""

    def generate(rng: random.Random, workload: Workload, count: int, chunk: int) -> Iterator[Chunk]:
        base, blocks = _geometry(workload, region_name)
        block = 0
        for n in chunk_sizes(count, chunk):
            addresses = array("Q")
            block = _sweep(addresses, base, blocks, block, n, stride_blocks)
            yield addresses, bytearray(n)

    return generate


def page_sequential_writes(region_name: str, rewrites: int = 2):
    """Write every block of a page, then rewrite the page ``rewrites`` times.

    Models LLM intermediate activations: a layer's buffer is rewritten once
    per generated token, each rewrite covering the page uniformly, so pages
    remain flat while versions climb.
    """

    def generate(rng: random.Random, workload: Workload, count: int, chunk: int) -> Iterator[Chunk]:
        region = workload.region(region_name)
        base, pages = region.base, region.pages
        per_page = max(1, rewrites) * BLOCKS_PER_PAGE
        page = 0  # the page being rewritten
        done = 0  # accesses of its passes emitted so far
        for n in chunk_sizes(count, chunk):
            addresses = array("Q")
            left = n
            while left:
                block = done % BLOCKS_PER_PAGE
                run = min(BLOCKS_PER_PAGE - block, left)
                _sweep(addresses, base + page * PAGE_BYTES, BLOCKS_PER_PAGE, block, run)
                done += run
                left -= run
                if done == per_page:
                    page = (page + 1) % pages
                    done = 0
            yield addresses, bytearray(b"\x01") * n

    return generate


def transactional_writes(region_name: str, txn_span_blocks: int = 8, write_fraction: float = 0.4):
    """OLTP-style transactions: read a few rows, then commit writes to them."""

    def generate(rng: random.Random, workload: Workload, count: int, chunk: int) -> Iterator[Chunk]:
        base, blocks = _geometry(workload, region_name)
        draw, randrange = rng.random, rng.randrange
        span = txn_span_blocks
        # Position in the current transaction: its span's reads, then one
        # commit candidate per row; a new transaction starts at 2 * span.
        step = 2 * span
        for n in chunk_sizes(count, chunk):
            addresses, writes = array("Q"), bytearray()
            left = n
            while left:
                if step == 2 * span:
                    start = randrange(blocks)
                    step = 0
                if step < span:
                    run = min(span - step, left)
                    _sweep(addresses, base, blocks, (start + step) % blocks, run)
                    writes += bytes(run)
                    step += run
                    left -= run
                    continue
                step += 1
                if draw() < write_fraction:
                    addresses.append(base + (start + step - span - 1) % blocks * CACHE_BLOCK_BYTES)
                    writes.append(1)
                    left -= 1
            yield addresses, writes

    return generate


def matrix_multiply(read_region: str, write_region: str, tile_blocks: int = 32):
    """GEMM-like pattern: stream reads of weights, uniform writes of outputs."""

    def generate(rng: random.Random, workload: Workload, count: int, chunk: int) -> Iterator[Chunk]:
        weight_base, weight_blocks = _geometry(workload, read_region)
        output_base, output_blocks = _geometry(workload, write_region)
        weight = 0  # the next weight block to read
        output = 0  # the next output block to write
        tile = 0  # weight reads in the current tile
        for n in chunk_sizes(count, chunk):
            addresses, writes = array("Q"), bytearray()
            left = n
            while left:
                # Read a tile of weights, then write one output block.
                if tile < tile_blocks:
                    run = min(tile_blocks - tile, left)
                    weight = _sweep(addresses, weight_base, weight_blocks, weight, run)
                    writes += bytes(run)
                    tile += run
                    left -= run
                else:
                    addresses.append(output_base + output * CACHE_BLOCK_BYTES)
                    writes.append(1)
                    output = (output + 1) % output_blocks
                    tile = 0
                    left -= 1
            yield addresses, writes

    return generate


__all__ = [
    "sequential_write_sweep",
    "stencil_sweep",
    "random_reads",
    "random_block_writes",
    "zipf_writes",
    "gaussian_kv_writes",
    "pointer_chase",
    "streaming_reads",
    "page_sequential_writes",
    "transactional_writes",
    "matrix_multiply",
]
