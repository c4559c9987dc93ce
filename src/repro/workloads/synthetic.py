"""A configurable synthetic workload for ablation studies.

The paper's Trip format, stealth-cache sizing and reset-probability choices
are all sensitive to *version locality* -- the degree to which writes within
a page happen uniformly.  :class:`SyntheticWorkload` exposes that locality as
a single knob so the ablation benchmarks can sweep it from perfectly uniform
(all pages flat) to fully random (pages forced to uneven/full).
"""

from __future__ import annotations

import random
from array import array
from itertools import accumulate
from typing import Iterator, List

from repro.core.config import MIB
from repro.workloads.base import (
    Chunk, Workload, WorkloadCharacteristics, WorkloadPhase, chunk_sizes,
)
from repro.workloads.patterns import (
    random_block_writes,
    sequential_write_sweep,
    zipf_writes,
)


class SyntheticWorkload(Workload):
    """A tunable mix of uniform, scattered and skewed writes.

    Parameters
    ----------
    version_locality:
        Fraction of accesses issued as uniform page sweeps (1.0 = perfectly
        uniform writes, 0.0 = fully scattered).
    skew:
        Fraction of the *non-uniform* accesses that follow a Zipf
        distribution (creating very hot blocks and hence full pages).
    footprint_bytes:
        Synthetic resident set size (already scaled; ``scale`` is applied on
        top of it like any other workload).
    write_fraction:
        Fraction of scattered accesses that are writes.
    """

    name = "synthetic"

    def __init__(
        self,
        version_locality: float = 0.9,
        skew: float = 0.1,
        footprint_bytes: int = 32 * MIB,
        write_fraction: float = 0.5,
        scale: float = 1.0,
        seed: int = 7,
    ) -> None:
        if not 0.0 <= version_locality <= 1.0:
            raise ValueError("version_locality must be in [0, 1]")
        if not 0.0 <= skew <= 1.0:
            raise ValueError("skew must be in [0, 1]")
        self.version_locality = version_locality
        self.skew = skew
        self.write_fraction = write_fraction
        self.characteristics = WorkloadCharacteristics(
            rss_bytes=footprint_bytes,
            llc_mpki=10.0,
            category="synthetic",
            write_fraction=write_fraction,
            instructions_per_access=2.0,
        )
        super().__init__(scale=scale, seed=seed)

    def region_plan(self):
        return [("data", 1.0)]

    def build_phases(self) -> List[WorkloadPhase]:
        uniform_weight = max(self.version_locality, 1e-6)
        scattered = max(1.0 - self.version_locality, 1e-6)
        zipf_weight = scattered * self.skew
        random_weight = scattered * (1.0 - self.skew)
        phases = [
            WorkloadPhase("uniform", uniform_weight, sequential_write_sweep("data")),
        ]
        if random_weight > 1e-6:
            phases.append(
                WorkloadPhase(
                    "scattered",
                    random_weight,
                    random_block_writes("data", write_fraction=self.write_fraction),
                )
            )
        if zipf_weight > 1e-6:
            phases.append(
                WorkloadPhase(
                    "skewed",
                    zipf_weight,
                    zipf_writes("data", write_fraction=self.write_fraction, exponent=1.3),
                )
            )
        return phases

    def _chunks(self, num_accesses: int, chunk: int) -> Iterator[Chunk]:
        """Interleave phases access-by-access instead of running them serially.

        For the ablation studies the interesting quantity is the steady-state
        mixture, so uniform and scattered accesses are interleaved according
        to their weights rather than executed as separate program phases:
        a second RNG picks each access's phase, whose generator (run for the
        whole trace on the shared RNG) yields it as a chunk of one.  The
        patterns' draws do not depend on chunk size, so the windows of
        ``stream`` are bit-identical to ``capture``.
        """
        choices = random.Random(self.seed + 1).choices
        population = range(len(self.phases))
        cum_weights = list(accumulate(p.weight for p in self.phases))
        pulls = [p.generator(self.rng, self, num_accesses, 1) for p in self.phases]
        for n in chunk_sizes(num_accesses, chunk):
            addresses, writes = array("Q"), bytearray()
            for _ in range(n):
                pull = pulls[choices(population, cum_weights=cum_weights)[0]]
                more_addresses, more_writes = next(pull)
                addresses += more_addresses
                writes += more_writes
            yield addresses, writes


__all__ = ["SyntheticWorkload"]
