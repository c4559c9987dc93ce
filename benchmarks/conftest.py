"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The
performance-figure benchmarks (6-9) share a single simulated suite and the
space-figure benchmarks (10-12) share a single space study, both built once
per session, so ``pytest benchmarks/ --benchmark-only`` completes in a couple
of minutes while still exercising every experiment end to end.
"""

from __future__ import annotations

import os
import sys
import tempfile

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

# Keep the persistent result store hermetic during benchmark runs (see
# tests/conftest.py); setdefault so a combined tests+benchmarks session
# shares one temp store.
os.environ.setdefault("REPRO_CACHE_DIR", tempfile.mkdtemp(prefix="repro-test-cache-"))

from repro.experiments.harness import clear_cache, run_benchmarks, run_space_study
from repro.sim.configs import LATENCY_MODES

#: Benchmarks used by the quick performance figures: one representative per
#: category (DP, graph, LLM, key-value store) plus the fmi outlier.
PERF_BENCHMARKS = ("bsw", "pr", "llama2-gen", "memcached", "fmi")
SPACE_BENCHMARKS = ("bsw", "fmi", "pr", "memcached", "hyrise", "llama2-gen")

PERF_ACCESSES = 20_000
SPACE_ACCESSES = 40_000
SCALE = 0.002
SPACE_SCALE = 0.001


@pytest.fixture(scope="session")
def perf_suite():
    """Simulation results for NoProtect/CI/Toleo/InvisiMem (Figures 6-8)."""
    return run_benchmarks(PERF_BENCHMARKS, scale=SCALE, num_accesses=PERF_ACCESSES)


@pytest.fixture(scope="session")
def latency_suite():
    """Simulation results including the C-only configuration (Figure 9)."""
    return run_benchmarks(
        PERF_BENCHMARKS, modes=LATENCY_MODES, scale=SCALE, num_accesses=PERF_ACCESSES
    )


@pytest.fixture(scope="session")
def space_study():
    """Write-replay space study shared by Figures 10-12 and Table 4."""
    return run_space_study(SPACE_BENCHMARKS, scale=SPACE_SCALE, num_accesses=SPACE_ACCESSES)


@pytest.fixture
def served_space_study(space_study):
    """The same space study again, decoded from its persistent-store entry."""
    clear_cache()  # drop the memory layer; the disk entry stays
    return run_space_study(SPACE_BENCHMARKS, scale=SPACE_SCALE, num_accesses=SPACE_ACCESSES)
