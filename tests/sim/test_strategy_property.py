"""One property over the strategy space: every pipeline run is the serial engine.

Jobs, shard width, stream window, the batch kernels or the event loop
alone, checkpoint journaling and supervised retries after injected faults
are all ways of running one simulation, so every combination must reproduce
:func:`~repro.sim.engine.run_suite` -- the undistilled serial engine -- bit
for bit, floats included.  This property drives the real suite pipeline
(``run_plans`` -> ``run_shard_step`` chains on ``SupervisedExecutor``) on a
fresh store per example and draws the strategy space instead of listing it:

* modes: up to three shipped labels, plus optionally a stack registered at
  runtime from random ``ModeParameters`` fields, whose tree cache and EPC may
  take the evicting 2 KiB 2-way and 8-page geometries;
* a shard width and a stream window, each a corner of the run or any width
  up to 20 past its end;
* jobs 1 or 2, numpy as installed or off;
* optionally a seeded fault plan, one crash and one error, under a policy
  that retries them.

Every result must also conserve the run's misses: its LLC miss count is the
number of events the run's stored slices hold, read back from the store.

The four explicit examples run every shipped mode at the corners of the old
per-seam width matrices, one of them beside a stack of Tiny-SGX's shape.
"""

import dataclasses
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sim  # noqa: F401  -- registers the variant modes
from repro.baselines.invisimem import InvisiMemModel
from repro.core.config import KIB, CacheConfig, SystemConfig
from repro.sim import distill
from repro.sim.configs import (
    BASELINE_MODE,
    CounterTreeSpec,
    EpcPagingSpec,
    ModeParameters,
    register_mode,
    registered_modes,
    unregister_mode,
)
from repro.sim.distill import events_slice_key, load_slice, slice_bounds
from repro.sim.engine import ordered_modes, run_suite
from repro.sim.faults import FAULT_PLAN_ENV, FailureManifest, FaultPlan, SupervisionPolicy
from repro.sim.shard import RunPlan, run_plans, shard_bounds
from repro.sim.store import ResultStore, default_store, set_default_store

#: Small caches make evictions, and so writeback events, frequent on a
#: short trace.
SMALL_CONFIG = dataclasses.replace(
    SystemConfig(),
    l1_config=CacheConfig("L1", 8 * KIB, 4, latency_cycles=4),
    l2_config=CacheConfig("L2", 64 * KIB, 8, latency_cycles=14),
    l3_config=CacheConfig("L3", 256 * KIB, 8, latency_cycles=49),
    mac_cache_bytes=64 * KIB,
)

BENCHMARK, SCALE, N, SEED = "memcached", 0.002, 260, 7

SHIPPED = registered_modes()

DRAWN = "Drawn-Stack"

#: Retries every injected fault; the deadline only bounds a wedged worker.
FAST = SupervisionPolicy(deadline=30.0, retries=3, backoff=0.01)

#: The tree caches a drawn stack may take: the default, or Tiny-Tree's
#: 32-line cache, which evicts constantly on this trace.
TREE_CACHES = ({}, {"cache_bytes": 2 * KIB, "cache_ways": 2})

#: Tiny-SGX's eight EPC pages against the trace's ~140.
TINY_EPC = EpcPagingSpec(epc_fraction=0.0, min_epc_pages=8)

trees = st.builds(
    lambda scheme, cache: CounterTreeSpec(scheme, **cache),
    st.sampled_from(("client_sgx", "vault", "morphctr")),
    st.sampled_from(TREE_CACHES),
)

epcs = st.sampled_from((EpcPagingSpec(), TINY_EPC))

#: Tiny-SGX's shape, a tiny tree spanning the tiny EPC: one corner runs it,
#: so tier slices always cross tree and dirty EPC evictions together.
TINY_SGX = ModeParameters(
    DRAWN,
    aes_on_read=True,
    mac_traffic=True,
    counter_tree=CounterTreeSpec(**TREE_CACHES[1]),
    epc_paging=TINY_EPC,
)

stacks = st.builds(
    ModeParameters,
    label=st.just(DRAWN),
    aes_on_read=st.booleans(),
    mac_traffic=st.booleans(),
    stealth_traffic=st.booleans(),
    invisimem=st.none() | st.just(InvisiMemModel()),
    counter_tree=st.none() | trees,
    epc_paging=st.none() | epcs,
)

widths = st.sampled_from((1, 7, N // 2, N)) | st.integers(1, N + 20)
windows = st.sampled_from((1, 7, N // 3, N)) | st.integers(1, N + 20)

#: A numpy-free install has only the event loop to draw.
numpys = st.booleans() if distill.HAVE_NUMPY else st.just(False)


def corner(width, window, stack=None):
    """Every shipped mode, and ``stack`` if given, at one (shard width,
    stream window) corner."""
    return example(
        labels=SHIPPED,
        stack=stack,
        width=width,
        window=window,
        jobs=2,
        numpy=distill.HAVE_NUMPY,
        fault_seed=None,
    )


@pytest.fixture(scope="module")
def serial():
    """Each shipped mode's serial result, as ``to_dict()``."""
    suite = run_suite(
        [BENCHMARK], modes=SHIPPED, scale=SCALE, num_accesses=N, seed=SEED, config=SMALL_CONFIG
    )
    return {mode: result.to_dict() for mode, result in suite[BENCHMARK].items()}


def stored_events(plan, store):
    """How many miss events the run's stored slices hold, read back through
    ``load_slice`` as a replay step reads them."""
    window = min(plan.stream, N)
    keys = [
        events_slice_key(BENCHMARK, SCALE, SEED, N, window, index, SMALL_CONFIG)
        for index in range(len(slice_bounds(N, window)))
    ]
    assert all(key in store for key in keys), "the run left a slice unstored"
    return sum(
        len(load_slice(BENCHMARK, SCALE, SEED, N, window, index, SMALL_CONFIG, store))
        for index in range(len(keys))
    )


def run_pipeline(plan, jobs, numpy, faults):
    """``plan`` through ``run_plans`` on a fresh default store; returns the
    suite, the failure manifest and the event count of the stored slices."""
    manifest = FailureManifest()
    previous = default_store()
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as patch:
        patch.setattr(distill, "HAVE_NUMPY", numpy)
        patch.delenv(FAULT_PLAN_ENV, raising=False)
        if faults is not None:
            patch.setenv(FAULT_PLAN_ENV, faults.to_json())
        store = ResultStore(root)
        set_default_store(store)
        try:
            (suite,), _ = run_plans(
                [plan],
                jobs=jobs,
                policy=FAST if faults is not None else None,
                manifest=manifest,
                use_cache=False,
                store=store,
            )
            events = stored_events(plan, store)
        finally:
            set_default_store(previous)
            store.close()
    return suite[BENCHMARK], manifest, events


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    labels=st.lists(st.sampled_from(SHIPPED), max_size=3, unique=True),
    stack=st.none() | stacks,
    width=widths,
    window=windows,
    jobs=st.sampled_from((1, 2)),
    numpy=numpys,
    fault_seed=st.none() | st.integers(0, 1000),
)
@corner(1, 1)
@corner(1, N)
@corner(N, 1)
@corner(7, N // 3, stack=TINY_SGX)
def test_every_strategy_matches_the_serial_engine(
    serial, labels, stack, width, window, jobs, numpy, fault_seed
):
    expected = {label: serial[label] for label in labels}
    if stack is not None:
        register_mode(stack)
    try:
        if stack is not None:
            expected[DRAWN] = run_suite(
                [BENCHMARK], modes=(DRAWN,), scale=SCALE, num_accesses=N, seed=SEED,
                config=SMALL_CONFIG,
            )[BENCHMARK][DRAWN].to_dict()
        if not expected:
            # An empty draw runs the baseline alone.
            expected[BASELINE_MODE] = serial[BASELINE_MODE]
        modes = tuple(expected)
        plan = RunPlan((BENCHMARK,), modes, SCALE, N, SEED, SMALL_CONFIG, None, width, window)
        tasks = len(ordered_modes(modes)) * len(shard_bounds(N, width))
        faults = None
        if fault_seed is not None and tasks >= 2:  # two faults need two task slots
            faults = FaultPlan.generate(fault_seed, min(tasks, 12), crashes=1, errors=1)
        results, manifest, events = run_pipeline(plan, jobs, numpy, faults)
    finally:
        if stack is not None:
            unregister_mode(DRAWN)

    assert {mode: result.to_dict() for mode, result in results.items()} == expected
    assert manifest.quarantined == 0
    if faults is not None:
        # The error fires in-process too, so a plan that never fires fails.
        assert manifest.retries >= 1
    # The cache hierarchy is mode-independent: every mode sees the same
    # misses, writebacks and instructions.
    assert len({(r.llc_misses, r.writebacks, r.instructions) for r in results.values()}) == 1
    # Conservation: each LLC miss is one stored event, and the replay folded
    # every slice's counters exactly once.
    assert all(result.llc_misses == events for result in results.values())
