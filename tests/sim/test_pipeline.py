"""The one suite pipeline, stage by stage.

Every suite run -- unsharded, sharded or streamed -- plans its (benchmark,
mode) chains (:func:`prepare_suite`, which computes nothing), pipelines them
over one pool beside the ingest and tier chains that feed them
(:func:`run_chains`) and stitches the finals into the serial driver's suite
shape (:func:`stitch_chains`).  Each worker step picks its replay loop from
the event slice and component stack it observes, never from a flag.
These tests pin each stage on its own, and check by introspection that
every store key moves exactly with the fields that can change what it
stores; the end-to-end bit-identity of the whole pipeline is pinned by the
strategy property in ``test_strategy_property.py``.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.baselines.invisimem import InvisiMemModel
from repro.core.config import SystemConfig
from repro.sim import distill, replaycore, shard
from repro.sim.configs import (
    CounterTreeSpec,
    EpcPagingSpec,
    ModeParameters,
    mode_parameters,
    register_mode,
    unregister_mode,
)
from repro.sim.distill import events_key, events_slice_key
from repro.sim.engine import EngineOptions, SimulationEngine
from repro.sim.faults import FAULT_PLAN_ENV, TaskFailedError
from repro.sim.path import StealthFreshnessComponent
from repro.sim.parallel import suite_tasks
from repro.sim.results import suite_key
from repro.sim.shard import (
    IngestTask,
    RunPlan,
    ShardSpec,
    ShardTask,
    checkpoint_key,
    prepare_suite,
    producer_chains,
    run_ingest,
    run_shard_step,
    shard_chain,
    stitch_chains,
)
from repro.sim.store import ResultStore, _kind_of
from repro.workloads.registry import capture_trace, get_workload

TRACE_LEN = 260
ACCESSES = 1000


def _plan(benchmarks, modes, shard_size, stream=None):
    """A seed-1 plan of ``ACCESSES`` accesses at scale 0.002."""
    return RunPlan(benchmarks, modes, 0.002, ACCESSES, 1, None, None, shard_size, stream)


def _cell(time_ns):
    return SimpleNamespace(execution_time_ns=time_ns, baseline_time_ns=None)


def _raise_in_shard_step(task, carry):
    raise ValueError(f"shard step {task.name}/{task.params.label}")


class TestRunPlan:
    """A plan's key is the suite key of its identity fields only."""

    BASE = _plan(("bsw",), ("CI",), None)
    #: A value other than ``BASE``'s for every field.  Identity fields fix
    #: the results, so each must move the key; strategy fields must not.
    IDENTITY = {
        "benchmarks": ("fmi",),
        "modes": ("Toleo",),
        "scale": 0.004,
        "num_accesses": 2 * ACCESSES,
        "seed": 2,
        "config": SystemConfig(aes_latency_cycles=400),
        "options": EngineOptions(memory_level_parallelism=8.0),
    }
    STRATEGY = {"shard_size": 100, "stream": 250, "overrides": (("seed", 1),)}

    def test_every_field_is_classified(self):
        # A field added later must join one of the two lists.
        fields = {field.name for field in dataclasses.fields(RunPlan)}
        assert fields == self.IDENTITY.keys() | self.STRATEGY.keys()

    @pytest.mark.parametrize("field", sorted(IDENTITY))
    def test_an_identity_field_changes_the_key(self, field):
        changed = dataclasses.replace(self.BASE, **{field: self.IDENTITY[field]})
        assert changed.key != self.BASE.key

    @pytest.mark.parametrize("field", sorted(STRATEGY))
    def test_a_strategy_field_leaves_the_key(self, field):
        changed = dataclasses.replace(self.BASE, **{field: self.STRATEGY[field]})
        assert changed.key == self.BASE.key

    @pytest.mark.parametrize("field", ("shard_size", "stream"))
    def test_a_nonpositive_width_is_rejected_when_built(self, field):
        with pytest.raises(ValueError, match="must be positive"):
            dataclasses.replace(self.BASE, **{field: 0})


#: The cache-geometry leaves of a ``SystemConfig``: all a distilled event
#: stream depends on.
HIERARCHY_GEOMETRY = {
    f"config.{level}_config.{field}"
    for level in ("l1", "l2", "l3")
    for field in ("size_bytes", "ways", "line_bytes")
}

#: A mode with every optional spec set, so a walk over its parameters
#: reaches every field of ``ModeParameters`` and of each nested spec.
PROBE = ModeParameters(
    "Key-Probe",
    aes_on_read=True,
    mac_traffic=True,
    stealth_traffic=True,
    invisimem=InvisiMemModel(),
    counter_tree=CounterTreeSpec(),
    epc_paging=EpcPagingSpec(),
    description="every field set",
)


class TestStoreKeyCompleteness:
    """Perturb every field of a run description, one case per field: each
    store key must move exactly when the field can change what the key
    stores.  A field added later gets a case too, and one of a type the
    perturbation has no rule for fails its case until it is classified."""

    #: The run description a suite and its checkpoints are keyed by.
    ROOTS = {"mode": PROBE, "config": SystemConfig(), "options": EngineOptions()}

    @staticmethod
    def event_keys(config):
        """The run's ``events`` key and the key of its second 64-access slice."""
        run = ("memcached", 0.002, 7, TRACE_LEN)
        return events_key(*run, config), events_slice_key(*run, 64, 1, config)

    @staticmethod
    def run_keys(params, config, options):
        """The suite key of a one-mode run of ``params``, and the key of its
        checkpoint at access 130."""
        register_mode(params)
        try:
            suite = suite_key(("memcached",), (params.label,), 0.002, TRACE_LEN, 7, config, options)
        finally:
            unregister_mode(params.label)
        task = ShardTask("memcached", params, 0.002, TRACE_LEN, 7, config, options, 0, 130, 64)
        return suite, checkpoint_key(task)

    def test_the_geometry_table_names_real_leaves(self, leaves):
        # A renamed cache field cannot drop out of the table unnoticed.
        assert HIERARCHY_GEOMETRY <= {path for path, _ in leaves(SystemConfig(), "config")}

    @pytest.mark.leaves_of(config=SystemConfig())
    def test_only_the_hierarchy_geometry_moves_the_event_keys(self, leaf, replaced, perturbed):
        path, value = leaf
        base = SystemConfig()
        keys = self.event_keys(replaced(base, path.partition(".")[2], perturbed(path, value)))
        moved = [key != ref for key, ref in zip(keys, self.event_keys(base))]
        assert moved == [path in HIERARCHY_GEOMETRY] * 2

    def test_the_walk_reaches_every_nested_spec(self, leaves):
        seen = {path for root, value in self.ROOTS.items() for path, _ in leaves(value, root)}
        assert {
            "mode.label",
            "mode.invisimem.packet_header_bytes",
            "mode.counter_tree.scheme",
            "mode.epc_paging.min_epc_pages",
            "config.l3_config.ways",
            "config.toleo.page_bytes",
            "options.timeline_samples",
        } <= seen

    @pytest.mark.leaves_of(**ROOTS)
    def test_every_leaf_moves_the_suite_and_checkpoint_keys(self, leaf, replaced, perturbed):
        path, value = leaf
        root, _, below = path.partition(".")
        variant = dict(self.ROOTS)
        variant[root] = replaced(variant[root], below, perturbed(path, value))
        suite, checkpoint = self.run_keys(*variant.values())
        reference = self.run_keys(*self.ROOTS.values())
        assert suite != reference[0]
        assert checkpoint != reference[1]

    TASK = ShardTask(
        "memcached", PROBE, 0.002, TRACE_LEN, 7, SystemConfig(), EngineOptions(), 0, 130, 64
    )

    #: A value other than ``TASK``'s for every ``ShardTask`` field but
    #: ``start``: the state at a stop does not depend on where the shard
    #: that reached it began, so chains of different widths share their
    #: checkpoints.
    TASK_FIELDS = {
        "name": "bsw",
        "params": mode_parameters("CI"),
        "scale": 0.004,
        "num_accesses": 2 * TRACE_LEN,
        "seed": 8,
        "config": SystemConfig(aes_latency_cycles=400),
        "options": EngineOptions(memory_level_parallelism=8.0),
        "stop": 131,
        "window": 65,
    }

    def test_every_task_field_is_classified(self):
        # A field added later must join the table, or be ``start``.
        assert set(ShardTask._fields) == self.TASK_FIELDS.keys() | {"start"}

    @pytest.mark.parametrize("field", sorted(TASK_FIELDS))
    def test_a_task_field_moves_the_checkpoint_key(self, field):
        changed = self.TASK._replace(**{field: self.TASK_FIELDS[field]})
        assert checkpoint_key(changed) != checkpoint_key(self.TASK)

    def test_start_leaves_the_checkpoint_key(self):
        assert checkpoint_key(self.TASK._replace(start=7)) == checkpoint_key(self.TASK)


class TestSuitePlanning:
    def test_unsharded_suite_is_one_full_length_shard_per_chain(self):
        tasks = suite_tasks(("bsw", "fmi"), ("CI", "Toleo"), 0.002, ACCESSES, 1)
        assert [(task.name, task.params.label) for task in tasks] == [
            (name, label)
            for name in ("bsw", "fmi")
            for label in ("NoProtect", "CI", "Toleo")
        ]
        assert all(isinstance(task, ShardTask) for task in tasks)
        assert {(task.start, task.stop, task.window) for task in tasks} == {
            (0, ACCESSES, ACCESSES)
        }

    @pytest.mark.parametrize("stream", (None, ACCESSES, 3 * ACCESSES))
    def test_a_stream_at_or_beyond_the_run_plans_one_window(self, stream):
        (task,) = shard_chain("bsw", "CI", ShardSpec(ACCESSES), 0.002, ACCESSES, 1, window=stream)
        assert task.window == ACCESSES

    def test_planning_stores_nothing(self, fresh_default_store):
        chains = prepare_suite(_plan(("bsw", "fmi"), ("CI",), 400))
        assert [(chain[0].name, chain[0].params.label, len(chain)) for chain in chains] == [
            ("bsw", "NoProtect", 3),
            ("bsw", "CI", 3),
            ("fmi", "NoProtect", 3),
            ("fmi", "CI", 3),
        ]
        # Ingestion and the verdict tiers are the pool's.
        assert len(fresh_default_store) == 0

    def test_planning_a_streamed_suite_stores_nothing(self, fresh_default_store):
        chains = prepare_suite(_plan(("bsw",), ("CI",), 500, stream=250))
        assert {task.window for chain in chains for task in chain} == {250}
        assert len(fresh_default_store) == 0


#: The kinds of store entry ingestion and the tier chains produce.
PRODUCED = ("events", "events-slice", "mactier", "treetier", "epctier")


def _record_puts(monkeypatch, log):
    """Append every store key put, in any process, to the file ``log``."""
    put = ResultStore.put

    def spy(self, key, *args, **kwargs):
        with open(log, "a") as out:
            out.write(key + "\n")
        return put(self, key, *args, **kwargs)

    monkeypatch.setattr(ResultStore, "put", spy)


class TestProducerChains:
    """The ingest and tier chains :func:`run_chains` adds, on the pool: every
    run's events and verdict tiers are produced once, by workers, and the
    parent holds none of them."""

    @pytest.mark.parametrize(
        "modes, have_numpy, tiered",
        ((("CI",), True, True), (("C",), True, False), (("CI",), False, False)),
        ids=("mac-mode-with-numpy", "no-mac-mode", "without-numpy"),
    )
    def test_tiers_need_numpy_and_a_tiered_stack(
        self, modes, have_numpy, tiered, monkeypatch, fresh_default_store
    ):
        monkeypatch.setattr(distill, "HAVE_NUMPY", have_numpy)
        chains = prepare_suite(_plan(("bsw", "fmi"), modes, ACCESSES))
        producers, _ = producer_chains(chains)
        assert [chain[0].label for chain in producers] == ["bsw/ingest", "fmi/ingest"] + (
            ["bsw/tiers", "fmi/tiers"] if tiered else []
        )
        shard.run_chains(chains, jobs=1)
        assert len(fresh_default_store.query(kind="events")) == 2
        assert len(fresh_default_store.query(kind="mactier")) == (2 if tiered else 0)

    def test_steps_wait_on_what_they_read(self, monkeypatch, fresh_default_store):
        # Planning only builds the stacks, so it needs no numpy to see tiers.
        monkeypatch.setattr(distill, "HAVE_NUMPY", True)
        chains = prepare_suite(_plan(("bsw",), ("C", "CI"), 500, stream=250))
        producers, waits = producer_chains(chains)
        ingest, tiers = producers
        assert [task.label for task in ingest] == ["bsw/ingest"]
        assert [(task.label, task.index) for task in tiers] == [("bsw/tiers", i) for i in range(4)]
        # Chains 2-4 replay NoProtect, C and CI; only CI's MAC kernel reads a tier.
        assert {chain: (producer, list(stops)) for chain, (producer, stops) in waits.items()} == {
            1: (0, [250, 500, 750, 1000]),
            2: (0, [500, 1000]),
            3: (0, [500, 1000]),
            4: (1, [500, 1000]),
        }

    def test_a_warm_store_needs_no_producer(self, fresh_default_store):
        chains = prepare_suite(_plan(("bsw",), ("CI", "Client-SGX"), 500, stream=250))
        shard.run_chains(chains, jobs=1)
        assert producer_chains(chains) == ([], {})

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_each_slice_and_tier_is_stored_once(
        self, jobs, monkeypatch, fresh_default_store, tmp_path
    ):
        log = tmp_path / "puts.txt"
        _record_puts(monkeypatch, log)
        plans = (
            _plan(("bsw", "fmi"), ("CI", "Client-SGX"), 500, stream=250),
            _plan(("bsw",), ("CI",), None),
        )
        chains = [chain for plan in plans for chain in prepare_suite(plan)]
        shard.run_chains(chains, jobs=jobs)
        puts = [key for key in log.read_text().split() if _kind_of(key) in PRODUCED]
        assert len(puts) == len(set(puts))
        tiers = 1 if distill.HAVE_NUMPY else 0
        # Two streamed runs of four slices, one unstreamed run of one.
        counts = {kind: len(fresh_default_store.query(kind=kind)) for kind in PRODUCED}
        assert counts == {
            "events": 1,
            "events-slice": 8,
            "mactier": 9 * tiers,
            "treetier": 8 * tiers,
            "epctier": 8 * tiers,
        }
        assert sorted(puts) == sorted(
            entry.key for kind in PRODUCED for entry in fresh_default_store.query(kind=kind)
        )

    def test_the_parent_holds_no_events_or_tiers(self, fresh_default_store):
        # Workers ingest and compute tiers; nothing they produce is in the
        # parent's memory layer, whatever the slice width.
        for stream in (None, 250):
            chains = prepare_suite(_plan(("bsw",), ("CI", "Client-SGX"), 500, stream=stream))
            finals = shard.run_chains(chains, jobs=2)
            assert all(final.accesses == ACCESSES for final in finals)
        assert fresh_default_store.query(kind="events")
        assert fresh_default_store.query(kind="events-slice")
        assert not [key for key in fresh_default_store._memory if _kind_of(key) in PRODUCED]

    def test_no_trace_memo_survives_the_ingest_step(self, fresh_default_store):
        # The trace is only ingestion's input; once its slices are stored, no
        # per-process memo may keep the whole trace alive.
        capture_trace.cache_clear()
        for stream in (ACCESSES, 250):
            run_ingest(IngestTask("bsw", 0.002, 1, ACCESSES, stream, None))
        assert len(fresh_default_store.query(kind="events")) == 1
        assert len(fresh_default_store.query(kind="events-slice")) == 4
        assert capture_trace.cache_info().currsize == 0


class TestReplayLoopSelection:
    """A step replays through the loop its stack allows, never a flag's."""

    @staticmethod
    def _record_loops(monkeypatch):
        ran = []
        for owner, name, loop in (
            (replaycore.BatchReplayEngine, "replay", "batch"),
            (SimulationEngine, "replay_events", "events"),
            (SimulationEngine, "replay", "trace"),
        ):
            original = getattr(owner, name)

            def spy(self, *args, _original=original, _loop=loop, **kwargs):
                ran.append(_loop)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
        return ran

    @staticmethod
    def _serial(mode):
        return SimulationEngine.from_mode(mode, seed=7).run(
            get_workload("memcached", scale=0.002, seed=7).capture(TRACE_LEN),
            num_accesses=TRACE_LEN,
        )

    @staticmethod
    def _run_chain(chain):
        carry = None
        for task in chain:
            carry = run_shard_step(task, carry)
        return carry

    @staticmethod
    def _undeclare_the_sampler(monkeypatch):
        """Make Toleo's timeline sampler what a third-party sampler without
        ``access_period`` looks like."""
        original = StealthFreshnessComponent.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            del self.access_period

        monkeypatch.setattr(StealthFreshnessComponent, "__init__", init)

    @pytest.mark.parametrize("stack", ("vectorizable", "distillable"))
    def test_step_replays_through_the_loop_its_stack_allows(self, stack, monkeypatch):
        serial = self._serial("CI")
        # Without numpy no stack is vectorizable, so the scalar replay runs.
        expected = "batch" if distill.HAVE_NUMPY else "events"
        if stack == "distillable":
            monkeypatch.setattr(replaycore, "vectorizable", lambda components: False)
            expected = "events"
        ran = self._record_loops(monkeypatch)
        (task,) = shard_chain("memcached", "CI", ShardSpec(TRACE_LEN), 0.002, TRACE_LEN, 7)
        assert run_shard_step(task, None).to_dict() == serial.to_dict()
        assert ran == [expected]

    def test_windowed_slices_take_the_batch_loop(self, monkeypatch):
        serial = self._serial("CI")
        ran = self._record_loops(monkeypatch)
        chain = shard_chain(
            "memcached", "CI", ShardSpec(100), 0.002, TRACE_LEN, 7, window=64
        )
        assert self._run_chain(chain).to_dict() == serial.to_dict()
        # Shards [0,100) [100,200) [200,260) over slices of 64 accesses.
        assert ran == ["batch" if distill.HAVE_NUMPY else "events"] * 7

    def test_a_stream_covering_the_run_takes_the_batch_loop(self, monkeypatch):
        serial = self._serial("CI")
        ran = self._record_loops(monkeypatch)
        chain = shard_chain(
            "memcached", "CI", ShardSpec(100), 0.002, TRACE_LEN, 7, window=TRACE_LEN + 13
        )
        assert self._run_chain(chain).to_dict() == serial.to_dict()
        assert ran == ["batch" if distill.HAVE_NUMPY else "events"] * 3

    @pytest.mark.parametrize("window", (TRACE_LEN, 64))
    @pytest.mark.parametrize("shard_size", (TRACE_LEN, 100))
    @pytest.mark.parametrize("jobs", (1, 2))
    def test_an_opaque_stack_is_rejected_by_name_at_planning(
        self, jobs, shard_size, window, monkeypatch, fresh_default_store
    ):
        self._undeclare_the_sampler(monkeypatch)
        ran = self._record_loops(monkeypatch)
        chains = [
            shard_chain("memcached", mode, ShardSpec(shard_size), 0.002, TRACE_LEN, 7,
                        window=window)
            for mode in ("NoProtect", "Toleo")
        ]
        with pytest.raises(
            ValueError, match="mode 'Toleo' .*StealthFreshnessComponent .*access_period"
        ):
            shard.run_chains(chains, jobs=jobs)
        # Raised in the parent before any task ran: no replay, no ingestion.
        assert ran == []
        assert list(fresh_default_store.disk_keys()) == []

    def test_run_suite_still_replays_an_opaque_stack(self, monkeypatch):
        serial = self._serial("Toleo")
        self._undeclare_the_sampler(monkeypatch)
        ran = self._record_loops(monkeypatch)
        assert self._serial("Toleo").to_dict() == serial.to_dict()
        assert ran == ["trace"]


class TestRunAndStitch:
    def test_stitch_chains_keys_cells_by_chain_head(self):
        spec = ShardSpec(50)
        chains = [
            shard_chain(name, mode, spec, 0.002, 100, 1)
            for name in ("bsw", "fmi")
            for mode in ("NoProtect", "CI")
        ]
        finals = [_cell(t) for t in (100.0, 150.0, 80.0, 90.0)]
        suite = stitch_chains(chains, finals, ("CI",))
        assert suite == {"bsw": {"CI": finals[1]}, "fmi": {"CI": finals[3]}}
        assert finals[3].baseline_time_ns == 80.0

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_suite_step_exception_is_a_task_failed_error(self, jobs, monkeypatch, tmp_path):
        # jobs=1 runs inline through the same pipeline as every other jobs
        # value, so a failing shard step surfaces the same way.
        from repro.experiments.harness import run_benchmarks

        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        monkeypatch.setattr(shard, "run_shard_step", _raise_in_shard_step)
        with pytest.raises(TaskFailedError) as err:
            run_benchmarks(
                ("bsw",),
                modes=("CI",),
                num_accesses=ACCESSES,
                jobs=jobs,
                use_cache=False,
                store=ResultStore(tmp_path / "cache"),
            )
        assert err.value.record.reason == "exception"
        assert err.value.record.error.startswith("ValueError: shard step bsw/")
