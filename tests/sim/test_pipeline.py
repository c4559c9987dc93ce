"""The one suite pipeline, stage by stage.

Every suite run -- unsharded, sharded or streamed -- plans its (benchmark,
mode) chains and pays the parent pre-pass (:func:`prepare_suite`), pipelines
them over one pool (:func:`run_chains`) and stitches the finals into the
serial driver's suite shape (:func:`stitch_chains`).  Each worker step picks
its replay loop from the event slice and component stack it observes, never
from a flag.
These tests pin each stage on its own; the end-to-end bit-identity of the
whole pipeline is pinned by ``test_parallel.py`` and ``test_sharding.py``.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.core.config import SystemConfig
from repro.sim import replaycore, shard
from repro.sim.distill import events_key
from repro.sim.engine import EngineOptions, SimulationEngine
from repro.sim.faults import FAULT_PLAN_ENV, TaskFailedError
from repro.sim.parallel import suite_tasks
from repro.sim.shard import (
    RunPlan,
    ShardSpec,
    ShardTask,
    prepare_suite,
    run_shard_step,
    shard_chain,
    stitch_chains,
)
from repro.sim.store import ResultStore, default_store, set_default_store
from repro.workloads.registry import capture_trace, get_workload

TRACE_LEN = 260
ACCESSES = 1000


@pytest.fixture
def fresh_default_store(tmp_path):
    """An isolated default store, so entry counts see only this test's
    entries (forked workers inherit the object)."""
    previous = default_store()
    store = ResultStore(tmp_path / "cache")
    set_default_store(store)
    yield store
    set_default_store(previous)


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

    def test_prepare_suite_pays_each_pre_pass_once(self, fresh_default_store):
        chains = prepare_suite(_plan(("bsw", "fmi"), ("CI",), 400))
        assert [(chain[0].name, chain[0].params.label, len(chain)) for chain in chains] == [
            ("bsw", "NoProtect", 3),
            ("bsw", "CI", 3),
            ("fmi", "NoProtect", 3),
            ("fmi", "CI", 3),
        ]
        assert len(fresh_default_store.query(kind="events")) == 2
        tiers = 2 if replaycore.HAVE_NUMPY else 0
        assert len(fresh_default_store.query(kind="mactier")) == tiers

    def test_streamed_suite_persists_slices_not_the_stream(self, fresh_default_store):
        chains = prepare_suite(_plan(("bsw",), ("CI",), 500, stream=250))
        assert {task.window for chain in chains for task in chain} == {250}
        assert len(fresh_default_store.query(kind="events-slice")) == 4
        assert fresh_default_store.query(kind="events") == []


class TestParentPrePass:
    """:func:`prepare_suite`'s pre-pass: every benchmark's events, and the
    MAC tier only where a worker can use it."""

    @pytest.mark.parametrize(
        "modes, have_numpy, tiered",
        ((("CI",), True, True), (("C",), True, False), (("CI",), False, False)),
        ids=("mac-mode-with-numpy", "no-mac-mode", "without-numpy"),
    )
    def test_mac_tier_needs_numpy_and_mac_traffic(
        self, modes, have_numpy, tiered, monkeypatch, fresh_default_store
    ):
        monkeypatch.setattr(replaycore, "HAVE_NUMPY", have_numpy)
        prepare_suite(_plan(("bsw", "fmi"), modes, ACCESSES))
        assert len(fresh_default_store.query(kind="events")) == 2
        assert len(fresh_default_store.query(kind="mactier")) == (2 if tiered else 0)

    def test_pre_pass_pins_no_trace(self, fresh_default_store):
        # The trace is only the pre-pass's input; once its stream is stored,
        # no per-process memo may keep the whole trace alive.
        capture_trace.cache_clear()
        prepare_suite(_plan(("bsw", "fmi"), ("CI",), ACCESSES))
        assert len(fresh_default_store.query(kind="events")) == 2
        assert capture_trace.cache_info().currsize == 0

    def test_warm_disk_pre_pass_fills_the_memory_layer_forks_inherit(
        self, fresh_default_store
    ):
        # A warm disk store skips the distillation, but the one-window run's
        # events entry and MAC tier must still land in the parent's memory
        # layer, where forked workers inherit them; a windowed slice never
        # enters it.
        prepare_suite(_plan(("bsw",), ("CI",), 500))
        prepare_suite(_plan(("bsw",), ("CI",), 500, stream=250))
        fresh_default_store.clear_memory()
        prepare_suite(_plan(("bsw",), ("CI",), 500, stream=250))
        assert fresh_default_store._memory == {}
        prepare_suite(_plan(("bsw",), ("CI",), 500))
        key = events_key("bsw", 0.002, 1, ACCESSES)
        events = fresh_default_store._memory[key]
        expected = {key}
        if replaycore.HAVE_NUMPY:
            expected.add(replaycore.mac_tier_key(events))
        assert set(fresh_default_store._memory) == expected


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

    @pytest.mark.parametrize("stack", ("vectorizable", "distillable", "opaque"))
    def test_step_replays_through_the_loop_its_stack_allows(self, stack, monkeypatch):
        serial = self._serial("CI")
        # Without numpy no stack is vectorizable, so the scalar replay runs.
        expected = "batch" if replaycore.HAVE_NUMPY else "events"
        if stack == "distillable":
            monkeypatch.setattr(replaycore, "vectorizable", lambda components: False)
            expected = "events"
        elif stack == "opaque":
            # What a third-party sampler without ``access_period`` looks like.
            monkeypatch.setattr(
                SimulationEngine, "distillable", staticmethod(lambda components: False)
            )
            expected = "trace"
        ran = self._record_loops(monkeypatch)
        (task,) = shard_chain("memcached", "CI", ShardSpec(TRACE_LEN), 0.002, TRACE_LEN, 7)
        assert run_shard_step(task, None).to_dict() == serial.to_dict()
        assert ran == [expected]

    def test_windowed_slices_replay_events_even_when_vectorizable(self, monkeypatch):
        serial = self._serial("CI")
        ran = self._record_loops(monkeypatch)
        chain = shard_chain(
            "memcached", "CI", ShardSpec(100), 0.002, TRACE_LEN, 7, window=64
        )
        assert self._run_chain(chain).to_dict() == serial.to_dict()
        # Shards [0,100) [100,200) [200,260) over slices of 64 accesses.
        assert ran == ["events"] * 7

    def test_a_stream_covering_the_run_takes_the_batch_loop(self, monkeypatch):
        serial = self._serial("CI")
        ran = self._record_loops(monkeypatch)
        chain = shard_chain(
            "memcached", "CI", ShardSpec(100), 0.002, TRACE_LEN, 7, window=TRACE_LEN + 13
        )
        assert self._run_chain(chain).to_dict() == serial.to_dict()
        assert ran == ["batch" if replaycore.HAVE_NUMPY else "events"] * 3

    def test_a_windowed_opaque_stack_is_rejected_by_name(self, monkeypatch):
        monkeypatch.setattr(
            SimulationEngine, "distillable", staticmethod(lambda components: False)
        )
        (task,) = shard_chain(
            "memcached", "Toleo", ShardSpec(TRACE_LEN), 0.002, TRACE_LEN, 7, window=64
        )
        with pytest.raises(ValueError, match="mode 'Toleo' .* one window"):
            run_shard_step(task, None)

    def test_a_one_window_opaque_stack_replays_the_trace(self, monkeypatch):
        serial = self._serial("Toleo")
        monkeypatch.setattr(
            SimulationEngine, "distillable", staticmethod(lambda components: False)
        )
        ran = self._record_loops(monkeypatch)
        chain = shard_chain(
            "memcached", "Toleo", ShardSpec(100), 0.002, TRACE_LEN, 7, window=TRACE_LEN
        )
        assert self._run_chain(chain).to_dict() == serial.to_dict()
        assert ran == ["trace"] * 3


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
