"""The one suite pipeline, stage by stage.

Every suite run -- unsharded, sharded or streamed -- plans its (benchmark,
mode) chains and pays the parent pre-pass (:func:`prepare_suite`), pipelines
them over one pool (:func:`run_chains`) and stitches the finals into the
serial driver's suite shape (:func:`stitch_chains`).  Each worker step picks
its replay loop from the component stack it observes, never from a flag.
These tests pin each stage on its own; the end-to-end bit-identity of the
whole pipeline is pinned by ``test_parallel.py`` and ``test_sharding.py``.
"""

from types import SimpleNamespace

import pytest

from repro.sim import distill, replaycore, shard
from repro.sim.engine import SimulationEngine
from repro.sim.faults import FAULT_PLAN_ENV, TaskFailedError
from repro.sim.parallel import predistill, suite_tasks
from repro.sim.shard import (
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


def _cell(time_ns):
    return SimpleNamespace(execution_time_ns=time_ns, baseline_time_ns=None)


def _raise_in_shard_step(task, carry):
    raise ValueError(f"shard step {task.name}/{task.params.label}")


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
            (0, ACCESSES, None)
        }

    def test_prepare_suite_pays_each_pre_pass_once(self, fresh_default_store):
        chains = prepare_suite(("bsw", "fmi"), ("CI",), ShardSpec(400), 0.002, ACCESSES, 1)
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
        chains = prepare_suite(
            ("bsw",), ("CI",), ShardSpec(500), 0.002, ACCESSES, 1, stream=250
        )
        assert {task.window for chain in chains for task in chain} == {250}
        assert len(fresh_default_store.query(kind="events-slice")) == 4
        assert fresh_default_store.query(kind="events") == []


class TestPredistill:
    """The parent pre-pass: every benchmark's events, and the MAC tier only
    where a worker can use it."""

    @pytest.mark.parametrize(
        "modes, have_numpy, tiered",
        ((("CI",), True, True), (("C",), True, False), (("CI",), False, False)),
        ids=("mac-mode-with-numpy", "no-mac-mode", "without-numpy"),
    )
    def test_mac_tier_needs_numpy_and_mac_traffic(
        self, modes, have_numpy, tiered, monkeypatch
    ):
        distilled, tiers = [], []

        def fake_events(name, *run):
            distilled.append(name)
            return f"events:{name}"

        monkeypatch.setattr(replaycore, "HAVE_NUMPY", have_numpy)
        monkeypatch.setattr(distill, "distilled_events", fake_events)
        monkeypatch.setattr(
            replaycore, "distilled_mac_tier", lambda events, config: tiers.append(events)
        )
        predistill(("bsw", "fmi"), modes, 0.002, ACCESSES, 1, None)
        assert distilled == ["bsw", "fmi"]
        assert tiers == (["events:bsw", "events:fmi"] if tiered else [])

    def test_pre_pass_pins_no_trace(self, fresh_default_store):
        # The trace is only the pre-pass's input; once its stream is stored,
        # no per-process memo may keep the whole trace alive.
        capture_trace.cache_clear()
        predistill(("bsw", "fmi"), ("CI",), 0.002, ACCESSES, 1, None)
        assert len(fresh_default_store.query(kind="events")) == 2
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

    @pytest.mark.parametrize("stack", ("vectorizable", "distillable", "opaque"))
    def test_step_replays_through_the_loop_its_stack_allows(self, stack, monkeypatch):
        serial = SimulationEngine.from_mode("CI", seed=7).run(
            get_workload("memcached", scale=0.002, seed=7).capture(TRACE_LEN),
            num_accesses=TRACE_LEN,
        )
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
