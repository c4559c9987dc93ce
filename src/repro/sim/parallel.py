"""Parallel execution primitives and the suite-level helpers around them.

Every (benchmark, protection-mode) simulation is independent: the engine
builds its own cache hierarchy, protection-path components and RNGs from the
run seed, and the only cross-mode coupling -- the NoProtect baseline time
stitched into each result -- is a pure post-processing step.  That makes the
suite embarrassingly parallel.  The suite pipeline itself lives in
:mod:`repro.sim.shard`: every pair is a chain of shard tasks (one
full-length shard when unsharded) run through :func:`pipelined_map`, and
merged deterministically by :func:`stitch_suite`:

* chains are enumerated benchmark-major, mode-minor (the serial order), and
  results are reassembled into the same nested dict shape regardless of
  completion order;
* each worker replays the same trace a serial run would (same workload
  seed), so the merged output is **bit-identical** to
  :func:`repro.sim.engine.run_suite` -- pinned by ``tests/sim/test_parallel``.

**One pool.**  Every multiprocess task runs on :class:`SupervisedExecutor`:
a fixed set of worker processes fed over per-worker pipes, with per-attempt
deadlines enforced by a watchdog thread, detection of a worker dying
*mid-task*, checksummed result envelopes (a corrupted payload is detected
and retried, never silently unpickled into a wrong answer), bounded retry
with deterministic exponential backoff, and a quarantine path: a task that
exhausts its retries either aborts the run (``on_failure="raise"``) or is
recorded in a :class:`~repro.sim.faults.FailureManifest` and replaced by a
:class:`~repro.sim.faults.TaskFailure` sentinel so every *other* task and
chain still completes (``"degrade"``).  A single job or a single task runs
in-process through :func:`_call_supervised_inline`, under the same policy.

:func:`resolve_supervision` picks the policy, so the settings choose how a
failure is handled, never which code runs:

=============================  ==========================================
caller passes                  policy
=============================  ==========================================
a ``SupervisionPolicy``        that policy (``on_failure`` overrides it)
``on_failure`` alone           ``SupervisionPolicy(on_failure=...)``
nothing, ``REPRO_FAULT_PLAN``  ``SupervisionPolicy()``
nothing at all                 :data:`DEFAULT_POLICY`: no deadline, no
                               retries, the first failure aborts
=============================  ==========================================

Under every policy a failed task surfaces as
:class:`~repro.sim.faults.TaskFailedError` (or a ``TaskFailure`` sentinel
under ``"degrade"``), never as the task's own exception type.  Supervision
is an execution strategy, not a model change: a supervised run's surviving
results are bit-identical to a serial run's, and nothing about the policy
or plan ever enters a persistent-store key.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import heapq
import multiprocessing
import multiprocessing.connection
import os
import pickle
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.sim.configs import (
    BASELINE_MODE,
    ModeLike,
    ModeParameters,
    mode_label,
)
from repro.sim.engine import EngineOptions, ordered_modes
from repro.sim.faults import (
    FailureManifest,
    FaultInjectionError,
    FaultPlan,
    SupervisionPolicy,
    TaskFailedError,
    TaskFailure,
    TaskFailureRecord,
)
from repro.sim.results import SuiteResults
from repro.sim.store import close_default_connections, export_code_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.shard import ShardTask


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: None/0 means one worker per CPU."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, shares the imported package) where available."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def _task_label(task: Any) -> str:
    """A human-readable name for a task in manifests and error messages."""
    try:
        name, params = task[0], task[1]
        if isinstance(name, str) and isinstance(params, ModeParameters):
            return f"{name}/{params.label}"
    except (TypeError, IndexError, KeyError):
        pass
    return type(task).__name__


#: The policy of a run that asked for no supervision: the plain ``Pool.map``
#: contract -- no watchdog thread, no retries, the first failure aborts.
DEFAULT_POLICY = SupervisionPolicy(deadline=None, retries=0)


def resolve_supervision(
    policy: Optional[SupervisionPolicy] = None, on_failure: Optional[str] = None
) -> SupervisionPolicy:
    """The policy to run under (see the module docstring's table).

    An activated :class:`FaultPlan` (``REPRO_FAULT_PLAN``) implies
    ``SupervisionPolicy()`` even when the caller passed no policy -- the
    chaos CI job sets the environment variable and every execution path
    self-arms, with no argument threading through harness/sweep/CLI.
    """
    if policy is None:
        if on_failure is None and FaultPlan.active() is None:
            return DEFAULT_POLICY
        policy = SupervisionPolicy()
    if on_failure is not None:
        policy = dataclasses.replace(policy, on_failure=on_failure)
    return policy


# ---------------------------------------------------------------------------
# Supervised execution
# ---------------------------------------------------------------------------


def _supervised_worker_main(
    conn: multiprocessing.connection.Connection,
    parent_ends: Sequence[multiprocessing.connection.Connection] = (),
) -> None:
    """Worker loop of the supervised executor: one process, many tasks.

    Messages are ``(task_index, attempt, func, args)``; ``None`` (or a
    closed pipe) shuts the worker down.  The reply is a checksummed
    envelope: the sha256 of the pickled result is computed *before* the
    fault-injection layer gets a chance to damage the payload, so an
    injected (or real) corruption is always detectable in the parent --
    the digest is the ground truth the corruption cannot touch.

    ``parent_ends`` are the parent's ends of every worker pipe, this
    worker's own included.  A forked worker inherits copies of them and
    closes those first: a copy would keep its pipe open after the parent
    dies, so a killed run would leave the worker blocked in ``recv``
    forever instead of exiting on EOF (or on the failed ``send``).
    """
    from repro.sim.faults import corrupt_payload

    for end in parent_ends:
        end.close()
    plan = FaultPlan.active()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        index, attempt, func, args = message
        fault = plan.lookup(index, attempt) if plan is not None else None
        if fault is not None and fault.kind == "crash":
            # Hard death, not an exception: models a segfaulted/OOM-killed
            # worker, which only the parent's pipe/sentinel watch can see.
            os._exit(70)
        if fault is not None and fault.kind == "hang":
            time.sleep(fault.seconds)
        try:
            if fault is not None and fault.kind == "error":
                raise FaultInjectionError(
                    f"injected error at task {index} attempt {attempt}"
                )
            payload = pickle.dumps(func(*args), protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # noqa: BLE001 -- report, parent decides
            try:
                conn.send(("error", index, attempt, f"{type(exc).__name__}: {exc}"))
            except (OSError, ValueError):
                return
            continue
        digest = hashlib.sha256(payload).hexdigest()
        if fault is not None and fault.kind == "corrupt":
            payload = corrupt_payload(payload)
        try:
            conn.send(("ok", index, attempt, digest, payload))
        except (OSError, ValueError):
            return


class _Job:
    """One supervised task: its routing key, body, and attempt history."""

    __slots__ = ("key", "func", "args", "label", "index", "attempts")

    def __init__(
        self, key: Any, func: Callable, args: tuple, label: str, index: int
    ) -> None:
        self.key = key
        self.func = func
        self.args = args
        self.label = label
        self.index = index
        self.attempts = 0


class _SupervisedWorker:
    """One worker process plus its duplex pipe and watchdog bookkeeping."""

    __slots__ = ("process", "conn", "job", "deadline_at", "timed_out")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.job: Optional[_Job] = None
        self.deadline_at: Optional[float] = None
        self.timed_out = False


class SupervisedExecutor:
    """A fault-tolerant task executor over dedicated worker processes.

    Unlike ``multiprocessing.Pool``, every worker has its *own* duplex pipe
    and an explicit current-task assignment, which is what makes the three
    failure modes attributable:

    * **worker death** -- the worker's pipe EOFs / its sentinel fires, and
      the parent knows exactly which task died with it (a shared-queue
      pool's task in the same situation simply never completes);
    * **hang** -- a watchdog thread kills any worker past its per-attempt
      deadline; the main loop then observes the death with ``timed_out``
      set and attributes it to the deadline, not a crash;
    * **corrupt result** -- envelopes carry a pre-corruption sha256, so a
      damaged payload fails verification and is retried instead of being
      unpickled into garbage (or an exception) in the parent.

    Failed attempts retry on the deterministic backoff schedule of the
    :class:`SupervisionPolicy`; a task that exhausts its retries is
    quarantined -- recorded in the :class:`FailureManifest` and either
    raised (:class:`TaskFailedError`) or delivered as a
    :class:`TaskFailure` sentinel, per ``policy.on_failure``.

    Task submission order assigns each task its fault-plan index (retries
    keep the index of their task), so a :class:`FaultPlan` targets stable
    slots for any deterministic submission sequence.
    """

    def __init__(
        self,
        jobs: int,
        policy: SupervisionPolicy,
        manifest: Optional[FailureManifest] = None,
    ) -> None:
        self.policy = policy
        self.manifest = manifest if manifest is not None else FailureManifest()
        self._ctx = _pool_context()
        self._ready: deque = deque()
        self._waiting: List[Tuple[float, int, _Job]] = []
        self._seq = 0
        self._submitted = 0
        self._outstanding = 0
        # Guards worker assignments shared with the watchdog thread.
        self._state_lock = threading.Lock()
        # Hash the package source once here rather than once per spawn
        # worker: the exported value rides the environment into every
        # worker's code_fingerprint().
        export_code_fingerprint()
        self._workers: List[_SupervisedWorker] = []
        for _ in range(max(1, jobs)):
            self._workers.append(self._spawn_worker())

    # -- worker lifecycle ----------------------------------------------------

    def _spawn_worker(self) -> _SupervisedWorker:
        parent_conn, child_conn = self._ctx.Pipe()
        parent_ends = [worker.conn for worker in self._workers] + [parent_conn]
        process = self._ctx.Process(
            target=_supervised_worker_main,
            args=(child_conn, parent_ends),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _SupervisedWorker(process, parent_conn)

    def _replace_worker(self, worker: _SupervisedWorker) -> None:
        with self._state_lock:
            slot = self._workers.index(worker)
            self._workers[slot] = self._spawn_worker()
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.kill()
        worker.process.join()

    def _shutdown(self) -> None:
        with self._state_lock:
            workers, self._workers = self._workers, []
        for worker in workers:
            if worker.job is not None:
                # Still executing (we are aborting): no point waiting.
                worker.process.kill()
            else:
                try:
                    worker.conn.send(None)
                except (OSError, ValueError):
                    pass
        for worker in workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            try:
                worker.conn.close()
            except OSError:
                pass

    # -- the supervision loop ------------------------------------------------

    def submit(self, key: Any, func: Callable, args: tuple, label: str = "") -> None:
        """Queue a task; its fault-plan index is its submission rank."""
        self._ready.append(_Job(key, func, args, label, self._submitted))
        self._submitted += 1
        self._outstanding += 1

    def run(self, deliver: Callable[[Any, Any], None]) -> None:
        """Execute until every submitted task is delivered or quarantined.

        ``deliver(key, value)`` runs on the calling thread and may call
        :meth:`submit` to extend the run (the pipelined driver submits each
        chain's next step from its predecessor's delivery).  ``value`` is a
        :class:`TaskFailure` for degrade-mode quarantined tasks.

        However the run ends -- done, a raise-mode quarantine, an exception
        out of ``deliver``, or ^C -- every worker is stopped before this
        returns; busy ones are killed, so none is left orphaned.
        """
        stop = threading.Event()
        watchdog = None
        if self.policy.deadline is not None:
            watchdog = threading.Thread(
                target=self._watchdog_loop, args=(stop,), daemon=True
            )
            watchdog.start()
        try:
            while self._outstanding > 0:
                self._promote_due()
                self._assign()
                self._collect(deliver)
        except KeyboardInterrupt:
            # No sqlite handle may be left pinning the store WAL either.
            close_default_connections()
            raise
        finally:
            stop.set()
            if watchdog is not None:
                watchdog.join()
            self._shutdown()

    def _watchdog_loop(self, stop: threading.Event) -> None:
        """Kill any worker whose current attempt outlived its deadline.

        The kill is the whole intervention: the main loop observes the death
        through the worker's sentinel/pipe and, seeing ``timed_out``,
        attributes the failure to the deadline and retries the task on the
        normal schedule.
        """
        interval = min(0.05, (self.policy.deadline or 1.0) / 4)
        while not stop.wait(interval):
            now = time.monotonic()
            with self._state_lock:
                for worker in self._workers:
                    if (
                        worker.job is not None
                        and worker.deadline_at is not None
                        and now > worker.deadline_at
                        and not worker.timed_out
                    ):
                        worker.timed_out = True
                        worker.process.kill()

    def _promote_due(self) -> None:
        now = time.monotonic()
        while self._waiting and self._waiting[0][0] <= now:
            _, _, job = heapq.heappop(self._waiting)
            self._ready.append(job)

    def _assign(self) -> None:
        for worker in list(self._workers):
            if not self._ready:
                return
            if worker.job is not None:
                continue
            job = self._ready.popleft()
            try:
                worker.conn.send((job.index, job.attempts + 1, job.func, job.args))
            except (OSError, ValueError):
                # The worker died while idle; the task never started, so it
                # keeps its attempt count and goes straight back to ready.
                self._ready.appendleft(job)
                self._replace_worker(worker)
                continue
            with self._state_lock:
                worker.job = job
                worker.timed_out = False
                if self.policy.deadline is not None:
                    worker.deadline_at = time.monotonic() + self.policy.deadline

    def _collect(self, deliver: Callable[[Any, Any], None]) -> None:
        busy = [worker for worker in self._workers if worker.job is not None]
        if not busy:
            if not self._ready and self._waiting:
                # Nothing running, nothing assignable: sleep out the backoff.
                time.sleep(max(0.0, self._waiting[0][0] - time.monotonic()))
            return
        timeout = None
        if self._waiting:
            timeout = max(0.0, self._waiting[0][0] - time.monotonic())
        handles: List[Any] = []
        owners = {}
        for worker in busy:
            for handle in (worker.conn, worker.process.sentinel):
                handles.append(handle)
                owners[handle] = worker
        ready = multiprocessing.connection.wait(handles, timeout)
        seen = set()
        for handle in ready:
            worker = owners[handle]
            if id(worker) in seen:
                continue
            seen.add(id(worker))
            self._handle_worker_event(worker, deliver)

    def _handle_worker_event(
        self, worker: _SupervisedWorker, deliver: Callable[[Any, Any], None]
    ) -> None:
        job = worker.job
        if job is None:
            return
        message = None
        if worker.conn.poll():
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                message = None
        elif worker.process.is_alive():
            return
        if message is None:
            # Death mid-task: pipe EOF (crash) or watchdog kill (deadline).
            reason = "deadline-exceeded" if worker.timed_out else "worker-died"
            detail = f"worker pid {worker.process.pid} exited mid-task"
            if worker.timed_out:
                detail = (
                    f"attempt exceeded the {self.policy.deadline}s deadline; "
                    f"worker pid {worker.process.pid} killed by the watchdog"
                )
            self._replace_worker(worker)
            self._task_failed(job, reason, detail, deliver)
            return
        with self._state_lock:
            worker.job = None
            worker.deadline_at = None
        if message[0] == "error":
            self._task_failed(job, "exception", message[3], deliver)
            return
        _, _, _, digest, payload = message
        if hashlib.sha256(payload).hexdigest() != digest:
            self._task_failed(
                job, "corrupt-result", "result payload failed its checksum", deliver
            )
            return
        try:
            value = pickle.loads(payload)
        except Exception as exc:
            self._task_failed(
                job, "corrupt-result", f"{type(exc).__name__}: {exc}", deliver
            )
            return
        self._outstanding -= 1
        deliver(job.key, value)

    def _task_failed(
        self,
        job: _Job,
        reason: str,
        error: str,
        deliver: Callable[[Any, Any], None],
    ) -> None:
        job.attempts += 1
        if job.attempts <= self.policy.retries:
            self.manifest.note_retry()
            delay = self.policy.backoff_delay(job.attempts)
            self._seq += 1
            heapq.heappush(
                self._waiting, (time.monotonic() + delay, self._seq, job)
            )
            return
        record = TaskFailureRecord(
            index=job.index,
            label=job.label,
            attempts=job.attempts,
            reason=reason,
            error=str(error),
        )
        self.manifest.add(record)
        if self.policy.on_failure == "raise":
            raise TaskFailedError(record)
        self._outstanding -= 1
        deliver(job.key, TaskFailure(record))


def _call_supervised_inline(
    call: Callable[[], Any],
    policy: SupervisionPolicy,
    manifest: FailureManifest,
    index: int,
    label: str,
) -> Any:
    """The in-process path, taken with one job or a single task.

    Applies the same retry/backoff/quarantine discipline as the executor.
    Process-level faults (``crash``/``hang``/``corrupt``) need a worker
    process to injure and are not injected inline -- an inline ``crash``
    would kill the caller, which is the run itself; only ``error`` faults
    fire.  The watchdog likewise cannot preempt the calling thread, so
    deadlines are not enforced inline.
    """
    attempts = 0
    plan = FaultPlan.active()
    while True:
        try:
            fault = plan.lookup(index, attempts + 1) if plan is not None else None
            if fault is not None and fault.kind == "error":
                raise FaultInjectionError(
                    f"injected error at task {index} attempt {attempts + 1}"
                )
            return call()
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            attempts += 1
            if attempts <= policy.retries:
                manifest.note_retry()
                time.sleep(policy.backoff_delay(attempts))
                continue
            record = TaskFailureRecord(
                index=index,
                label=label,
                attempts=attempts,
                reason="exception",
                error=f"{type(exc).__name__}: {exc}",
            )
            manifest.add(record)
            if policy.on_failure == "raise":
                raise TaskFailedError(record) from exc
            return TaskFailure(record)


# ---------------------------------------------------------------------------
# The two mapping primitives
# ---------------------------------------------------------------------------


def parallel_map(
    func: Callable,
    tasks: Sequence,
    jobs: Optional[int] = None,
    policy: Optional[SupervisionPolicy] = None,
    manifest: Optional[FailureManifest] = None,
) -> List:
    """Map ``func`` over ``tasks`` with up to ``jobs`` worker processes.

    Each task is a one-step chain of :func:`pipelined_map`, so results come
    back in task order, a task's fault-plan index is its position, and a
    single job or a single task runs in-process; everything else runs on
    :class:`SupervisedExecutor`.

    ``policy`` is resolved by :func:`resolve_supervision`: without one (and
    without an active ``REPRO_FAULT_PLAN``) a failing task aborts the map
    with :class:`TaskFailedError`.  Under ``on_failure="degrade"``,
    :class:`TaskFailure` sentinels fill the slots of quarantined tasks
    instead of an aborted run.
    """
    return pipelined_map(
        functools.partial(_ignore_carry, func),
        [[task] for task in tasks],
        jobs=jobs,
        policy=policy,
        manifest=manifest,
    )


def _ignore_carry(func: Callable, task: Any, carry: None) -> Any:
    """A one-step chain's body: ``func`` on the task alone.  Module-level,
    so ``functools.partial(_ignore_carry, func)`` pickles wherever ``func``
    does."""
    return func(task)


def pipelined_map(
    func: Callable[[Any, Any], Any],
    chains: Sequence[Sequence[Any]],
    jobs: Optional[int] = None,
    policy: Optional[SupervisionPolicy] = None,
    manifest: Optional[FailureManifest] = None,
    initials: Optional[Sequence[Any]] = None,
    on_carry: Optional[Callable[[int, int, Any], None]] = None,
) -> List[Any]:
    """Run several sequential task chains concurrently over one worker pool.

    Each chain is a list of tasks with a data dependency between consecutive
    steps: ``func(task, carry)`` receives the previous step's return value as
    ``carry`` (``None`` for the first step) and its return value is handed to
    the next step.  Chains are independent of each other, so while step k of
    one chain runs, other chains' steps run in parallel -- the pipelined shard
    handoff: shard k of a (benchmark, mode) pair needs shard k-1's checkpoint,
    but every *pair's* current shard occupies a worker simultaneously.

    The parent schedules chain steps itself: the delivery of step k submits
    step k+1 to the executor, so no barrier ever holds a finished chain
    hostage to a slower one, and worker death, retries and quarantine all
    happen *per step*.  Returns the final carry of each chain, in chain
    order; one job or a single step runs in-process.

    ``initials`` seeds each chain's first ``carry`` (resume support: a chain
    trimmed to its unfinished suffix starts from a restored checkpoint
    instead of ``None``).  ``on_carry(chain_index, step_index, carry)`` fires
    in the *parent* after every completed step -- intermediate carries are
    checkpoints, the last carry is the chain's final result -- which is how
    :mod:`repro.sim.shard` persists in-flight checkpoints without widening
    its task tuples; an exception it raises stops every worker and
    propagates to the caller.  A chain whose step is quarantined in degrade
    mode yields a :class:`TaskFailure` in its final slot while every other
    chain runs to completion.
    """
    chains = [list(chain) for chain in chains]
    starts: List[Any] = (
        list(initials) if initials is not None else [None] * len(chains)
    )
    if len(starts) != len(chains):
        raise ValueError(
            f"initials has {len(starts)} entries for {len(chains)} chains"
        )
    total = sum(len(chain) for chain in chains)
    jobs = min(resolve_jobs(jobs), max(1, len(chains)))
    policy = resolve_supervision(policy)
    if manifest is None:
        manifest = FailureManifest()

    if jobs <= 1 or total <= 1:
        finals: List[Any] = []
        index = 0
        for chain_index, chain in enumerate(chains):
            carry: Any = starts[chain_index]
            outcome: Any = None
            for step_index, task in enumerate(chain):
                carry = _call_supervised_inline(
                    lambda t=task, c=carry: func(t, c),
                    policy,
                    manifest,
                    index,
                    _task_label(task),
                )
                index += 1
                outcome = carry
                if isinstance(carry, TaskFailure):
                    break
                if on_carry is not None:
                    on_carry(chain_index, step_index, carry)
            finals.append(outcome)
        return finals

    executor = SupervisedExecutor(jobs, policy, manifest)
    finals = [None] * len(chains)

    def submit_step(chain_index: int, step_index: int, carry: Any) -> None:
        task = chains[chain_index][step_index]
        executor.submit(
            (chain_index, step_index),
            func,
            (task, carry),
            label=_task_label(task),
        )

    def deliver(key: Any, value: Any) -> None:
        chain_index, step_index = key
        if isinstance(value, TaskFailure):
            finals[chain_index] = value
            return
        if on_carry is not None:
            on_carry(chain_index, step_index, value)
        if step_index + 1 < len(chains[chain_index]):
            submit_step(chain_index, step_index + 1, value)
        else:
            finals[chain_index] = value

    for chain_index, chain in enumerate(chains):
        if chain:
            submit_step(chain_index, 0, starts[chain_index])
    executor.run(deliver)
    return finals


# ---------------------------------------------------------------------------
# Suite-level helpers
# ---------------------------------------------------------------------------


def suite_tasks(
    names: Sequence[str],
    modes: Sequence[ModeLike],
    scale: float,
    num_accesses: int,
    seed: int,
    config: Optional[SystemConfig] = None,
    options: Optional[EngineOptions] = None,
) -> List["ShardTask"]:
    """One unsharded suite's tasks, benchmark-major, mode-minor (serial order).

    These are what the pipeline dispatches for an unsharded run: each
    (benchmark, mode) pair is a chain of one full-length, one-window
    :class:`~repro.sim.shard.ShardTask`.  ``NOPROTECT`` is always included
    (first) even when not requested -- it provides the baseline time the
    merge stitches into every result.
    """
    from repro.sim.shard import ShardSpec, shard_chain

    spec = ShardSpec(num_accesses)
    return [
        task
        for name in names
        for mode in ordered_modes(modes)
        for task in shard_chain(name, mode, spec, scale, num_accesses, seed, config, options)
    ]


def stitch_suite(
    cells: Iterable[Tuple[str, str, Any]],
    requested_modes: Sequence[ModeLike],
) -> SuiteResults:
    """Nest ``(benchmark, mode label, result)`` cells into the suite shape.

    Stitches the per-benchmark NoProtect baseline into every result, then
    keeps only the requested modes -- exactly as the serial
    :func:`repro.sim.engine.compare_modes` does.

    Degrade-mode :class:`TaskFailure` sentinels contribute nothing: the
    quarantined (benchmark, mode) cell is simply absent from the merged
    suite, and a benchmark whose *baseline* was quarantined is dropped
    entirely -- without the NoProtect time every slowdown in the row would
    be unnormalisable.  Callers distinguish "degraded" from "complete"
    through the run's :class:`~repro.sim.faults.FailureManifest`, never by
    probing the suite shape.
    """
    complete: SuiteResults = {}
    for name, label, result in cells:
        if result is None or isinstance(result, TaskFailure):
            continue
        complete.setdefault(name, {})[label] = result

    requested = {mode_label(mode) for mode in requested_modes}
    suite: SuiteResults = {}
    for name, per_mode in complete.items():
        if BASELINE_MODE not in per_mode:
            continue
        baseline = per_mode[BASELINE_MODE].execution_time_ns
        for result in per_mode.values():
            result.baseline_time_ns = baseline
        suite[name] = {
            mode: result for mode, result in per_mode.items() if mode in requested
        }
    return suite


__all__ = [
    "DEFAULT_POLICY",
    "SuiteResults",
    "SupervisedExecutor",
    "parallel_map",
    "pipelined_map",
    "resolve_jobs",
    "resolve_supervision",
    "stitch_suite",
    "suite_tasks",
]
