"""Parallel execution primitives and the suite-level helpers around them.

Every (benchmark, protection-mode) simulation is independent: the engine
builds its own cache hierarchy, protection-path components and RNGs from the
run seed, and the only cross-mode coupling -- the NoProtect baseline time
stitched into each result -- is a pure post-processing step.  That makes the
suite embarrassingly parallel.  The suite pipeline itself lives in
:mod:`repro.sim.shard`: every pair is a chain of shard tasks (one
full-length shard when unsharded) run through :func:`pipelined_map` beside
the ingest and tier chains that feed it -- its steps wait on their
progress (``waits``, :func:`report_progress`) -- and merged
deterministically by :func:`stitch_suite`:

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

import contextlib
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
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.config import SystemConfig
from repro.sim.configs import BASELINE_MODE, mode_label
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
    """A human-readable name for a task in manifests and error messages:
    its ``label`` when it has one (every pipeline task type does), else its
    type's name."""
    label = getattr(task, "label", None)
    return label if isinstance(label, str) else type(task).__name__


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
# Progress reports
# ---------------------------------------------------------------------------

#: Where :func:`report_progress` sends a value: the running worker's pipe,
#: the inline path's gate, or nowhere outside a mapped task.
_progress_sink: Optional[Callable[[Any], None]] = None


def report_progress(value: Any) -> None:
    """Tell the parent how far the running task has got.

    A long task -- a streamed ingest -- calls this after each unit of work
    (the stop of each event slice it stored).  In a worker the value rides
    the task's pipe to the parent, which re-arms the attempt's deadline and
    releases the steps of other chains that wait on it (``pipelined_map``'s
    ``waits``); inline it feeds the same gate; outside a mapped task it is a
    no-op.  Values a chain reports must grow.
    """
    if _progress_sink is not None:
        _progress_sink(value)


@contextlib.contextmanager
def _reporting_to(sink: Callable[[Any], None]) -> Iterator[None]:
    global _progress_sink
    previous, _progress_sink = _progress_sink, sink
    try:
        yield
    finally:
        _progress_sink = previous


# ---------------------------------------------------------------------------
# Supervised execution
# ---------------------------------------------------------------------------


def _supervised_worker_main(
    conn: multiprocessing.connection.Connection,
    parent_ends: Sequence[multiprocessing.connection.Connection] = (),
) -> None:
    """Worker loop of the supervised executor: one process, many tasks.

    Messages are ``(task_index, attempt, func, args)``; ``None`` (or a
    closed pipe) shuts the worker down.  An argument that is a
    :class:`_Pickled` result of an earlier task is loaded here, before the
    call.  While the task runs, each
    :func:`report_progress` call sends ``("progress", task_index, attempt,
    value)``.  The reply is a checksummed
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
            args = tuple(
                pickle.loads(arg.data) if isinstance(arg, _Pickled) else arg for arg in args
            )
            with _reporting_to(lambda value: conn.send(("progress", index, attempt, value))):
                result = func(*args)
            payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
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


class _Pickled:
    """A task's result as its worker pickled it, which the parent passes on
    unread: the worker that receives it among a later task's arguments
    loads it (see ``forward`` in :meth:`SupervisedExecutor.submit`)."""

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data


class _Job:
    """One supervised task: its routing key, body, and attempt history."""

    __slots__ = ("key", "func", "args", "label", "index", "forward", "attempts")

    def __init__(
        self, key: Any, func: Callable, args: tuple, label: str, index: int, forward: bool
    ) -> None:
        self.key = key
        self.func = func
        self.args = args
        self.label = label
        self.index = index
        self.forward = forward
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

    A task's fault-plan index is the slot its submitter passes -- the
    pipelined driver passes each step's chain-major rank -- and retries
    keep the index of their task, so a :class:`FaultPlan` targets the same
    steps however they are timed.  The slot also orders the ready queue:
    an idle worker takes the ready task with the lowest slot, so a producer
    step released late (an ingest or tier step, whose chains rank first)
    does not wait behind replay steps queued before it.

    A task's :func:`report_progress` values are relayed to the ``progress``
    callback of :meth:`run`, and each one re-arms the attempt's deadline:
    the deadline bounds the silence between reports, so a streamed ingest
    is bounded per window rather than per run.
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
        # Heaps: ready tasks by (slot, submission), waiting retries by
        # (due time, submission).
        self._ready: List[Tuple[int, int, _Job]] = []
        self._waiting: List[Tuple[float, int, _Job]] = []
        self._seq = 0
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

    def submit(
        self,
        key: Any,
        func: Callable,
        args: tuple,
        index: int,
        label: str = "",
        forward: bool = False,
    ) -> None:
        """Queue a task; ``index`` is its fault-plan slot, which orders it.

        With ``forward`` the task's result is delivered as the worker
        pickled it, a :class:`_Pickled` the parent never loads, to be passed
        among a later task's ``args``: the result crosses from one worker to
        the next as bytes, and only the receiving worker loads it.  Its
        checksum is still verified here.
        """
        self._make_ready(_Job(key, func, args, label, index, forward))
        self._outstanding += 1

    def _make_ready(self, job: _Job) -> None:
        self._seq += 1
        heapq.heappush(self._ready, (job.index, self._seq, job))

    def run(
        self,
        deliver: Callable[[Any, Any], None],
        progress: Optional[Callable[[Any, Any], None]] = None,
    ) -> None:
        """Execute until every submitted task is delivered or quarantined.

        ``deliver(key, value)`` runs on the calling thread and may call
        :meth:`submit` to extend the run (the pipelined driver submits each
        chain's next step from its predecessor's delivery).  ``value`` is a
        :class:`TaskFailure` for degrade-mode quarantined tasks.
        ``progress(key, value)`` runs on the calling thread too, once per
        :func:`report_progress` of a running task, and may also submit.

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
                self._collect(deliver, progress)
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
            self._make_ready(job)

    def _assign(self) -> None:
        for worker in list(self._workers):
            if not self._ready:
                return
            if worker.job is not None:
                continue
            _, _, job = heapq.heappop(self._ready)
            try:
                worker.conn.send((job.index, job.attempts + 1, job.func, job.args))
            except (OSError, ValueError):
                # The worker died while idle; the task never started, so it
                # keeps its attempt count and goes straight back to ready.
                self._make_ready(job)
                self._replace_worker(worker)
                continue
            with self._state_lock:
                worker.job = job
                worker.timed_out = False
                if self.policy.deadline is not None:
                    worker.deadline_at = time.monotonic() + self.policy.deadline

    def _collect(
        self,
        deliver: Callable[[Any, Any], None],
        progress: Optional[Callable[[Any, Any], None]],
    ) -> None:
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
            self._handle_worker_event(worker, deliver, progress)

    def _handle_worker_event(
        self,
        worker: _SupervisedWorker,
        deliver: Callable[[Any, Any], None],
        progress: Optional[Callable[[Any, Any], None]],
    ) -> None:
        job = worker.job
        if job is None:
            return
        while True:
            message = None
            if worker.conn.poll():
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    message = None
            elif worker.process.is_alive():
                return
            if message is None or message[0] != "progress":
                break
            # A report re-arms the attempt's deadline; the task runs on.
            if self.policy.deadline is not None:
                with self._state_lock:
                    worker.deadline_at = time.monotonic() + self.policy.deadline
            if progress is not None:
                progress(job.key, message[3])
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
        if job.forward:
            value: Any = _Pickled(payload)
        else:
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


#: What ``waits`` maps a chain to: the chain whose progress it waits on,
#: and the progress each of its steps needs.
Wait = Tuple[int, Sequence[Any]]


class _Gates:
    """The progress every chain has reported, and the steps held on it.

    A step of a chain in ``waits`` may run once its producer has reported
    the step's threshold or has ended; when the producer ended in a
    :class:`TaskFailure` short of the threshold, the step never runs and
    its chain ends with that same failure.
    """

    HOLD = object()

    def __init__(self, chains: Sequence[Sequence[Any]], waits: Mapping[int, Wait]) -> None:
        for chain, (producer, thresholds) in waits.items():
            if not 0 <= producer < chain < len(chains):
                raise ValueError(
                    f"chain {chain} waits on chain {producer}: a chain can only "
                    "wait on an earlier one"
                )
            if len(thresholds) != len(chains[chain]):
                raise ValueError(
                    f"chain {chain} has {len(chains[chain])} steps but "
                    f"{len(thresholds)} thresholds"
                )
        self.waits = waits
        self.reached: List[Any] = [None] * len(chains)
        self.ended = [False] * len(chains)
        self.failures: List[Optional[TaskFailure]] = [None] * len(chains)

    def report(self, chain: int, value: Any) -> None:
        if self.reached[chain] is None or value > self.reached[chain]:
            self.reached[chain] = value

    def end(self, chain: int, outcome: Any) -> None:
        self.ended[chain] = True
        if isinstance(outcome, TaskFailure):
            self.failures[chain] = outcome

    def verdict(self, chain: int, step: int) -> Any:
        """``None`` when the step may run, :attr:`HOLD` while its producer
        has yet to get there, or the producer's :class:`TaskFailure`."""
        if chain not in self.waits:
            return None
        producer, thresholds = self.waits[chain]
        reached = self.reached[producer]
        if reached is not None and reached >= thresholds[step]:
            return None
        if not self.ended[producer]:
            return self.HOLD
        return self.failures[producer]


def pipelined_map(
    func: Callable[[Any, Any], Any],
    chains: Sequence[Sequence[Any]],
    jobs: Optional[int] = None,
    policy: Optional[SupervisionPolicy] = None,
    manifest: Optional[FailureManifest] = None,
    initials: Optional[Sequence[Any]] = None,
    on_carry: Optional[Callable[[int, int, Any], None]] = None,
    waits: Optional[Mapping[int, Wait]] = None,
    opaque: Collection[int] = (),
) -> List[Any]:
    """Run several sequential task chains concurrently over one worker pool.

    Each chain is a list of tasks with a data dependency between consecutive
    steps: ``func(task, carry)`` receives the previous step's return value as
    ``carry`` (``None`` for the first step) and its return value is handed to
    the next step.  While step k of one chain runs, other chains' steps run
    in parallel -- the pipelined shard handoff: shard k of a (benchmark,
    mode) pair needs shard k-1's checkpoint, but every *pair's* current
    shard occupies a worker simultaneously.

    ``waits[c] = (producer, thresholds)`` makes chain ``c`` consume another
    chain's output as it appears: step ``s`` of chain ``c`` is held until
    chain ``producer`` -- an earlier chain -- has reported
    ``thresholds[s]`` through :func:`report_progress`, or has ended.  A
    producer quarantined in degrade mode short of a threshold ends every
    chain held on it with the producer's own :class:`TaskFailure` (and no
    manifest entry of their own), and their waiters after them.

    The parent schedules chain steps itself: the delivery of step k submits
    step k+1 to the executor, and a progress report submits the steps it
    releases, so no barrier ever holds a finished chain hostage to a slower
    one, and worker death, retries and quarantine all happen *per step*.
    Every step's fault-plan index is its chain-major rank -- the steps of
    all earlier chains, plus its own position -- at every ``jobs``.
    Returns the final carry of each chain, in chain order.  One job or a
    single step runs in-process, chain by chain in list order, so every
    producer has ended before its waiters start.

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

    On the pool a carry passes through the parent, which loads it for
    ``on_carry`` and the next step's dispatch.  ``opaque`` names chains
    whose intermediate carries only the chain's next step reads: such a
    carry goes from one worker to the next as the bytes the first one
    pickled, neither loaded nor pickled again in the parent, and
    ``on_carry`` does not fire for it (it does for the chain's final).
    Steps return live objects either way, so one job pickles nothing.
    """
    chains = [list(chain) for chain in chains]
    starts: List[Any] = (
        list(initials) if initials is not None else [None] * len(chains)
    )
    if len(starts) != len(chains):
        raise ValueError(
            f"initials has {len(starts)} entries for {len(chains)} chains"
        )
    gates = _Gates(chains, dict(waits or {}))
    ranks: List[int] = []
    total = 0
    for chain in chains:
        ranks.append(total)
        total += len(chain)
    jobs = min(resolve_jobs(jobs), max(1, len(chains)))
    policy = resolve_supervision(policy)
    if manifest is None:
        manifest = FailureManifest()
    opaque = frozenset(opaque)

    def forwards(chain_index: int, step_index: int) -> bool:
        """Whether a step's carry goes to the next step unread by the parent."""
        return chain_index in opaque and step_index + 1 < len(chains[chain_index])

    if jobs <= 1 or total <= 1:
        finals: List[Any] = []
        for chain_index, chain in enumerate(chains):
            carry: Any = starts[chain_index]
            outcome: Any = None
            for step_index, task in enumerate(chain):
                outcome = gates.verdict(chain_index, step_index)
                if outcome is not None:
                    break
                with _reporting_to(functools.partial(gates.report, chain_index)):
                    carry = _call_supervised_inline(
                        lambda t=task, c=carry: func(t, c),
                        policy,
                        manifest,
                        ranks[chain_index] + step_index,
                        _task_label(task),
                    )
                outcome = carry
                if isinstance(carry, TaskFailure):
                    break
                if on_carry is not None and not forwards(chain_index, step_index):
                    on_carry(chain_index, step_index, carry)
            gates.end(chain_index, outcome)
            finals.append(outcome)
        return finals

    executor = SupervisedExecutor(jobs, policy, manifest)
    finals = [None] * len(chains)
    held: Dict[int, List[Tuple[int, int, Any]]] = {}

    def advance(chain_index: int, step_index: int, carry: Any) -> None:
        """Submit a chain's next step, hold it at its gate, or end the chain."""
        if step_index == len(chains[chain_index]):
            finish(chain_index, carry)
            return
        verdict = gates.verdict(chain_index, step_index)
        if verdict is _Gates.HOLD:
            producer = gates.waits[chain_index][0]
            held.setdefault(producer, []).append((chain_index, step_index, carry))
        elif verdict is not None:
            finish(chain_index, verdict)
        else:
            task = chains[chain_index][step_index]
            executor.submit(
                (chain_index, step_index),
                func,
                (task, carry),
                ranks[chain_index] + step_index,
                label=_task_label(task),
                forward=forwards(chain_index, step_index),
            )

    def release(producer: int) -> None:
        for waiter in held.pop(producer, ()):
            advance(*waiter)

    def finish(chain_index: int, outcome: Any) -> None:
        finals[chain_index] = outcome
        gates.end(chain_index, outcome)
        release(chain_index)

    def deliver(key: Any, value: Any) -> None:
        chain_index, step_index = key
        if isinstance(value, TaskFailure):
            finish(chain_index, value)
            return
        if on_carry is not None and not forwards(chain_index, step_index):
            on_carry(chain_index, step_index, value)
        advance(chain_index, step_index + 1, value)

    def progress(key: Any, value: Any) -> None:
        gates.report(key[0], value)
        release(key[0])

    for chain_index, chain in enumerate(chains):
        if chain:
            advance(chain_index, 0, starts[chain_index])
        else:
            finish(chain_index, None)
    executor.run(deliver, progress)
    return finals


# ---------------------------------------------------------------------------
# Suite-level helpers
# ---------------------------------------------------------------------------


def suite_tasks(
    names: Sequence[str],
    modes: Sequence[str],
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
    requested_modes: Sequence[str],
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
    "report_progress",
    "resolve_jobs",
    "resolve_supervision",
    "stitch_suite",
    "suite_tasks",
]
