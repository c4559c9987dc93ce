"""Deterministic fault injection, supervision policy, and failure manifests.

The execution layer's reliability substrate has three pieces, all declared
here and consumed by :mod:`repro.sim.parallel`:

* :class:`SupervisionPolicy` -- how the supervised executor treats a task
  attempt: per-attempt deadline (enforced by a watchdog thread that kills the
  worker), bounded retries with *deterministic* exponential backoff
  (``backoff * 2**(attempt-1)``; no jitter, so two runs of the same plan wait
  the same schedule), and what to do when a task exhausts its retries
  (``on_failure="raise"`` aborts the run, ``"degrade"`` records the task in a
  :class:`FailureManifest` and completes with explicit partial results).
* :class:`FaultPlan` -- a seeded, content-addressed list of
  :class:`FaultSpec` injections (``crash`` the worker process, ``hang`` it
  past the watchdog deadline, ``corrupt`` the pickled result bytes, or raise
  an injected ``error``), matched by *(task slot, attempt number)* -- a
  pipelined step's slot is its chain-major rank.  Faults default to
  attempt 1, so a retried attempt runs clean and the supervised run
  converges to the fault-free result -- which is exactly
  what the chaos differential gate in CI asserts: byte-identical counters and
  shared store keys with an uninjected run.  The plan crosses the
  ``spawn``/``fork`` boundary through the :data:`FAULT_PLAN_ENV` environment
  variable (inline JSON or a file path), so workers self-arm without any
  argument threading.
* :class:`FailureManifest` -- the machine-readable record of what the
  supervisor did: every retry, and every quarantined task as a
  :class:`TaskFailureRecord`.  Degrade-mode callers receive quarantined
  tasks as :class:`TaskFailure` sentinels in the result list; raise-mode
  callers get a :class:`TaskFailedError` carrying the same record.

Nothing in this module ever enters a persistent-store key: supervision and
fault injection are *execution* concerns, and a supervised run's results are
bit-identical to an unsupervised one by construction (faults either retry to
success or remove the task from the results entirely).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Environment variable carrying an activated :class:`FaultPlan` into worker
#: processes: inline JSON (starts with ``{``) or a path to a JSON file.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: The injectable fault kinds, in documentation order.
FAULT_KINDS = ("crash", "hang", "corrupt", "error")

#: Serialised manifest/plan layout version.
MANIFEST_FORMAT = 1


class FaultInjectionError(RuntimeError):
    """Raised inside a worker by an injected ``error`` fault."""


class TaskFailedError(RuntimeError):
    """A task exhausted its retries under ``on_failure="raise"``."""

    def __init__(self, record: "TaskFailureRecord") -> None:
        super().__init__(
            f"task {record.index} ({record.label}) failed "
            f"{record.attempts} attempt(s); last failure: "
            f"{record.reason}: {record.error}"
        )
        self.record = record


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One injected fault, matched by (task slot, attempt number).

    ``task_index`` is the task's slot: a step's chain-major rank under
    :func:`~repro.sim.parallel.pipelined_map` -- the steps of every earlier
    chain, then its position in its own -- at every ``jobs`` (retries of a
    task keep its slot); ``attempt`` is 1-based, so the default of 1 faults
    the first try and lets every retry run clean.  ``seconds`` is the hang
    duration -- pick it past the supervision deadline to exercise the
    watchdog, or below it to model a slow-but-successful task.
    """

    task_index: int
    kind: str
    attempt: int = 1
    seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}")
        if self.task_index < 0:
            raise ValueError(f"task_index must be >= 0, got {self.task_index}")
        if self.attempt < 1:
            raise ValueError(f"attempt is 1-based, got {self.attempt}")
        if self.seconds <= 0:
            raise ValueError(f"hang seconds must be positive, got {self.seconds}")

    def to_payload(self) -> Dict[str, Any]:
        return {
            "task_index": self.task_index,
            "kind": self.kind,
            "attempt": self.attempt,
            "seconds": self.seconds,
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "FaultSpec":
        return cls(
            task_index=int(payload["task_index"]),
            kind=str(payload["kind"]),
            attempt=int(payload.get("attempt", 1)),
            seconds=float(payload.get("seconds", 30.0)),
        )


class FaultPlan:
    """A deterministic, content-addressed set of fault injections.

    Two plans with the same faults and seed serialise to the same JSON and
    hash to the same :meth:`plan_key`, so a committed plan file *is* its own
    provenance.  Lookup is by exact ``(task_index, attempt)`` match; at most
    one fault fires per attempt (duplicates are rejected at construction).
    """

    def __init__(
        self, faults: Sequence[FaultSpec] = (), seed: Optional[int] = None
    ) -> None:
        ordered = sorted(faults, key=lambda f: (f.task_index, f.attempt))
        by_slot: Dict[Tuple[int, int], FaultSpec] = {}
        for fault in ordered:
            slot = (fault.task_index, fault.attempt)
            if slot in by_slot:
                raise ValueError(
                    f"duplicate fault for task {fault.task_index} "
                    f"attempt {fault.attempt}"
                )
            by_slot[slot] = fault
        self.faults: Tuple[FaultSpec, ...] = tuple(ordered)
        self.seed = seed
        self._by_slot = by_slot

    def __len__(self) -> int:
        return len(self.faults)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.faults == other.faults and self.seed == other.seed

    def lookup(self, task_index: int, attempt: int) -> Optional[FaultSpec]:
        """The fault armed for this (task slot, attempt), if any."""
        return self._by_slot.get((task_index, attempt))

    # -- serialisation -------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        return {
            "format": MANIFEST_FORMAT,
            "seed": self.seed,
            "faults": [fault.to_payload() for fault in self.faults],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_payload(cls, payload: Mapping) -> "FaultPlan":
        if not isinstance(payload, Mapping) or "faults" not in payload:
            raise ValueError("not a fault-plan payload (no 'faults' list)")
        seed = payload.get("seed")
        return cls(
            faults=[FaultSpec.from_payload(item) for item in payload["faults"]],
            seed=None if seed is None else int(seed),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_payload(json.loads(text))

    def save(self, path: os.PathLike) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n")
        return target

    def plan_key(self) -> str:
        """Content address of the plan (stable across processes)."""
        digest = hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()
        return f"faultplan-{digest}"

    # -- env activation ------------------------------------------------------

    def activate(self) -> None:
        """Publish this plan to :data:`FAULT_PLAN_ENV` (inline JSON).

        Worker processes -- fork *or* spawn -- inherit the environment, so
        the plan reaches them with no argument threading; the supervised
        executor in :mod:`repro.sim.parallel` also treats an active plan as
        an implicit request for supervision.
        """
        os.environ[FAULT_PLAN_ENV] = self.to_json()

    @staticmethod
    def deactivate() -> None:
        os.environ.pop(FAULT_PLAN_ENV, None)

    @classmethod
    def active(cls) -> Optional["FaultPlan"]:
        """The plan published in the environment, or ``None``.

        The value is inline JSON when it starts with ``{``, otherwise a path
        to a plan file.  A malformed value raises rather than silently
        disabling injection -- a chaos run that quietly ran clean would pass
        every differential gate without testing anything.
        """
        raw = os.environ.get(FAULT_PLAN_ENV)
        if not raw:
            return None
        text = raw.strip()
        if not text.startswith("{"):
            try:
                text = Path(text).read_text()
            except OSError as exc:
                raise ValueError(
                    f"{FAULT_PLAN_ENV} names an unreadable plan file: {exc}"
                ) from exc
        return cls.from_json(text)

    # -- generation ----------------------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: int,
        num_tasks: int,
        crashes: int = 0,
        hangs: int = 0,
        corrupts: int = 0,
        errors: int = 0,
        hang_seconds: float = 30.0,
    ) -> "FaultPlan":
        """Deterministically draw a plan over the first ``num_tasks`` task slots.

        The same ``(seed, num_tasks, counts)`` always yields the same plan
        (``random.Random(seed)``, targets drawn without replacement), which
        is what makes a generated plan reproducible from its parameters
        alone.  All faults arm attempt 1, so a policy with at least one
        retry converges to the fault-free result.
        """
        wanted = crashes + hangs + corrupts + errors
        if wanted > num_tasks:
            raise ValueError(
                f"cannot place {wanted} faults over {num_tasks} tasks "
                "(one fault per task's first attempt)"
            )
        rng = random.Random(seed)
        targets = rng.sample(range(num_tasks), wanted)
        kinds = (
            ["crash"] * crashes + ["hang"] * hangs
            + ["corrupt"] * corrupts + ["error"] * errors
        )
        faults = [
            FaultSpec(task_index=index, kind=kind, seconds=hang_seconds)
            for index, kind in zip(targets, kinds)
        ]
        return cls(faults=faults, seed=seed)


def corrupt_payload(data: bytes) -> bytes:
    """Deterministically damage a result payload (bit-flip one byte).

    Used by the injection layer *after* the worker has computed the payload's
    checksum, so the parent's digest check is guaranteed to catch it -- the
    corruption models a real truncated/garbled IPC payload, not a silent
    wrong answer.
    """
    if not data:
        return b"\xff"
    index = len(data) // 2
    return data[:index] + bytes([data[index] ^ 0xFF]) + data[index + 1 :]


@dataclasses.dataclass(frozen=True)
class SupervisionPolicy:
    """How the supervised executor treats task attempts.

    ``deadline`` (seconds per attempt) arms the watchdog; ``None`` disables
    it.  ``retries`` bounds the number of *re*-tries after the first failure,
    so a task runs at most ``retries + 1`` times.  ``backoff`` seeds the
    deterministic exponential schedule ``backoff * 2**(attempt-1)``.
    ``on_failure`` selects the quarantine behaviour: ``"raise"`` aborts the
    run with :class:`TaskFailedError`; ``"degrade"`` records the task in the
    manifest, delivers a :class:`TaskFailure` sentinel in its result slot,
    and lets every other task (and every other chain) complete.
    """

    deadline: Optional[float] = 60.0
    retries: int = 2
    backoff: float = 0.05
    on_failure: str = "raise"

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.on_failure not in ("raise", "degrade"):
            raise ValueError(
                f"on_failure must be 'raise' or 'degrade', got {self.on_failure!r}"
            )

    def backoff_delay(self, attempts: int) -> float:
        """Seconds to wait before re-running a task that failed ``attempts`` times."""
        return self.backoff * (2 ** (attempts - 1))


@dataclasses.dataclass(frozen=True)
class TaskFailureRecord:
    """One quarantined task: who it was, how it died, how hard we tried."""

    index: int
    label: str
    attempts: int
    reason: str
    error: str = ""

    def to_payload(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: Mapping) -> "TaskFailureRecord":
        return cls(
            index=int(payload["index"]),
            label=str(payload["label"]),
            attempts=int(payload["attempts"]),
            reason=str(payload["reason"]),
            error=str(payload.get("error", "")),
        )


class TaskFailure:
    """Degrade-mode result sentinel for a quarantined task.

    The merge layer (:func:`repro.sim.parallel.stitch_suite`) skips
    these -- a quarantined task
    contributes *nothing* to the merged results, never a partial or default
    value.
    """

    __slots__ = ("record",)

    def __init__(self, record: TaskFailureRecord) -> None:
        self.record = record

    def __repr__(self) -> str:
        return f"TaskFailure({self.record.label!r}, reason={self.record.reason!r})"


class FailureManifest:
    """The machine-readable outcome of one supervised run.

    ``retries`` counts every re-run attempt the supervisor scheduled (a run
    that needed none reports 0 -- which is what the chaos CI job asserts is
    *non*-zero under an injected plan); ``records`` lists the quarantined
    tasks.  A clean run has an empty manifest.
    """

    def __init__(self) -> None:
        self.records: List[TaskFailureRecord] = []
        self.retries = 0

    @property
    def quarantined(self) -> int:
        return len(self.records)

    def __bool__(self) -> bool:
        return bool(self.records) or self.retries > 0

    def note_retry(self) -> None:
        self.retries += 1

    def add(self, record: TaskFailureRecord) -> None:
        self.records.append(record)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "format": MANIFEST_FORMAT,
            "retries": self.retries,
            "quarantined": [record.to_payload() for record in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=2) + "\n"

    def save(self, path: os.PathLike) -> Path:
        target = Path(path)
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json())
        return target

    @classmethod
    def from_payload(cls, payload: Mapping) -> "FailureManifest":
        manifest = cls()
        manifest.retries = int(payload.get("retries", 0))
        for item in payload.get("quarantined", []):
            manifest.add(TaskFailureRecord.from_payload(item))
        return manifest


__all__ = [
    "FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "FailureManifest",
    "FaultInjectionError",
    "FaultPlan",
    "FaultSpec",
    "SupervisionPolicy",
    "TaskFailedError",
    "TaskFailure",
    "TaskFailureRecord",
    "corrupt_payload",
]
