"""Task model and the executor registry of the campaign runner.

A :class:`TaskSpec` is plain picklable data: an id, an executor *kind*, a
JSON-friendly payload, and orchestration metadata (circuit-breaker slice,
wall-clock timeout).  Workers never receive code — they receive specs and
resolve the kind through :data:`EXECUTORS`, a registry mapping kind names to
``"module:callable"`` entry points.  That keeps the worker protocol stable
under both ``fork`` and ``spawn`` start methods: anything a worker needs is
importable, nothing is pickled by value.

Executors are pure-ish functions ``payload dict -> result dict``.  Results
must be JSON-serializable: the journal (:mod:`repro.runner.journal`) persists
them verbatim, and ``--resume`` replays them without re-running the task —
so the merged output of a resumed run can be byte-identical to an
uninterrupted one.  On a pool worker the payload also carries the worker
slot's drain event as ``"cancel"`` (see :mod:`repro.runner.pool`); only
executors that can stop early read it.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import RunnerError

#: Built-in executor entry points.  Extend with :func:`register_executor`
#: (test workloads register their own kinds; under ``fork`` the registration
#: is inherited, under ``spawn`` the target string must be importable).
EXECUTORS: dict[str, str | Callable[[dict], dict]] = {
    "probe": "repro.runner.tasks:run_probe",
    "clean_check": "repro.faults.parallel:run_clean_task",
    "campaign_injection": "repro.faults.parallel:run_injection_task",
    "suite_cell": "repro.experiments.suite:run_suite_cell",
    "serve_job": "repro.serve.jobs:run_serve_job",
}


def register_executor(kind: str, target: str | Callable[[dict], dict]) -> None:
    """Register (or override) an executor entry point for *kind*."""
    EXECUTORS[kind] = target


def resolve_executor(kind: str) -> Callable[[dict], dict]:
    """Import and return the executor callable behind *kind*."""
    try:
        target = EXECUTORS[kind]
    except KeyError:
        raise RunnerError(
            f"unknown task kind {kind!r}; choose from {sorted(EXECUTORS)}"
        ) from None
    if callable(target):
        return target
    module_name, _, attr = target.partition(":")
    return getattr(importlib.import_module(module_name), attr)


@dataclass(frozen=True)
class TaskSpec:
    """One unit of campaign work, fully described by data."""

    #: Unique, deterministic id (e.g. ``"inject:17"``) — the journal key.
    id: str
    #: Executor registry kind (see :data:`EXECUTORS`).
    kind: str
    #: JSON-friendly executor arguments.
    payload: dict = field(default_factory=dict)
    #: Circuit-breaker slice, conventionally ``"<kernel>/<config>"``.
    #: The empty string opts the task out of breaker accounting.
    slice: str = ""
    #: Per-task wall-clock budget; ``None`` inherits the runner default.
    timeout_s: float | None = None

    def execute(self) -> dict:
        """Run the task in the current process (serial path and workers)."""
        return resolve_executor(self.kind)(dict(self.payload))


@dataclass
class TaskResult:
    """Terminal outcome of one task — every submitted task gets exactly one."""

    task: str
    #: ``"ok"``, ``"failed"`` (retries exhausted) or ``"skipped"`` (breaker).
    status: str
    #: The executor's return value (``None`` unless status is ``"ok"``).
    result: dict | None = None
    attempts: int = 0
    duration_s: float = 0.0
    #: Satisfied from a resume journal instead of being re-run.
    cached: bool = False
    #: Last attempt-level failure, e.g. ``"timeout: exceeded 30.0s"``.
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_record(self) -> dict:
        """The journal ``done`` record for this result."""
        return {
            "type": "done",
            "task": self.task,
            "status": self.status,
            "attempts": self.attempts,
            "duration_s": self.duration_s,
            "failure": self.failure,
            "result": self.result,
        }

    @classmethod
    def from_record(cls, record: dict, cached: bool = False) -> "TaskResult":
        return cls(
            task=record["task"],
            status=record["status"],
            result=record.get("result"),
            attempts=record.get("attempts", 0),
            duration_s=record.get("duration_s", 0.0),
            cached=cached,
            failure=record.get("failure"),
        )


# ---- the built-in probe executor ---------------------------------------------


def run_probe(payload: dict) -> dict:
    """Deterministic test workload for pool/retry/breaker exercises.

    Payload keys (all optional):

    ``sleep_s``
        Sleep this long before answering (drives wall-clock timeouts).
    ``freeze``
        ``SIGSTOP`` the worker process: it stays alive but its heartbeats
        stop — the hang-detection scenario.  (The parent's ``SIGKILL``
        terminates a stopped process, so replacement still works.)
    ``crash``
        ``os._exit`` with this status: a hard worker crash, no traceback,
        no ``done`` message.
    ``fail``
        Raise ``RuntimeError`` with this text: an ordinary retryable error.
    ``fail_marker`` / ``fail_times``
        Deterministic transient failure: append one line to the marker file
        and fail while it has ≤ ``fail_times`` lines — so attempt
        ``fail_times + 1`` succeeds.  The marker lives on the shared
        filesystem, which makes the sequence identical across retries,
        workers and worker replacements.
    ``result``
        Echoed back in the result dict (default ``{}``).
    """
    import os
    import signal

    if payload.get("sleep_s"):
        time.sleep(float(payload["sleep_s"]))
    if payload.get("freeze"):
        os.kill(os.getpid(), signal.SIGSTOP)
    if payload.get("crash") is not None:
        os._exit(int(payload["crash"]))
    if payload.get("fail_marker"):
        path = payload["fail_marker"]
        with open(path, "a") as fp:
            fp.write("attempt\n")
        with open(path) as fp:
            attempts = sum(1 for _ in fp)
        if attempts <= int(payload.get("fail_times", 1)):
            raise RuntimeError(f"probe transient failure {attempts}")
    if payload.get("fail"):
        raise RuntimeError(str(payload["fail"]))
    return {"ok": True, "echo": payload.get("result", {}), "pid": os.getpid()}


def probe_task(task_id: str, slice: str = "", timeout_s: float | None = None,
               **payload: Any) -> TaskSpec:
    """Convenience constructor for probe tasks (tests, smoke jobs)."""
    return TaskSpec(id=task_id, kind="probe", payload=payload, slice=slice,
                    timeout_s=timeout_s)
