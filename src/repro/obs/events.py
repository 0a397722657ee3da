"""The ``/v1/events`` wire schema of ``repro serve``.

:class:`repro.serve.app.ServeApp` keeps a bounded ring of job and service
events; each record is ``{"seq", "topic", **fields}`` with the fields of one
dataclass below.  The topics are ``repro.serve.app.EVENT_TOPICS``.

A simulated machine's faults, degradations and recoveries are counted in
its stats (``RunStats``, ``ControllerStats``, ``AttachmentStats``), and the
campaign runner's task lifecycle lives in ``RunnerStats``, its journal's
``attempt``/``done`` records and its spans.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class JobSubmittedEvent:
    """The service accepted a job into a tenant queue."""

    job: str
    tenant: str
    #: One of :data:`repro.serve.jobs.VERBS`: ``"check"``, ``"profile"``
    #: or ``"probe"``.
    verb: str
    #: Queue depth for the tenant *after* admission.
    depth: int


@dataclass(frozen=True, slots=True)
class JobRejectedEvent:
    """Admission control refused a job (HTTP 429 + Retry-After)."""

    tenant: str
    verb: str
    #: Why: ``"queue_full"`` (per-tenant bound) or ``"draining"``.
    reason: str
    retry_after_s: float


@dataclass(frozen=True, slots=True)
class JobStartedEvent:
    """A queued job began executing on the job worker."""

    job: str
    tenant: str
    verb: str
    #: True when the job resumed from a pre-restart runner journal.
    resumed: bool = False


@dataclass(frozen=True, slots=True)
class JobRequeuedEvent:
    """Supervision SIGKILLed a hung/crashed job worker and requeued the job."""

    job: str
    tenant: str
    #: Why the attempt was abandoned: ``"hang"``, ``"timeout"`` or ``"crash"``.
    reason: str
    #: The attempt that failed (the requeued execution will be ``attempt+1``).
    attempt: int
    max_attempts: int


@dataclass(frozen=True, slots=True)
class JobDegradedEvent:
    """A job's campaign fell back to single-process execution (never silent)."""

    job: str
    tenant: str
    #: Why: ``"pool_breaker"`` (circuit breaker opened / infra failures) or
    #: ``"pool_start"`` (the worker pool never came up).
    reason: str
    detail: str = ""


@dataclass(frozen=True, slots=True)
class JobDoneEvent:
    """A job reached a terminal state."""

    job: str
    tenant: str
    #: ``"done"``, ``"failed"`` or ``"aborted"`` (drain interrupted it).
    status: str
    duration_s: float
    #: True when the campaign degraded to single-process execution.
    degraded: bool = False


@dataclass(frozen=True, slots=True)
class ServeDrainEvent:
    """The service began a graceful drain (SIGTERM / shutdown request)."""

    #: Jobs still queued or running when the drain began.
    pending: int
    reason: str = "sigterm"


@dataclass(frozen=True, slots=True)
class ServeCompactEvent:
    """The serve journal was compacted (snapshot + atomic rename)."""

    records_before: int
    records_after: int
    #: Terminal jobs whose full records were folded into the archive count.
    archived_terminals: int
    #: ``"idle"`` (idle-time policy), ``"cli"`` (``repro serve --compact``).
    reason: str = "idle"
