"""The simulator's event bus and its event types.

Any number of subscribers can watch a topic concurrently, subscribers can
attach and detach mid-run, and a subscriber that raises does not corrupt the
simulation (the error is recorded on :attr:`EventBus.errors` and the
offender is dropped).

Each topic is a plain list attribute on the bus, so the no-subscriber case
costs one attribute load plus an emptiness test per emission site — no
event object is even constructed.  Emitters follow the pattern::

    bus = self.bus
    if bus.fault:
        bus.dispatch("fault", FaultEvent(...))

A machine run's issues, stalls, branches and SPU controller steps are not
bus topics: observers read them from the columnar recorder
(:mod:`repro.obs.recorder`).

This module must stay import-light: :mod:`repro.cpu.pipeline` imports it, so
nothing here may import from ``repro.cpu``/``repro.core``/``repro.kernels``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import RunnerInterrupted

#: Every topic the simulator emits.  The three resilience topics
#: (``fault``/``degrade``/``recovery``) fire only when something goes
#: wrong, so they are free on healthy runs.  The five
#: ``task_*``/``breaker_*`` topics are orchestration-level: they are emitted
#: by the :mod:`repro.runner` campaign runner (on its own bus instance, one
#: per :class:`repro.runner.Runner`), never by a simulated machine.  The
#: eight ``job_*``/``serve_*`` topics sit one level above that: emitted by
#: the :mod:`repro.serve` job service (on its own bus), they describe
#: admission, execution, supervision, compaction and drain of whole
#: campaigns.
TOPICS = (
    "fault",
    "degrade",
    "recovery",
    "task_start",
    "task_retry",
    "task_timeout",
    "breaker_open",
    "task_done",
    "job_submitted",
    "job_rejected",
    "job_started",
    "job_requeued",
    "job_degraded",
    "job_done",
    "serve_drain",
    "serve_compact",
)


# ---- event payloads ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """A component hit an invalid state, route, access or control word.

    Emitted in every resilience mode that has a bus attached — STRICT raises
    right after emitting, DEGRADE pairs it with a :class:`DegradeEvent`,
    HALT pairs it with a clean run termination.
    """

    #: Which layer faulted: ``"controller"``, ``"crossbar"``, ``"machine"``.
    component: str
    #: Short machine-readable fault class (e.g. ``"invalid_state"``,
    #: ``"route_error"``, ``"memory_fault"``).
    kind: str
    detail: str
    #: Program counter at the faulting issue (-1 when not applicable).
    pc: int = -1
    #: The underlying exception, when one exists (e.g. a
    #: :class:`repro.errors.MemoryFault` carrying address/size).
    error: Any = None


@dataclass(frozen=True, slots=True)
class DegradeEvent:
    """A fault was absorbed and the run continues with reduced function."""

    component: str
    #: What the degradation did: ``"park_idle"`` (controller forced to the
    #: idle state), ``"serialize_operand"`` (straight-through value used),
    #: ``"drop_instruction"`` (faulting issue executed as a no-op).
    action: str
    detail: str = ""
    pc: int = -1


@dataclass(frozen=True, slots=True)
class RecoveryEvent:
    """A previously degraded component was re-armed (e.g. GO after a park)."""

    component: str
    detail: str = ""


# ---- task lifecycle (repro.runner) -------------------------------------------


@dataclass(frozen=True, slots=True)
class TaskStartEvent:
    """The campaign runner dispatched one attempt of a task."""

    task: str
    #: 1-based attempt number (``> 1`` means this is a retry attempt).
    attempt: int
    #: Worker slot executing the attempt (-1 on the serial in-process path).
    worker: int = -1


@dataclass(frozen=True, slots=True)
class TaskRetryEvent:
    """An attempt failed and the task was rescheduled with backoff."""

    task: str
    #: The attempt that just failed.
    attempt: int
    #: Why it failed: ``"error"``, ``"crash"``, ``"timeout"``, ``"hang"``.
    reason: str
    detail: str = ""
    #: Backoff before the next attempt (exponential, full jitter).
    delay_s: float = 0.0


@dataclass(frozen=True, slots=True)
class TaskTimeoutEvent:
    """A worker was killed for exceeding its budget (the attempt failed)."""

    task: str
    attempt: int
    #: ``"timeout"`` (wall-clock budget) or ``"hang"`` (heartbeats stopped).
    kind: str
    #: Seconds since dispatch (timeout) / since the last heartbeat (hang).
    seconds: float
    worker: int = -1


@dataclass(frozen=True, slots=True)
class BreakerOpenEvent:
    """A (kernel, config) slice's circuit breaker tripped open.

    Subsequent tasks of the slice are recorded as ``skipped`` instead of
    executed, so one persistently failing slice cannot sink the campaign.
    """

    slice: str
    #: Consecutive attempt-level failures that tripped the breaker.
    failures: int


@dataclass(frozen=True, slots=True)
class TaskDoneEvent:
    """A task reached a terminal state (every task eventually does)."""

    task: str
    #: ``"ok"``, ``"failed"`` (retries exhausted) or ``"skipped"`` (breaker).
    status: str
    attempts: int
    duration_s: float
    #: True when the result was satisfied from a resume journal, not re-run.
    cached: bool = False


# ---- job lifecycle (repro.serve) ---------------------------------------------


@dataclass(frozen=True, slots=True)
class JobSubmittedEvent:
    """The service accepted a job into a tenant queue."""

    job: str
    tenant: str
    #: ``"check"``, ``"campaign"`` or ``"suite"``.
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


@dataclass(frozen=True, slots=True)
class SubscriberError:
    """A subscriber raised during dispatch; it has been unsubscribed."""

    topic: str
    subscriber: Callable
    error: BaseException


# ---- the bus -----------------------------------------------------------------


class EventBus:
    """Multi-subscriber dispatch with per-topic subscriber lists."""

    __slots__ = TOPICS + ("errors",)

    def __init__(self) -> None:
        for topic in TOPICS:
            setattr(self, topic, [])
        #: :class:`SubscriberError` records, oldest first.
        self.errors: list[SubscriberError] = []

    # -- subscription management --------------------------------------------

    def subscribers(self, topic: str) -> list:
        """The live subscriber list for *topic* (raises on unknown topics)."""
        if topic not in TOPICS:
            raise ValueError(f"unknown topic {topic!r}; choose from {TOPICS}")
        return getattr(self, topic)

    def subscribe(self, topic: str, fn: Callable) -> Callable[[], None]:
        """Attach *fn* to *topic*; returns a zero-arg unsubscribe callable.

        The same callable may be subscribed to several topics (or twice to
        one — it will then run twice per event).  Unsubscribing is idempotent.
        """
        listeners = self.subscribers(topic)
        listeners.append(fn)

        def unsubscribe() -> None:
            try:
                listeners.remove(fn)
            except ValueError:
                pass

        return unsubscribe

    def unsubscribe(self, topic: str, fn: Callable) -> None:
        """Detach *fn* from *topic* (no-op when not subscribed)."""
        try:
            self.subscribers(topic).remove(fn)
        except ValueError:
            pass

    def has_subscribers(self, topic: str | None = None) -> bool:
        if topic is not None:
            return bool(self.subscribers(topic))
        return any(getattr(self, name) for name in TOPICS)

    def clear(self, topic: str | None = None) -> None:
        """Drop all subscribers of *topic* (or of every topic)."""
        for name in TOPICS if topic is None else (topic,):
            del self.subscribers(name)[:]

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, topic: str, event) -> None:
        """Deliver *event* to every subscriber of *topic*.

        Iterates over a snapshot, so subscribers may unsubscribe (themselves
        or others) mid-dispatch.  A raising subscriber is recorded on
        :attr:`errors` and dropped — one faulty observer cannot corrupt the
        run or storm the error log.
        """
        listeners = getattr(self, topic)
        for fn in tuple(listeners):
            try:
                fn(event)
            except RunnerInterrupted:
                # Campaign-level stop (signal/cancel) raised by a handler
                # while a subscriber ran.  Not the subscriber's fault —
                # swallowing it here would both ignore the stop request and
                # silently drop the subscriber, changing simulation results.
                raise
            except Exception as exc:  # noqa: BLE001 - isolation by design
                self.errors.append(SubscriberError(topic, fn, exc))
                try:
                    listeners.remove(fn)
                except ValueError:
                    pass

    def emit(self, topic: str, event) -> None:
        """Validated dispatch for cold paths (hot paths inline the check)."""
        if self.subscribers(topic):
            self.dispatch(topic, event)
