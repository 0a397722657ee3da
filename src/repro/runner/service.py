"""The resilient campaign runner: retries, breakers, journal, telemetry.

:class:`Runner` drives a set of :class:`~repro.runner.tasks.TaskSpec` to
*terminal* results — every submitted task ends as exactly one of ``ok``,
``failed`` (bounded retries exhausted) or ``skipped`` (circuit breaker) — no
lost tasks, regardless of worker crashes, hangs or wall-clock timeouts.

Execution strategy:

* ``jobs >= 2`` — a :class:`~repro.runner.pool.WorkerPool` with per-task
  wall-clock timeouts and heartbeat-based hang detection; suspect workers
  are SIGKILLed and replaced, their task retried elsewhere.
* ``jobs <= 1``, or the pool failing to start — the serial in-process path
  (:attr:`Runner.fallback_reason` records why).  Serial execution cannot
  preempt a task, so wall-clock timeouts are not enforced there; the
  in-simulation cycle watchdog (docs/robustness.md) still bounds every run.

Results are deterministic data, orchestration is not: retry timing, worker
assignment and completion order never leak into a :class:`TaskResult`'s
``result`` payload, which is how a resumed ``--jobs 4`` campaign merges
byte-identical to a serial one.

Lifecycle telemetry goes to :attr:`Runner.bus` (an
:class:`repro.obs.EventBus`): ``task_start``, ``task_retry``,
``task_timeout``, ``breaker_open``, ``task_done``.

Host-side wall-clock observability is opt-in and rides on top: pass a
:class:`repro.obs.spans.SpanTracer` (plus an optional parent span) and the
runner opens one ``slice:<name>`` span per task slice and one
``task:<id>`` span per fresh task — spans close as tasks reach terminal
state, so the pooled path's out-of-order completions nest correctly.  A
*progress* file-like gets one line per terminal task (``[slice] done/total``).
Both default to ``None`` and cost nothing when absent; wall-clock never
enters :class:`TaskResult` payloads either way, so merged campaign reports
stay byte-stable.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.errors import RunnerError, RunnerInterrupted
from repro.obs.events import (
    BreakerOpenEvent,
    EventBus,
    TaskDoneEvent,
    TaskRetryEvent,
    TaskStartEvent,
    TaskTimeoutEvent,
)
from repro.runner.journal import Journal
from repro.runner.policy import CircuitBreaker, RetryPolicy
from repro.runner.pool import PoolStartError, WorkerPool
from repro.runner.tasks import TaskResult, TaskSpec


@dataclass(frozen=True)
class RunnerConfig:
    """Tunables of one runner instance."""

    #: Worker processes; ``<= 1`` selects the serial in-process path.
    jobs: int = 1
    #: Default per-task wall-clock budget (``None`` = unbounded).
    timeout_s: float | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Consecutive attempt-level failures that open a slice's breaker.
    breaker_threshold: int = 3
    #: Worker heartbeat period.
    heartbeat_s: float = 0.2
    #: Silence (no heartbeat, no completion) that declares a worker hung.
    hang_timeout_s: float = 5.0
    #: Parent poll granularity — bounds timeout/hang detection latency.
    poll_s: float = 0.05
    #: Seed for backoff jitter (orchestration-only; never affects results).
    retry_seed: int | None = None
    #: Stop after this many freshly recorded terminal tasks (test/ops hook
    #: simulating an interruption; the journal stays resumable).
    interrupt_after: int | None = None
    #: Journal fsync batch size.
    fsync_every: int = 8
    #: Cooperative cancellation: when another thread sets this event, the
    #: runner stops at the next scheduling point — journal flushed,
    #: :class:`RunnerInterrupted` raised, results so far attached.  This is
    #: how ``repro serve`` drains an in-flight campaign on SIGTERM without
    #: owning the campaign thread's signal handling.
    cancel_event: threading.Event | None = None


@dataclass
class RunnerStats:
    """Orchestration counters (reported via ``repro.runner/1`` exports)."""

    tasks: int = 0
    ok: int = 0
    failed: int = 0
    skipped: int = 0
    cached: int = 0
    attempts: int = 0
    retries: int = 0
    errors: int = 0
    timeouts: int = 0
    hangs: int = 0
    crashes: int = 0
    breaker_trips: int = 0
    wall_s: float = 0.0

    def as_dict(self) -> dict:
        return dict(vars(self))


class Runner:
    """Resilient task execution with journaling and lifecycle telemetry."""

    def __init__(
        self,
        config: RunnerConfig | None = None,
        bus: EventBus | None = None,
        journal: Journal | None = None,
        tracer=None,
        span_parent=None,
        progress=None,
    ) -> None:
        self.config = config or RunnerConfig()
        self.bus = bus or EventBus()
        self.journal = journal
        self.breaker = CircuitBreaker(self.config.breaker_threshold)
        self.stats = RunnerStats()
        self.fallback_reason: str | None = None
        #: Every terminal result this runner has produced, across run() calls.
        self.results: dict[str, TaskResult] = {}
        self._jitter = random.Random(self.config.retry_seed)
        self._fresh_terminal = 0
        #: Optional :class:`repro.obs.spans.SpanTracer`; slice/task spans
        #: parent under *span_parent* (e.g. a campaign root span).
        self.tracer = tracer
        self.span_parent = span_parent
        #: Optional file-like for live per-slice progress lines.
        self.progress = progress
        self._task_slices: dict[str, str] = {}
        self._slice_spans: dict[str, object] = {}
        self._slice_total: dict[str, int] = {}
        self._slice_done: dict[str, int] = {}
        self._task_spans: dict[str, object] = {}

    # ---- public entry point --------------------------------------------------

    def run(self, tasks: list[TaskSpec]) -> dict[str, TaskResult]:
        """Drive *tasks* to terminal results; returns ``{task id: result}``.

        Tasks already completed (``ok``) in the resume journal are returned
        as cached results without re-running.  Raises
        :class:`RunnerInterrupted` when the configured ``interrupt_after``
        budget is hit (the journal is flushed first).
        """
        ids = [task.id for task in tasks]
        if len(set(ids)) != len(ids):
            raise RunnerError("duplicate task ids submitted to Runner.run")
        started = time.perf_counter()
        self.stats.tasks += len(tasks)

        results: dict[str, TaskResult] = {}
        cached = self.journal.completed() if self.journal is not None else {}
        fresh: list[TaskSpec] = []
        for task in tasks:
            record = cached.get(task.id)
            if record is not None:
                result = TaskResult.from_record(record, cached=True)
                results[task.id] = result
                self.stats.cached += 1
                self.stats.ok += 1
                self._emit_done(result)
            else:
                fresh.append(task)

        if self.tracer is not None or self.progress is not None:
            for task in fresh:
                self._task_slices[task.id] = task.slice
                self._slice_total[task.slice] = (
                    self._slice_total.get(task.slice, 0) + 1
                )

        try:
            if fresh:
                if self.config.jobs >= 2:
                    try:
                        self._run_pool(fresh, results)
                    except PoolStartError as exc:
                        self.fallback_reason = str(exc)
                        self._run_serial(fresh, results)
                else:
                    self._run_serial(fresh, results)
        finally:
            if self.journal is not None:
                self.journal.flush()
            self.results.update(results)
            self.stats.wall_s += time.perf_counter() - started
        return results

    # ---- shared terminal-result handling -------------------------------------

    def _emit_done(self, result: TaskResult) -> None:
        self.bus.emit("task_done", TaskDoneEvent(
            task=result.task, status=result.status, attempts=result.attempts,
            duration_s=result.duration_s, cached=result.cached,
        ))

    def _slice_span(self, slice_name: str):
        span = self._slice_spans.get(slice_name)
        if span is None:
            span = self.tracer.begin(
                f"slice:{slice_name}", parent=self.span_parent,
                tasks=self._slice_total.get(slice_name, 0),
            )
            self._slice_spans[slice_name] = span
        return span

    def _begin_task_span(self, task: TaskSpec, attempt: int) -> None:
        """Open the task's span on its first attempt (it covers retries)."""
        if self.tracer is None or attempt > 1:
            return
        self._task_spans[task.id] = self.tracer.begin(
            f"task:{task.id}", parent=self._slice_span(task.slice),
            kind=task.kind, slice=task.slice,
        )

    def _finish_task_obs(self, result: TaskResult) -> None:
        """Close the task span, count the slice, emit a progress line."""
        slice_name = self._task_slices.get(result.task)
        if self.tracer is not None:
            span = self._task_spans.pop(result.task, None)
            if span is not None:
                self.tracer.end(
                    span, status="ok" if result.status == "ok" else "error"
                )
        if slice_name is None:
            return
        done = self._slice_done.get(slice_name, 0) + 1
        self._slice_done[slice_name] = done
        total = self._slice_total.get(slice_name, 0)
        if self.progress is not None:
            print(f"[{slice_name}] {done}/{total} {result.task}: "
                  f"{result.status} ({result.attempts} attempt(s))",
                  file=self.progress, flush=True)
        if self.tracer is not None and done >= total:
            span = self._slice_spans.pop(slice_name, None)
            if span is not None:
                self.tracer.end(span)

    def _check_cancelled(self, results: dict[str, TaskResult]) -> None:
        """Raise the clean-interrupt path when the cancel event is set."""
        event = self.config.cancel_event
        if event is None or not event.is_set():
            return
        if self.journal is not None:
            self.journal.flush()
        raise RunnerInterrupted(
            "campaign cancelled; journal flushed — resume with the same "
            "journal to continue", results,
        )

    def _terminal(self, results: dict[str, TaskResult],
                  result: TaskResult) -> None:
        results[result.task] = result
        setattr(self.stats, result.status,
                getattr(self.stats, result.status) + 1)
        if self.journal is not None:
            self.journal.append(result.as_record())
        self._emit_done(result)
        # Before the interrupt check: an interrupted campaign's already
        # terminal tasks still close their spans; open ones export aborted.
        self._finish_task_obs(result)
        self._fresh_terminal += 1
        budget = self.config.interrupt_after
        if budget is not None and self._fresh_terminal >= budget:
            if self.journal is not None:
                self.journal.flush()
            raise RunnerInterrupted(
                f"interrupted after {self._fresh_terminal} task(s); resume "
                "with the same journal to continue", results,
            )

    def _attempt_failed(self, task: TaskSpec, attempt: int, reason: str,
                        detail: str, duration: float) -> tuple[bool, float]:
        """Account one failed attempt.  Returns ``(is_terminal, delay_s)``."""
        counter = {"error": "errors", "timeout": "timeouts", "hang": "hangs",
                   "crash": "crashes"}[reason]
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        if self.journal is not None:
            self.journal.append({
                "type": "attempt", "task": task.id, "attempt": attempt,
                "status": reason, "detail": detail, "duration_s": duration,
            })
        if self.breaker.record_failure(task.slice):
            self.stats.breaker_trips += 1
            self.bus.emit("breaker_open", BreakerOpenEvent(
                slice=task.slice,
                failures=self.breaker.consecutive_failures(task.slice),
            ))
        if not self.breaker.allow(task.slice):
            return True, 0.0
        if self.config.retry.exhausted(attempt):
            return True, 0.0
        delay = self.config.retry.delay(attempt, self._jitter)
        self.stats.retries += 1
        self.bus.emit("task_retry", TaskRetryEvent(
            task=task.id, attempt=attempt, reason=reason, detail=detail,
            delay_s=delay,
        ))
        return False, delay

    # ---- serial path ---------------------------------------------------------

    def _run_serial(self, tasks: list[TaskSpec],
                    results: dict[str, TaskResult]) -> None:
        for task in tasks:
            self._check_cancelled(results)
            if not self.breaker.allow(task.slice):
                self._terminal(results, TaskResult(
                    task=task.id, status="skipped", attempts=0,
                    failure=f"breaker_open:{task.slice}",
                ))
                continue
            attempt = 0
            while True:
                attempt += 1
                self.stats.attempts += 1
                self.bus.emit("task_start", TaskStartEvent(
                    task=task.id, attempt=attempt, worker=-1,
                ))
                self._begin_task_span(task, attempt)
                begun = time.perf_counter()
                try:
                    payload = task.execute()
                except RunnerInterrupted:
                    # A signal handler fired mid-task (clean_interrupts):
                    # not a task failure — flush what completed and stop.
                    if self.journal is not None:
                        self.journal.flush()
                    raise
                except Exception as exc:  # noqa: BLE001 - retried by policy
                    duration = time.perf_counter() - begun
                    detail = f"{type(exc).__name__}: {exc}"
                    terminal, delay = self._attempt_failed(
                        task, attempt, "error", detail, duration
                    )
                    if terminal:
                        self._terminal(results, TaskResult(
                            task=task.id, status="failed", attempts=attempt,
                            duration_s=duration, failure=f"error: {detail}",
                        ))
                        break
                    time.sleep(delay)
                    continue
                duration = time.perf_counter() - begun
                self.breaker.record_success(task.slice)
                self._terminal(results, TaskResult(
                    task=task.id, status="ok", result=payload,
                    attempts=attempt, duration_s=duration,
                ))
                break

    # ---- pooled path ---------------------------------------------------------

    def _run_pool(self, tasks: list[TaskSpec],
                  results: dict[str, TaskResult]) -> None:
        pool = WorkerPool(self.config.jobs, heartbeat_s=self.config.heartbeat_s)
        pool.start()
        try:
            self._drive(pool, tasks, results)
        finally:
            pool.stop()

    def _drive(self, pool: WorkerPool, tasks: list[TaskSpec],
               results: dict[str, TaskResult]) -> None:
        specs = {task.id: task for task in tasks}
        attempts: dict[str, int] = {task.id: 0 for task in tasks}
        ready: deque[str] = deque(task.id for task in tasks)
        delayed: list[tuple[float, str]] = []
        pending = set(specs)

        def fail_attempt(task: TaskSpec, attempt: int, reason: str,
                         detail: str, duration: float) -> None:
            terminal, delay = self._attempt_failed(
                task, attempt, reason, detail, duration
            )
            if terminal:
                self._terminal(results, TaskResult(
                    task=task.id, status="failed", attempts=attempt,
                    duration_s=duration, failure=f"{reason}: {detail}",
                ))
                pending.discard(task.id)
            else:
                delayed.append((time.monotonic() + delay, task.id))

        while pending:
            self._check_cancelled(results)
            now = time.monotonic()
            if delayed:
                due = [tid for when, tid in delayed if when <= now]
                delayed = [(when, tid) for when, tid in delayed
                           if when > now]
                ready.extend(due)

            for handle in pool.idle_workers():
                task = None
                while ready:
                    tid = ready.popleft()
                    if tid not in pending:
                        continue
                    candidate = specs[tid]
                    if not self.breaker.allow(candidate.slice):
                        self._terminal(results, TaskResult(
                            task=tid, status="skipped",
                            attempts=attempts[tid],
                            failure=f"breaker_open:{candidate.slice}",
                        ))
                        pending.discard(tid)
                        continue
                    task = candidate
                    break
                if task is None:
                    break
                attempts[task.id] += 1
                self.stats.attempts += 1
                pool.dispatch(handle, task, attempts[task.id])
                self.bus.emit("task_start", TaskStartEvent(
                    task=task.id, attempt=attempts[task.id],
                    worker=handle.worker_id,
                ))
                self._begin_task_span(task, attempts[task.id])

            for task, attempt, status, payload, detail, duration in (
                    pool.poll(self.config.poll_s)):
                if task.id not in pending:
                    continue
                if status == "ok":
                    self.breaker.record_success(task.slice)
                    self._terminal(results, TaskResult(
                        task=task.id, status="ok", result=payload,
                        attempts=attempt, duration_s=duration,
                    ))
                    pending.discard(task.id)
                else:
                    fail_attempt(task, attempt, "error", detail, duration)

            now = time.monotonic()
            for handle, reason, detail in pool.sweep(
                    now, self.config.hang_timeout_s, self.config.timeout_s):
                task, attempt = handle.task, handle.attempt
                since_dispatch = now - handle.dispatched_at
                if reason != "crash":
                    seconds = (since_dispatch if reason == "timeout"
                               else now - handle.last_beat)
                    self._emit_timeout(task.id, attempt, reason, seconds,
                                       handle.worker_id)
                fail_attempt(task, attempt, reason, detail, since_dispatch)

    def _emit_timeout(self, task: str, attempt: int, kind: str,
                      seconds: float, worker: int) -> None:
        self.bus.emit("task_timeout", TaskTimeoutEvent(
            task=task, attempt=attempt, kind=kind, seconds=seconds,
            worker=worker,
        ))
