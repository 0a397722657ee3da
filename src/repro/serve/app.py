"""The ``repro serve`` application: asyncio front end, supervised workers.

Architecture, smallest thing that holds the durability story together:

- the **asyncio loop** owns all mutable service state (queues, counters,
  the serve journal).  HTTP handlers and the supervisor coroutine run on
  it, so no lock guards any of that state;
- **jobs run on the runner's worker pool**
  (:class:`repro.runner.pool.WorkerPool`): ``--workers M`` persistent
  processes, each job attempt one ``serve_job`` task
  (:func:`repro.serve.jobs.run_serve_job`), each campaign on its own
  ``--jobs N`` runner pool inside its worker.  The supervisor dispatches
  by weighted per-tenant round-robin (:mod:`repro.serve.queues`) to idle
  workers; the pool's heartbeats and :func:`repro.runner.pool.worker_verdict`
  judge crashes, per-job wall-clock budgets
  (:func:`repro.runner.policy.calibrated_timeout_s` when the submission
  carries an ``expected_s`` hint, riding on ``TaskSpec.timeout_s``) and
  hangs; suspect workers are SIGKILLed and replaced, and the job is
  requeued under a bounded attempt budget — strikes are journalled, so
  they survive restarts too;
- **degradation is recorded, never silent**: a campaign whose worker pool
  breaks re-runs serially inside the job's worker (resume journal preserves
  completed injections); the outcome carries ``degraded`` + reason into the
  terminal journal record, the ``job_done``/``job_degraded`` events and the
  job's ``repro.runner/1`` report;
- **durability before acknowledgement**: a submission is journalled
  (fsync'd) before the 202 leaves the socket, so any job a client saw
  accepted survives SIGKILL.  Completion is journalled before the status
  endpoint reports it;
- **restart is recovery**: constructing the app folds the journal —
  admitted minus terminal, in admission order, re-enqueued.  A half-run
  check job resumes from its own runner journal and merges byte-identical
  to an uninterrupted run;
- **the journal stays bounded**: when idle (and on ``repro serve
  --compact``) the store folds its history into an equivalent snapshot
  (:meth:`repro.serve.store.ServeStore.compact`) — crash-safe
  write/fsync/rename with chaos kill points inside, announced on the
  ``serve_compact`` topic;
- **drain is cancellation**: SIGTERM/SIGINT (or ``POST /v1/drain``) stops
  admissions (429 ``draining``), sets every worker slot's cancel event,
  lets the runners journal, exports open spans as aborted and exits 3 —
  the same resumable contract as an interrupted ``repro check``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from dataclasses import asdict
from pathlib import Path

from repro.errors import ServeRejected
from repro.obs.events import (
    JobDegradedEvent,
    JobDoneEvent,
    JobRejectedEvent,
    JobRequeuedEvent,
    JobStartedEvent,
    JobSubmittedEvent,
    ServeCompactEvent,
    ServeDrainEvent,
)
from repro.obs.export import SERVE_SCHEMA_VERSION, envelope
from repro.runner.policy import calibrated_timeout_s
from repro.runner.pool import WorkerHandle, WorkerPool
from repro.runner.tasks import TaskSpec
from repro.serve.http import (
    BadRequest,
    Request,
    json_body,
    read_request,
    response_bytes,
    send_response,
)
from repro.serve.jobs import VERBS, JobOutcome, JobSpec
from repro.serve.queues import TenantQueues
from repro.serve.store import ServeStore

__all__ = ["ServeApp"]

#: Serve topics mirrored into the ``/v1/events`` ring buffer.
EVENT_TOPICS = ("job_submitted", "job_rejected", "job_started",
                "job_requeued", "job_degraded", "job_done", "serve_drain",
                "serve_compact")

#: Ring-buffer capacity for ``/v1/events`` (bounded state, like the queues).
EVENT_RING = 1000

#: Seconds of back-off suggested per queued job in a 429 ``Retry-After``.
RETRY_AFTER_PER_JOB_S = 2.0

#: Span-id sub-block per supervision attempt (inside the per-epoch stride):
#: a requeued attempt's tracer must not collide with its predecessor's ids.
ATTEMPT_SPAN_STRIDE = 100_000

#: Supervisor health-check period.  A worker's message on the result
#: queue wakes the supervisor at once, so a finished job is collected
#: when it finishes, not on the next period.
POLL_S = 0.05


def _job_spec(task: TaskSpec) -> JobSpec:
    """The job a ``serve_job`` task runs."""
    return JobSpec.from_record(task.payload["record"])


class ServeApp:
    """One service instance bound to one journal directory."""

    def __init__(self, journal_dir: str | Path, host: str = "127.0.0.1",
                 port: int = 0, queue_depth: int = 8, max_tenants: int = 16,
                 workers: int = 1,
                 jobs: int = 1, weights: dict[str, int] | None = None,
                 max_inflight: int = 0, hang_timeout_s: float = 10.0,
                 max_job_attempts: int = 3, compact_every: int = 0) -> None:
        self.host = host
        self.port = port
        self.workers_n = max(1, workers)
        self.jobs_n = max(1, jobs)
        self.hang_timeout_s = max(0.5, hang_timeout_s)
        self.max_job_attempts = max(1, max_job_attempts)
        #: Idle compaction threshold in journal records (0 = never).
        self.compact_every = max(0, compact_every)
        self.store = ServeStore(journal_dir)
        self.queues = TenantQueues(queue_depth, max_tenants,
                                   weights=weights, max_inflight=max_inflight)
        self.draining = False
        self.drain_reason = ""
        self.counters = {
            "submitted": 0,
            "rejected": 0,
            "done": 0,
            "failed": 0,
            "aborted": 0,
            "requeued": 0,
            "degraded": 0,
            "hung_kills": 0,
            "compactions": 0,
            "resumed_jobs": len(self.store.recovered),
            "corrupt_journal_records": self.store.corrupt_records,
        }
        self._events: list[dict] = []
        self._event_seq = 0
        self._events_dropped = 0
        self._kick: asyncio.Event | None = None
        self._pool = WorkerPool(self.workers_n)
        self._last_compact_count = -1
        # Jobs lost by a previous epoch re-enter the queue unchecked: they
        # were admitted under the bound once already.
        for spec in self.store.recovered:
            self.queues.requeue(spec)

    # ---- event ring ----------------------------------------------------------

    def _record(self, topic: str, event) -> None:
        """Append *event* (a :mod:`repro.obs.events` record) under *topic*."""
        self._event_seq += 1
        self._events.append(
            {"seq": self._event_seq, "topic": topic, **asdict(event)}
        )
        overflow = len(self._events) - EVENT_RING
        if overflow > 0:
            # The ring trims, but never silently: the drop count is on
            # /v1/status and every /v1/events response's headers.
            del self._events[:overflow]
            self._events_dropped += overflow

    # ---- lifecycle -----------------------------------------------------------

    async def run(self) -> int:
        """Serve until drained; returns the process exit code (3)."""
        # Workers fork before the loop installs its signal handlers.
        self._pool.start()
        loop = asyncio.get_running_loop()
        results = self._pool.result_fileno()
        try:
            self._kick = asyncio.Event()
            loop.add_reader(results, self._kick.set)
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        signum, self.drain, signal.Signals(signum).name.lower()
                    )
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # non-main thread / platform without loop signals

            server = await asyncio.start_server(self._handle, self.host,
                                                self.port)
            self.port = server.sockets[0].getsockname()[1]
            endpoint = Path(self.store.root) / "endpoint.json"
            endpoint.write_text(json.dumps(
                {"host": self.host, "port": self.port,
                 "epoch": self.store.epoch}
            ) + "\n")

            if self.queues.total():
                self._kick.set()
            await self._supervisor()
            server.close()
            await server.wait_closed()
        finally:
            loop.remove_reader(results)
            # On every exit path: the workers are not daemonic, so live
            # ones would keep the interpreter from exiting.
            self._pool.stop()
        # Durability barrier last: every record of this epoch (including
        # terminal records of jobs that finished during the drain) is on
        # stable storage before the process exits.
        self.store.flush_for_drain()
        self.store.close()
        return 3

    def drain(self, reason: str = "sigterm") -> None:
        """Begin a graceful drain (idempotent; callable from the loop only)."""
        if self.draining:
            return
        self.draining = True
        self.drain_reason = reason
        pending = self.queues.total() + len(self._running)
        self._record("serve_drain", ServeDrainEvent(
            pending=pending, reason=reason,
        ))
        self._pool.cancel_all()
        if self._kick is not None:
            self._kick.set()

    # ---- the supervisor ------------------------------------------------------

    async def _supervisor(self) -> None:
        """Dispatch, watch, reap — the service's one scheduling loop.

        Runs until a drain has been requested *and* every running job has
        finished (each cancelled job journals its own aborted state first).
        Polls the pool without blocking: the event loop never waits on
        it.  A result message on the pool's queue wakes the loop.
        """
        while True:
            for task, _, status, result, detail, _ in self._pool.poll(0):
                self._on_done(task, status, result, detail)
            self._check_workers(time.monotonic())
            if not self.draining:
                self._dispatch()
                self._maybe_compact()
            if self.draining and not self._running:
                break
            try:
                await asyncio.wait_for(self._kick.wait(), POLL_S)
            except asyncio.TimeoutError:
                pass
            else:
                self._kick.clear()

    def _dispatch(self) -> None:
        idle = self._pool.idle_workers()
        while idle:
            spec = self.queues.next_job()
            if spec is None:
                return
            attempt = self.store.attempts.get(spec.job, 0) + 1
            if attempt > self.max_job_attempts:
                # Strikes journalled by earlier epochs count: a job that
                # kept killing its worker does not get a fresh budget just
                # because the service restarted.
                self.queues.release(spec.tenant)
                detail = (f"gave up after {attempt - 1} supervision "
                          "attempts")
                self.store.record_done(spec.job, "failed", detail)
                self.counters["failed"] += 1
                self._record("job_done", JobDoneEvent(
                    job=spec.job, tenant=spec.tenant, status="failed",
                    duration_s=0.0,
                ))
                continue
            self._launch(idle.pop(), spec, attempt)

    def _launch(self, handle: WorkerHandle, spec: JobSpec,
                attempt: int) -> None:
        resumed = spec.job in self.store.span_roots or (
            spec.verb == "check" and self.store.job_journal(spec.job).exists()
        )
        span_base = 0
        span_prev = None
        if spec.verb == "check":
            # Root span chain survives restarts *and* SIGKILLed attempts:
            # span ids are deterministic (sequential from id_base), so the
            # parent can journal the worker's root ids before dispatch — the
            # chain exists even if the worker never writes a span.  Each
            # attempt gets its own id sub-block; epoch N+1 parents onto
            # whatever root was journalled last.
            span_prev = self.store.span_roots.get(spec.job)
            span_base = self.store.span_id_base() + (
                min(attempt - 1, 9) * ATTEMPT_SPAN_STRIDE
            )
            root_id = span_base + 1
            span_id = f"{root_id:016x}"
            trace_id = span_prev[0] if span_prev else f"{root_id:032x}"
            self.store.record_span_root(spec.job, trace_id, span_id)
        budget = None
        expected = spec.params.get("expected_s")
        if expected is not None:
            try:
                budget = calibrated_timeout_s(float(expected))
            except (TypeError, ValueError):
                budget = None
        self._record("job_started", JobStartedEvent(
            job=spec.job, tenant=spec.tenant, verb=spec.verb, resumed=resumed,
        ))
        self._pool.dispatch(handle, TaskSpec(
            id=spec.job, kind="serve_job", timeout_s=budget, payload={
                "record": spec.as_record(), "root": str(self.store.root),
                "epoch": self.store.epoch, "jobs": self.jobs_n,
                "span_base": span_base, "span_prev": span_prev,
                "resumed": resumed,
                "serve_counters": self.counters_snapshot(),
            },
        ), attempt)

    # ---- supervision ---------------------------------------------------------

    @property
    def _running(self) -> dict[str, WorkerHandle]:
        """Jobs on a pool worker right now: job id -> worker."""
        return {h.task.id: h for h in self._pool.workers if not h.idle}

    def _check_workers(self, now: float) -> None:
        """Account for every worker the pool's sweep killed and replaced."""
        for handle, reason, _ in self._pool.sweep(now, self.hang_timeout_s):
            spec, attempt = _job_spec(handle.task), handle.attempt
            self.queues.release(spec.tenant)
            if reason in ("hang", "timeout"):
                self.counters["hung_kills"] += 1
            if attempt >= self.max_job_attempts and not self.draining:
                detail = (f"gave up after {attempt} supervision attempts "
                          f"(last: {reason})")
                self.store.record_done(spec.job, "failed", detail)
                self.counters["failed"] += 1
                self._record("job_done", JobDoneEvent(
                    job=spec.job, tenant=spec.tenant, status="failed",
                    duration_s=now - handle.dispatched_at,
                ))
                continue
            self.store.record_attempt(spec.job, attempt, reason)
            self.counters["requeued"] += 1
            self._record("job_requeued", JobRequeuedEvent(
                job=spec.job, tenant=spec.tenant, reason=reason,
                attempt=attempt, max_attempts=self.max_job_attempts,
            ))
            if not self.draining:
                # Front of its tenant's queue: it is that tenant's oldest
                # admitted work, matching the order a restart would recover.
                self.queues.requeue_front(spec)
                self._kick.set()

    # ---- finished attempts ---------------------------------------------------

    def _on_done(self, task: TaskSpec, status: str, result: dict | None,
                 detail: str) -> None:
        spec = _job_spec(task)
        # An "error" status means the executor itself raised, outside
        # execute_job's isolation.
        outcome = (JobOutcome(**result) if status == "ok"
                   else JobOutcome("failed", f"job worker died: {detail}"))
        self.queues.release(spec.tenant)
        if outcome.status == "aborted":
            # Cancelled by drain: no terminal record — the job stays
            # pending in the journal and the next epoch resumes it.
            self.counters["aborted"] += 1
        else:
            self.store.record_done(spec.job, outcome.status, outcome.detail,
                                   degraded=outcome.degraded)
            self.counters[outcome.status] += 1
            if outcome.degraded:
                self.counters["degraded"] += 1
                self._record("job_degraded", JobDegradedEvent(
                    job=spec.job, tenant=spec.tenant,
                    reason=outcome.degrade_reason, detail=outcome.detail,
                ))
        self._record("job_done", JobDoneEvent(
            job=spec.job, tenant=spec.tenant, status=outcome.status,
            duration_s=outcome.duration_s, degraded=outcome.degraded,
        ))
        self._kick.set()

    # ---- compaction ----------------------------------------------------------

    def _maybe_compact(self) -> None:
        if (not self.compact_every
                or self._running
                or self.queues.total()
                or self.store.record_count < self.compact_every
                or self.store.record_count == self._last_compact_count):
            return
        self.compact(reason="idle")

    def compact(self, reason: str = "idle") -> dict:
        """Compact the serve journal now (idle policy or explicit CLI).

        Caller contract: no running jobs (the supervisor only calls this
        when idle; the CLI path compacts before the server starts).
        """
        stats = self.store.compact(reason=reason)
        self._last_compact_count = self.store.record_count
        self.counters["compactions"] += 1
        self._record("serve_compact", ServeCompactEvent(
            records_before=stats["records_before"],
            records_after=stats["records_after"],
            archived_terminals=stats["archived_terminals"],
            reason=reason,
        ))
        return stats

    # ---- state snapshots -----------------------------------------------------

    def counters_snapshot(self) -> dict:
        return {
            **self.counters,
            "epoch": self.store.epoch,
            "queue_high_water": self.queues.high_water,
            "queued": self.queues.total(),
            "inflight": len(self._running),
        }

    def job_state(self, job: str) -> str | None:
        if job in self.store.terminal:
            return self.store.terminal[job]
        if job in self._running:
            return "running"
        if job in self.store.admitted:
            return "queued"
        if self.store.read_report(job) is not None:
            # Archived: compaction pruned the terminal record but the
            # report artifact is forever.
            return "done"
        return None

    def retry_after_s(self, tenant: str | None = None) -> float:
        """Load-proportional back-off: global pressure normalized by worker
        count, plus the rejected tenant's own queued + in-flight share."""
        total = self.queues.total() + len(self._running)
        load = total / self.workers_n
        if tenant:
            load += self.queues.depth(tenant) + self.queues.inflight(tenant)
        return max(1.0, min(60.0, RETRY_AFTER_PER_JOB_S * (load + 1)))

    # ---- HTTP ----------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                raw = self._route(request)
            except BadRequest as exc:
                raw = self._error(400, str(exc))
            except ServeRejected as exc:
                raw = self._rejected(exc)
            except Exception as exc:  # noqa: BLE001 - a handler bug must not
                # take down jobs that are mid-campaign
                raw = self._error(500, f"{type(exc).__name__}: {exc}")
            await send_response(writer, raw)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _envelope_bytes(self, status: int, kind: str, data: dict,
                        extra_headers: dict[str, str] | None = None) -> bytes:
        body = json.dumps(
            envelope(kind, data, schema=SERVE_SCHEMA_VERSION),
            separators=(",", ":"), default=str,
        ).encode() + b"\n"
        return response_bytes(status, body, extra_headers=extra_headers)

    def _error(self, status: int, message: str) -> bytes:
        return self._envelope_bytes(status, "serve-error", {"error": message})

    def _rejected(self, exc: ServeRejected) -> bytes:
        self.counters["rejected"] += 1
        return self._envelope_bytes(
            429, "serve-rejected",
            {"reason": exc.reason, "retry_after_s": exc.retry_after_s},
            extra_headers={"Retry-After": str(int(exc.retry_after_s + 0.999))},
        )

    def _route(self, request: Request) -> bytes:
        path, method = request.path, request.method
        if path == "/v1/ping" and method == "GET":
            return self._envelope_bytes(200, "serve-ping", {
                "ok": True, "epoch": self.store.epoch,
                "draining": self.draining,
            })
        if path == "/v1/status" and method == "GET":
            return self._envelope_bytes(200, "serve-status", self._status())
        if path == "/v1/jobs" and method == "POST":
            return self._submit(request)
        if path == "/v1/events" and method == "GET":
            return self._events_body(request)
        if path == "/v1/drain" and method == "POST":
            pending = self.queues.total() + len(self._running)
            self.drain(reason="request")
            return self._envelope_bytes(202, "serve-drain", {
                "draining": True, "pending": pending,
            })
        if path.startswith("/v1/jobs/") and method == "GET":
            return self._job_get(path[len("/v1/jobs/"):])
        return self._error(
            404 if method in ("GET", "POST") else 405,
            f"no route for {method} {path}",
        )

    def _status(self) -> dict:
        running = [
            {
                "job": job,
                "tenant": handle.task.payload["record"]["tenant"],
                "verb": handle.task.payload["record"]["verb"],
                "attempt": handle.attempt,
                # Known once execution began (the worker's start message).
                "pid": handle.process.pid if handle.started else None,
            }
            for job, handle in sorted(self._running.items())
        ]
        return {
            "epoch": self.store.epoch,
            "draining": self.draining,
            "workers": {
                "configured": self.workers_n,
                "busy": len(self._running),
                "jobs_per_campaign": self.jobs_n,
                "max_inflight": self.queues.max_inflight,
            },
            "running": running,
            "queues": {
                tenant: {
                    "queued": self.queues.depth(tenant),
                    "inflight": self.queues.inflight(tenant),
                    "weight": self.queues.weight(tenant),
                }
                for tenant in self.queues.tenants()
            },
            "events": {
                "dropped": self._events_dropped,
                "oldest_seq": self._events[0]["seq"] if self._events else 0,
            },
            "journal": {
                "records": self.store.record_count,
                "archived_terminals": self.store.archived_terminals,
            },
            "counters": self.counters_snapshot(),
        }

    def _submit(self, request: Request) -> bytes:
        if self.draining:
            exc = ServeRejected("draining", self.retry_after_s())
            self._record("job_rejected", JobRejectedEvent(
                tenant="", verb="", reason=exc.reason,
                retry_after_s=exc.retry_after_s,
            ))
            raise exc
        payload = json_body(request)
        verb = payload.get("verb")
        if verb not in VERBS:
            raise BadRequest(f"verb must be one of {list(VERBS)}, got {verb!r}")
        tenant = str(payload.get("tenant") or "default")[:64]
        params = payload.get("params") or {}
        if not isinstance(params, dict):
            raise BadRequest("params must be a JSON object")
        try:
            self.queues.check(tenant, self.retry_after_s(tenant))
        except ServeRejected as exc:
            self._record("job_rejected", JobRejectedEvent(
                tenant=tenant, verb=verb, reason=exc.reason,
                retry_after_s=exc.retry_after_s,
            ))
            raise
        seq = self.store.claim_seq()
        spec = JobSpec(
            job=f"job-{seq:06d}", tenant=tenant, verb=verb,
            params=params, seq=seq,
        )
        # Durable before acknowledged: journal first (fsync per record),
        # then enqueue, then 202.
        self.store.record_job(spec)
        depth = self.queues.requeue(spec)
        self.counters["submitted"] += 1
        self._record("job_submitted", JobSubmittedEvent(
            job=spec.job, tenant=tenant, verb=verb, depth=depth,
        ))
        self._kick.set()
        return self._envelope_bytes(202, "serve-job", {
            "job": spec.job, "tenant": tenant, "verb": verb, "depth": depth,
        })

    def _job_get(self, rest: str) -> bytes:
        job, _, artifact = rest.partition("/")
        state = self.job_state(job)
        if state is None:
            return self._error(404, f"unknown job {job!r}")
        if artifact == "":
            spec = self.store.admitted.get(job)
            return self._envelope_bytes(200, "serve-job-status", {
                "job": job,
                "state": state,
                "tenant": spec.tenant if spec else None,
                "verb": spec.verb if spec else None,
                "resumed": job in self.store.span_roots
                and self.store.epoch > 1,
            })
        if artifact == "report":
            raw = self.store.read_report(job)
            if raw is None:
                return self._error(404, f"job {job!r} has no report yet "
                                        f"(state: {state})")
            return response_bytes(200, raw)
        if artifact == "runner":
            raw = self.store.read_runner(job)
            if raw is None:
                return self._error(404, f"job {job!r} has no runner report "
                                        f"yet (state: {state})")
            return response_bytes(200, raw)
        return self._error(404, f"unknown job artifact {artifact!r}")

    def _events_body(self, request: Request) -> bytes:
        topic = request.query.get("topic")
        if topic is not None and topic not in EVENT_TOPICS:
            raise BadRequest(f"unknown topic {topic!r}; choose from "
                             f"{list(EVENT_TOPICS)}")
        try:
            since = int(request.query.get("since", "0"))
        except ValueError as exc:
            raise BadRequest("since must be an integer") from exc
        lines = [
            json.dumps(record, separators=(",", ":"), default=str)
            for record in self._events
            if record["seq"] > since and (topic is None or record["topic"] == topic)
        ]
        body = ("\n".join(lines) + "\n").encode() if lines else b""
        return response_bytes(
            200, body, content_type="application/x-ndjson",
            extra_headers={
                # A trimmed ring is visible, not silent: consumers compare
                # their cursor against the oldest retained seq.
                "X-Repro-Events-Dropped": str(self._events_dropped),
                "X-Repro-Events-Oldest-Seq": str(
                    self._events[0]["seq"] if self._events else 0
                ),
            },
        )
