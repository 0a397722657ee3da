"""Job specifications and executors for the simulation service.

A job is a persisted request to run one repro workload.  Three verbs:

``check``
    A fault campaign (the parallel ``repro check`` harness) on a service
    job worker, journalled per job — the worker can be SIGKILLed mid-run
    and the resumed job merges byte-identical to a serial ``repro check``
    with the same parameters.  The report on disk is byte-for-byte the
    document ``repro check --json`` writes.  ``jobs`` from the service
    configuration sizes the campaign's own worker pool; when that pool
    misbehaves (fails to start, trips a breaker, loses tasks) the executor
    **degrades instead of failing**: the campaign re-runs serially against
    the same resume journal — completed injections are cached there, so
    only the casualties re-execute — and the degradation is recorded in the
    runner report and the job outcome, never silent.

``profile``
    One kernel's ``kernel-profile`` document.  Pure and fast, so it carries
    no journal: a job interrupted by a crash simply re-runs from scratch on
    the next epoch.

``probe``
    A synthetic latency job: sleep for ``duration_s``, write a tiny
    deterministic report.  Scheduling, supervision and the concurrency
    benchmark use it to exercise the service's dispatch path without
    paying for a simulation — probe jobs overlap even on one CPU, so the
    measured speedup isolates *orchestration* concurrency from hardware
    parallelism.

A job attempt is one ``serve_job`` task (:func:`run_serve_job`) on the
service's :class:`~repro.runner.pool.WorkerPool`, whose persistent workers
run job after job.  Cancellation rides the worker slot's multiprocessing
event rather than signals: the drain path sets it from the service loop
and the runner stops at its next task boundary with the journal flushed.
Executors receive a :class:`~repro.serve.store.JobPaths` (not the full
store): workers write artifacts but never touch the parent's serve
journal.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field

from repro.errors import ServeError
from repro.resilience import ResilienceMode

__all__ = ["JobSpec", "JobOutcome", "VERBS", "execute_job", "run_serve_job"]

VERBS = ("check", "profile", "probe")

#: Cancellation poll period of the probe executor's sleep loop.
PROBE_SLICE_S = 0.05


@dataclass(frozen=True, slots=True)
class JobSpec:
    """One admitted job; exactly what the serve journal persists."""

    job: str
    tenant: str
    verb: str
    params: dict = field(default_factory=dict)
    #: Monotonic admission sequence number (also the id suffix); restart
    #: recovery re-enqueues pending jobs in this order.
    seq: int = 0

    def as_record(self) -> dict:
        return {
            "type": "job",
            "job": self.job,
            "tenant": self.tenant,
            "verb": self.verb,
            "params": dict(self.params),
            "seq": self.seq,
        }

    @classmethod
    def from_record(cls, record: dict) -> "JobSpec":
        try:
            return cls(
                job=record["job"],
                tenant=record["tenant"],
                verb=record["verb"],
                params=dict(record.get("params") or {}),
                seq=int(record.get("seq", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServeError(f"malformed persisted job record: {record!r}") from exc


@dataclass(slots=True)
class JobOutcome:
    """What one execution attempt produced."""

    #: ``"done"``, ``"failed"`` or ``"aborted"`` (cancelled by a drain —
    #: the job stays pending in the journal and resumes next epoch).
    status: str
    detail: str = ""
    duration_s: float = 0.0
    #: The job finished, but not on the configured parallel path: its
    #: campaign pool broke and a serial (re-)run produced the result.
    degraded: bool = False
    #: ``"pool_breaker"`` / ``"pool_start"`` when :attr:`degraded`.
    degrade_reason: str = ""


def _check_params(params: dict) -> dict:
    """Normalized keyword arguments for the ``check`` executors."""
    kernels = params.get("kernels") or ()
    return {
        "kernels": tuple(kernels),
        "faults": int(params.get("faults", 0)),
        "seed": int(params.get("seed", 0)),
        "fast": bool(params.get("fast", False)),
        "resilience": ResilienceMode.parse(params.get("mode", "degrade")),
    }


def execute_job(spec: JobSpec, paths, cancel,
                tracer=None, serve_counters: dict | None = None,
                jobs: int = 1) -> JobOutcome:
    """Run one job to a terminal (or aborted) state; writes its artifacts.

    *cancel* is any event-shaped object (``is_set()``) — a multiprocessing
    event under the service, a plain :class:`threading.Event` in tests.
    *jobs* sizes a check campaign's worker pool.  Imports live inside the
    executors: the serve package must import without dragging the kernel
    registry (and numpy workloads) into processes that only parse journals
    or build clients.
    """
    started = time.perf_counter()
    try:
        if spec.verb == "check":
            outcome = _execute_check(
                spec, paths, cancel, tracer, serve_counters, jobs
            )
        elif spec.verb == "profile":
            outcome = _execute_profile(spec, paths)
        elif spec.verb == "probe":
            outcome = _execute_probe(spec, paths, cancel)
        else:
            outcome = JobOutcome("failed", f"unknown verb {spec.verb!r}")
    except Exception as exc:  # noqa: BLE001 - job isolation: report, don't die
        outcome = JobOutcome("failed", f"{type(exc).__name__}: {exc}")
    outcome.duration_s = time.perf_counter() - started
    return outcome


def run_serve_job(payload: dict) -> dict:
    """Executor of ``serve_job`` tasks: one job attempt on a pool worker.

    Payload: the job's journal ``record``, the journal dir ``root``, the
    service ``epoch``, the campaign pool size ``jobs``, ``span_base`` /
    ``span_prev`` (the tracer the parent predicted: span ids are
    sequential and deterministic, so the parent journals the root span's
    ids *before* dispatch and this tracer's first ``begin()`` produces the
    same ids — the root survives even a worker SIGKILLed before it writes
    a single span), ``resumed``, ``serve_counters`` and the drain event
    ``cancel``.  Returns the :class:`JobOutcome` fields.
    """
    from repro.obs.spans import SpanTracer
    from repro.serve.store import JobPaths

    spec = JobSpec.from_record(payload["record"])
    paths = JobPaths(payload["root"])
    tracer = root_span = None
    if spec.verb == "check":
        tracer = SpanTracer(id_base=payload["span_base"],
                            remote_parent=payload["span_prev"])
        root_span = tracer.begin(
            f"serve:job:{spec.job}", epoch=payload["epoch"],
            tenant=spec.tenant, verb=spec.verb, resumed=payload["resumed"],
        )
        tracer.remote_parent = (root_span.trace_id, root_span.span_id)
    outcome = execute_job(
        spec, paths, payload.get("cancel") or threading.Event(),
        tracer=tracer, serve_counters=payload["serve_counters"],
        jobs=payload["jobs"],
    )
    if tracer is not None:
        if outcome.status == "done":
            tracer.end(root_span)
        # aborted/failed: the open root exports with an aborted status.
        tracer.write(paths.spans_path(spec.job, payload["epoch"]))
    return asdict(outcome)


def _pool_damage(runner) -> str:
    """Why this campaign's parallel run cannot stand as the final result
    (empty string = it can)."""
    if runner.stats.breaker_trips:
        return (
            f"breaker opened on {', '.join(runner.breaker.open_slices)}"
        )
    casualties = sorted(
        result.task for result in runner.results.values() if not result.ok
    )
    if casualties:
        preview = ", ".join(casualties[:4])
        if len(casualties) > 4:
            preview += f", ... ({len(casualties)} total)"
        return f"tasks not ok after pooled run: {preview}"
    return ""


def _execute_check(spec: JobSpec, paths, cancel,
                   tracer, serve_counters: dict | None,
                   jobs: int) -> JobOutcome:
    from repro.errors import RunnerError, RunnerInterrupted
    from repro.faults import run_check_parallel
    from repro.faults.report import check_report
    from repro.runner import RunnerConfig, runner_report

    kwargs = _check_params(spec.params)
    journal_path = paths.job_journal(spec.job)
    use_jobs = max(1, jobs)
    config = RunnerConfig(jobs=use_jobs, cancel_event=cancel)

    degraded = False
    degrade_reason = ""
    degrade_detail = ""
    try:
        result, runner = run_check_parallel(
            **kwargs,
            jobs=use_jobs,
            journal_path=journal_path,
            runner_config=config,
            tracer=tracer,
        )
    except RunnerInterrupted:
        # Drain cancelled us mid-campaign.  The runner journal is flushed;
        # the job stays pending and the next epoch resumes it.
        return JobOutcome("aborted", "cancelled by drain; journal flushed")
    except RunnerError as exc:
        if use_jobs <= 1:
            raise
        # A clean task died terminally on the pool — on this machine that
        # smells infrastructural, not simulational.  Serial gets one shot.
        degraded, degrade_reason, degrade_detail = (
            True, "pool_breaker", f"RunnerError: {exc}"
        )
        result = runner = None
    else:
        if runner.fallback_reason is not None:
            # The pool never started; the Runner already fell back to the
            # serial path internally.  Result stands, degradation recorded.
            degraded, degrade_reason = True, "pool_start"
            degrade_detail = runner.fallback_reason
        elif use_jobs > 1:
            damage = _pool_damage(runner)
            if damage:
                degraded, degrade_reason, degrade_detail = (
                    True, "pool_breaker", damage
                )
                result = runner = None

    if result is None:
        # Serial re-run against the same journal: completed injections are
        # cached there, so only the pooled run's casualties re-execute, and
        # the merge stays byte-identical to an all-serial campaign.
        try:
            result, runner = run_check_parallel(
                **kwargs,
                jobs=1,
                journal_path=journal_path,
                runner_config=RunnerConfig(jobs=1, cancel_event=cancel),
                tracer=tracer,
            )
        except RunnerInterrupted:
            return JobOutcome("aborted", "cancelled by drain; journal flushed")

    serve_doc = dict(serve_counters) if serve_counters else None
    if degraded and serve_doc is not None:
        serve_doc["degraded"] = {
            "reason": degrade_reason, "detail": degrade_detail,
        }
    paths.write_report(spec.job, check_report(result))
    paths.write_runner(spec.job, runner_report(runner, serve=serve_doc))
    return JobOutcome(
        "done",
        detail=degrade_detail if degraded else "",
        degraded=degraded,
        degrade_reason=degrade_reason,
    )


def _execute_profile(spec: JobSpec, paths) -> JobOutcome:
    from repro.kernels import make_kernel
    from repro.obs.export import kernel_profile_report, resolve_kernel_name

    name = resolve_kernel_name(str(spec.params.get("kernel", "")))
    paths.write_report(spec.job, kernel_profile_report(make_kernel(name)))
    return JobOutcome("done")


def _execute_probe(spec: JobSpec, paths, cancel) -> JobOutcome:
    from repro.obs.export import envelope

    duration = max(0.0, float(spec.params.get("duration_s", PROBE_SLICE_S)))
    deadline = time.perf_counter() + duration
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            break
        if cancel.is_set():
            return JobOutcome("aborted", "cancelled by drain")
        time.sleep(min(PROBE_SLICE_S, remaining))
    if spec.params.get("fail"):
        return JobOutcome("failed", "probe requested failure")
    # Deterministic by construction (requested values only, no measured
    # wall clock): a probe report is byte-identical across epochs, worker
    # counts, and requeues.
    paths.write_report(spec.job, envelope("serve-probe", {
        "job": spec.job,
        "tenant": spec.tenant,
        "duration_s": duration,
    }))
    return JobOutcome("done")
