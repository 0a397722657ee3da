"""The measurement loop shared by every workload.

A run is a closed loop with one client: jobs go one after another, in
whole passes of a fixed order, so every run has the same latency mix.
A host probe samples the CPUs all through the run (``probe.HostClock``);
each job's time is normalized by the samples taken while it ran.  End-to-end figures come from
runs with tracing off.  A traced run measures half its time untraced and
half traced, which gives the tracing overhead and a second check that the
simulated counts repeat.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

from probe import HostClock

#: Fresh set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 7

#: A job slower than this counts as failed (it timed out).
JOB_TIMEOUT_S = 120.0


class CheckFailed(Exception):
    """A job's output differs from the expected output."""


@dataclass
class Outcome:
    """What a verified job yields: simulated cycles and an exact signature
    that must repeat in every pass."""

    cycles: int
    signature: tuple
    #: Workload-specific details for the traced run's per-layer figures.
    extra: Any = None


@dataclass
class Job:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


@dataclass
class JobRecord:
    pass_index: int
    label: str
    start: float
    end: float
    outcome: Outcome | None
    factor: float = 1.0

    @property
    def raw_s(self) -> float:
        return self.end - self.start

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.factor


@dataclass
class Segment:
    records: list[JobRecord] = field(default_factory=list)
    passes: int = 0

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.outcome is None)

    def jobs_per_s(self, normalized: bool = True) -> float:
        busy = sum(r.norm_s if normalized else r.raw_s for r in self.records)
        return (len(self.records) - self.failed) / busy

    def latencies_ms(self, normalized: bool = True) -> list[float]:
        return [(r.norm_s if normalized else r.raw_s) * 1e3
                for r in self.records]

    def p50_ms(self, normalized: bool = True) -> float:
        """Median job latency, read as the median of each job's own median.

        Every run holds whole passes, so the population median always
        falls between the same two jobs of the pass order.  Taking it
        from those jobs' medians instead of from the extremes of their
        samples keeps one slow or fast sample from moving it.
        """
        by_label: dict[str, list[float]] = {}
        for r in self.records:
            by_label.setdefault(r.label, []).append(
                (r.norm_s if normalized else r.raw_s) * 1e3)
        return statistics.median(statistics.median(v) for v in by_label.values())

    def cycles(self) -> int:
        return sum(r.outcome.cycles for r in self.records if r.outcome)

    def pass_signatures(self) -> list[tuple]:
        by_pass: dict[int, list] = {}
        for r in self.records:
            by_pass.setdefault(r.pass_index, []).append(
                (r.label, r.outcome.signature if r.outcome else None))
        return [tuple(jobs) for _, jobs in sorted(by_pass.items())]


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name = "workload"
    #: A single-process workload runs pinned to one CPU, so that the host
    #: probe reads the very CPU the jobs run on.
    one_cpu = False
    #: Where the ``sim.*`` counts come from: the in-process runs of the
    #: traced jobs ("jobs") or of the serial reference pass ("reference").
    sim_from = "jobs"
    #: Per-layer figures ``layer_metrics`` returns.
    layer_names: tuple[str, ...] = ()

    def __init__(self, root, seed: int, workdir) -> None:
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.tracer = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def setup(self) -> None:
        """One fresh, user-paid set-up before the first job (timed)."""

    def discard(self) -> None:
        """Release what ``setup`` made, before the next fresh set-up."""

    def prepare(self) -> None:
        """Benchmark-only expected outputs (untimed, not set-up)."""

    def pass_jobs(self) -> list[Job]:
        raise NotImplementedError

    def layer_metrics(self, segment: Segment) -> dict[str, float]:
        """Workload-specific per-layer figures from the traced segment."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


def pin(workload: Workload) -> None:
    if workload.one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def timed_setups(workload: Workload, clock: HostClock, reps: int) -> tuple[list[float], list[float]]:
    """Run *reps* fresh set-ups; returns (normalized s, raw s).

    A set-up lasts a few tenths of a second, about as long as a state of
    the host, so one repetition's own window says little; all repetitions
    share the factor of the whole span they cover.
    """
    raw = []
    first = time.perf_counter()
    for rep in range(reps):
        if rep:
            workload.discard()
        started = time.perf_counter()
        workload.setup()
        raw.append(time.perf_counter() - started)
    factor = clock.factor(first, time.perf_counter())
    return [value * factor for value in raw], raw


def run_segment(workload: Workload, clock: HostClock, seconds: float,
                tracer=None) -> Segment:
    """Whole passes until *seconds* of wall time have gone by."""
    segment = Segment()
    started = time.perf_counter()
    while True:
        for job in workload.pass_jobs():
            t0 = time.perf_counter()
            t1 = outcome = None
            try:
                with tracer.span("job") if tracer is not None else nullcontext():
                    output = job.run()
                t1 = time.perf_counter()
                outcome = job.check(output)
                if t1 - t0 > JOB_TIMEOUT_S:
                    raise CheckFailed(f"took {t1 - t0:.1f}s > {JOB_TIMEOUT_S}s")
            except Exception as exc:  # a failed job is counted, not fatal
                t1 = t1 or time.perf_counter()
                outcome = None
                print(f"job {job.label} failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
            segment.records.append(
                JobRecord(segment.passes, job.label, t0, t1, outcome))
        segment.passes += 1
        if time.perf_counter() - started >= seconds:
            break
    for record in segment.records:
        record.factor = clock.factor(record.start, record.end)
    return segment


def p90_line(latencies: list[float]) -> str:
    """The p90 with its sample count, only where 10 samples lie beyond it."""
    n = len(latencies)
    if n < 100:
        return f"job_p90_ms: not reported ({n} jobs < 100)"
    p90 = statistics.quantiles(latencies, n=10)[-1]
    return f"job_p90_ms: {p90:.3f} ms over {n} jobs"
