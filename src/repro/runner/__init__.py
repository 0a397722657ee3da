"""repro.runner — the resilient parallel campaign runner.

The paper's controller keeps statically scheduled work flowing without
per-instruction intervention; this package gives the evaluation layer the
same decoupling at orchestration scale.  Fault campaigns (``repro check
--jobs N``) and kernel sweeps (``repro run --all --jobs N``, which run
``repro check``'s per-kernel clean tasks) become independent tasks on a
worker pool (the same pool runs ``repro serve`` jobs) with:

* per-task **wall-clock timeouts** (complementing the in-simulation cycle
  watchdog),
* bounded **retries** with exponential backoff and full jitter,
* a per-``(kernel, config)`` **circuit breaker** that degrades a
  persistently failing slice to recorded ``skipped`` outcomes,
* worker **heartbeats** with hang detection and process replacement, and
* a **crash-consistent JSONL journal** (atomic appends, fsync'd batches)
  enabling ``--resume`` to skip completed tasks and merge byte-identical
  results regardless of completion order or interruption point.

See docs/robustness.md ("Campaign orchestration") for semantics and the
journal format.  A task's lifecycle is recorded in the journal, in
:class:`RunnerStats` and, when a tracer is attached, as spans.
"""

from repro.runner.chaos import KILL_EXIT, KILL_POINTS, kill_point
from repro.runner.journal import Journal, JournalLoad, load_journal
from repro.runner.policy import CircuitBreaker, RetryPolicy
from repro.runner.signals import CampaignSignalled, clean_interrupts
from repro.runner.pool import PoolStartError, WorkerPool
from repro.runner.report import runner_report
from repro.runner.service import Runner, RunnerConfig, RunnerStats
from repro.runner.tasks import (
    EXECUTORS,
    TaskResult,
    TaskSpec,
    probe_task,
    register_executor,
    resolve_executor,
)

__all__ = [
    "Journal",
    "JournalLoad",
    "load_journal",
    "KILL_EXIT",
    "KILL_POINTS",
    "kill_point",
    "CampaignSignalled",
    "clean_interrupts",
    "CircuitBreaker",
    "RetryPolicy",
    "PoolStartError",
    "WorkerPool",
    "runner_report",
    "Runner",
    "RunnerConfig",
    "RunnerStats",
    "EXECUTORS",
    "TaskResult",
    "TaskSpec",
    "probe_task",
    "register_executor",
    "resolve_executor",
]
