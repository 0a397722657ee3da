"""repro.serve — the durable simulation job service (``repro serve``).

A long-lived, stdlib-only (asyncio) service that accepts kernel-profile,
fault-campaign and probe jobs over schema-versioned JSON endpoints
(``repro.serve/1``), executes them on the persistent, supervised workers
of the hardened :mod:`repro.runner` pool, and holds four promises the CLI
alone cannot:

**Durability.**  Admissions, completions and supervision strikes live in a
CRC-checksummed, fsync-per-record journal; campaign progress lives in
per-job runner journals.  ``kill -9`` the server (or any job worker) at any
instant — restarting it with the same ``--journal-dir`` resumes every
unfinished job and produces final reports byte-identical to uninterrupted
serial runs.  Idle-time compaction folds the journal into an equivalent
bounded snapshot without weakening any of that (crash-safe
write/fsync/rename, chaos-tested at the kill points inside it).

**Bounded state.**  Per-tenant bounded queues drained by smooth weighted
round-robin with per-tenant in-flight caps — fairness with a provable
starvation bound; a submission beyond the bound gets HTTP 429 with a
load-proportional ``Retry-After`` hint instead of unbounded memory growth.
The event ring, header sizes and body sizes are bounded the same way (ring
losses are surfaced, not silent).

**Supervision.**  ``--workers M`` jobs run concurrently on a
:class:`repro.runner.pool.WorkerPool`, each campaign on its own
``--jobs N`` worker pool.  Heartbeats and calibrated wall-clock budgets
detect hung workers; suspects are SIGKILLed and replaced, and their jobs
requeued under a journalled, bounded attempt budget.  A campaign whose
pool breaks degrades to a serial re-run — recorded in the job's report and
events, never silent.

**Graceful drain.**  SIGTERM (or ``POST /v1/drain``) stops admissions,
cancels every running campaign at a task boundary with its journal
flushed, exports open spans as aborted, and exits 3 — the same resumable
contract as an interrupted ``repro check``.

The chaos kill points (:mod:`repro.runner.chaos`) — ``journal-append``,
``pre-fsync``, ``mid-response``, ``mid-drain``, ``compact-snapshot``,
``compact-commit`` and ``task:<id>`` — let the crash-recovery matrix in
``tests/serve`` prove those claims rather than assert them.  See docs/robustness.md
("Simulation as a service") for the endpoint and journal reference.
"""

from repro.serve.app import ServeApp
from repro.serve.client import ServeClient, SubmitRetry, read_endpoint
from repro.serve.jobs import VERBS, JobOutcome, JobSpec, execute_job
from repro.serve.queues import TenantQueues
from repro.serve.store import JobPaths, ServeStore

__all__ = [
    "ServeApp",
    "ServeClient",
    "SubmitRetry",
    "read_endpoint",
    "VERBS",
    "JobOutcome",
    "JobSpec",
    "execute_job",
    "TenantQueues",
    "JobPaths",
    "ServeStore",
]
