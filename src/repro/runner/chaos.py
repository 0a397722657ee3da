"""Chaos kill points: prove crash recovery instead of asserting it.

A *kill point* is a named place in the orchestration layer where a test can
make the process die with ``os._exit`` — no ``atexit``, no ``finally``, no
flushing — the closest a test harness gets to ``kill -9`` at an exact line.
The crash-recovery matrix (``tests/runner/``, ``tests/serve/``) and the CI
``serve-smoke`` job arm these points to demonstrate that the journal and the
service actually survive the crashes docs/robustness.md claims they survive.

Instrumented points (each site costs one dict lookup when unarmed):

``journal-append``
    :meth:`repro.runner.journal.Journal.append`, *before* the record is
    written — the record is lost entirely.
``pre-fsync``
    :meth:`repro.runner.journal.Journal.flush`, after the batched writes but
    *before* ``fsync`` — records are in the page cache, not yet durable.
``mid-response``
    :mod:`repro.serve.http`, halfway through writing a response body — the
    client sees a torn response for work the server already journaled.
``mid-drain``
    :meth:`repro.serve.app.ServeApp` graceful drain, after the in-flight job
    was interrupted but *before* the drain finishes cleanly.
``compact-snapshot``
    :meth:`repro.serve.store.ServeStore.compact`, after the snapshot file is
    written and fsync'd but *before* the atomic rename — the old journal is
    still the live one.
``compact-commit``
    Journal compaction, after the rename and the directory fsync but
    *before* the journal reopen — the snapshot is the live journal.
``task:<id>``
    :func:`repro.runner.pool.worker_main`, when a pool worker picks up task
    ``<id>`` and *before* its ``start`` message — the worker dies holding
    the task (a campaign task such as ``task:inject:3``, or a serve job
    such as ``task:job-000001``).  One point per task id, so it is not
    listed in :data:`KILL_POINTS`.

Environment protocol:

``REPRO_CHAOS_KILL_POINT``
    Name of the armed point.  Unset (the normal case) disables everything.
``REPRO_CHAOS_KILL_AFTER``
    Die on the Nth hit of the armed point (default 1 — the first hit).
    Hits count per process, and a pool worker restarts the count at each
    task it picks up: in a ``repro serve`` job, N counts within that one
    job attempt, however many jobs the worker ran before.
``REPRO_CHAOS_KILL_MARKER``
    Optional once-marker path: the kill creates this file first, and a
    pre-existing marker disarms the point — so a restarted process with the
    same environment does not die again.
"""

from __future__ import annotations

import os

KILL_POINT_ENV = "REPRO_CHAOS_KILL_POINT"
KILL_AFTER_ENV = "REPRO_CHAOS_KILL_AFTER"
KILL_MARKER_ENV = "REPRO_CHAOS_KILL_MARKER"

#: Exit status of a chaos kill — distinctive, so tests can tell an injected
#: crash (53) from a real one.
KILL_EXIT = 53

#: All fixed instrumented point names (validation + docs); pool workers
#: add one ``task:<id>`` point per task they pick up.
KILL_POINTS = ("journal-append", "pre-fsync", "mid-response", "mid-drain",
               "compact-snapshot", "compact-commit")

#: Per-point hit counters of this process (reset on restart by definition).
_hits: dict[str, int] = {}


def reset_hits() -> None:
    """Start every point's hit count afresh (a pool worker, per task)."""
    _hits.clear()


def kill_point(name: str) -> None:
    """Die here iff *name* is the armed kill point and its hit count is due."""
    if os.environ.get(KILL_POINT_ENV) != name:
        return
    _hits[name] = _hits.get(name, 0) + 1
    if _hits[name] < int(os.environ.get(KILL_AFTER_ENV, "1")):
        return
    marker = os.environ.get(KILL_MARKER_ENV)
    if marker:
        try:
            fd = os.open(marker, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            return  # already fired once; stay alive from now on
        os.close(fd)
    os._exit(KILL_EXIT)
