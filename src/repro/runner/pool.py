"""The multi-process worker pool: heartbeats, hang detection, replacement.

One supervisor for every process the reproduction starts: the campaign
runner's ``--jobs N`` tasks and ``repro serve``'s jobs (the ``serve_job``
executor, one task per job attempt) both run here.

Topology: every worker owns a private task queue (the parent targets a
specific idle worker per dispatch, so a dying worker can lose at most the
one task it holds — there is no shared queue a crash could strand work in)
and all workers share one result queue carrying three message types:

``("start", worker, task, attempt)``
    The worker picked the task up — execution begins now.
``("beat", worker, task, attempt)``
    Liveness heartbeat from a daemon thread inside the worker, every
    ``heartbeat_s`` while a task runs.  A worker that stops beating without
    finishing (frozen process, deadlocked interpreter) is *hung*.
``("done", worker, task, attempt, status, result, detail, duration_s)``
    Terminal attempt message: ``status`` is ``"ok"`` or ``"error"``.

:meth:`WorkerPool.poll` applies ``start``/``beat`` to the worker handles
and returns the ``done`` messages; :func:`worker_verdict` is the one
crash/timeout/hang judgement over a busy handle, and
:meth:`WorkerPool.sweep` applies it to every slot.  The parent never joins
a suspect worker politely: :meth:`WorkerPool.replace` SIGKILLs the process
(which also terminates SIGSTOPped ones) and boots a fresh worker into the
same slot.  A fork that fails (``EAGAIN``, ``ENOMEM``) leaves the dead
process parked idle in its slot, and the next sweep retries the spawn.
Messages from the dead worker's last attempt may still sit in the result
queue; :meth:`WorkerPool.poll` matches them against the ``(task, attempt)``
token and drops stale ones.

Workers are persistent: one process runs task after task until
:meth:`WorkerPool.stop`, so a live worker never exits on its own and a dead
one is always a crash.  They are not daemonic, so a task may start a pool
of its own (a serve job running a ``--jobs N`` campaign), and an idle
worker whose parent died exits instead of waiting for work forever.  Each
slot carries one cancellation event, created at spawn and handed to every
executor as ``payload["cancel"]``; only the parent touches it — cleared at
:meth:`WorkerPool.dispatch`, set by :meth:`WorkerPool.cancel_all` on a
drain.

Start method: ``fork`` where the platform offers it (workers inherit the
warm interpreter — kernel builds stay cheap), ``spawn`` otherwise.  Any
failure to bring the pool up raises :class:`PoolStartError`, which the
service layer turns into a graceful serial fallback.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from queue import Empty
from typing import Any

from repro.errors import RunnerError
from repro.runner.chaos import kill_point, reset_hits
from repro.runner.tasks import TaskSpec, resolve_executor


class PoolStartError(RunnerError):
    """The worker pool could not start (callers fall back to serial)."""


#: How often an idle worker checks that its parent is still alive.
ORPHAN_CHECK_S = 1.0


def _heartbeat_loop(result_queue, worker_id: int, task_id: str, attempt: int,
                    interval: float, stop: threading.Event) -> None:
    while not stop.wait(interval):
        try:
            result_queue.put(("beat", worker_id, task_id, attempt))
        except Exception:
            return  # parent went away; nothing left to report to


def worker_main(worker_id: int, task_queue, result_queue,
                heartbeat_s: float, cancel) -> None:
    """Worker process body: execute tasks off the private queue until None."""
    parent = os.getppid()
    while True:
        try:
            item = task_queue.get(timeout=ORPHAN_CHECK_S)
        except Empty:
            if os.getppid() != parent:
                return  # orphaned: no one is left to send work
            continue
        if item is None:
            return
        task_id, kind, payload, attempt = item
        reset_hits()
        kill_point(f"task:{task_id}")
        result_queue.put(("start", worker_id, task_id, attempt))
        stop = threading.Event()
        beat = threading.Thread(
            target=_heartbeat_loop,
            args=(result_queue, worker_id, task_id, attempt, heartbeat_s, stop),
            daemon=True,
        )
        beat.start()
        started = time.perf_counter()
        status, result, detail = "ok", None, ""
        try:
            result = resolve_executor(kind)(dict(payload, cancel=cancel))
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            status = "error"
            detail = f"{type(exc).__name__}: {exc}"
        finally:
            stop.set()
        duration = time.perf_counter() - started
        result_queue.put(
            ("done", worker_id, task_id, attempt, status, result, detail,
             duration)
        )


@dataclass
class WorkerHandle:
    """Parent-side state of one worker slot."""

    slot: int
    process: Any
    queue: Any
    #: The slot's drain event (see the module docstring).
    cancel: Any
    #: In-flight task and its 1-based attempt; None when idle.
    task: TaskSpec | None = None
    attempt: int = 0
    #: The worker's ``start`` message for the in-flight attempt arrived.
    started: bool = False
    dispatched_at: float = 0.0
    last_beat: float = 0.0
    #: Monotonically increasing worker id (slots are reused, ids are not).
    worker_id: int = 0

    @property
    def idle(self) -> bool:
        return self.task is None

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


def worker_verdict(handle, now: float, timeout_s: float | None,
                   hang_timeout_s: float) -> str | None:
    """Why a busy worker must be replaced at *now*, or None.

    ``"crash"`` (the process is gone — a live worker never exits on its
    own), ``"timeout"`` (more than *timeout_s* since dispatch; None means
    heartbeat-only supervision) or ``"hang"`` (no sign of life for
    *hang_timeout_s*), judged in that order.
    """
    if not handle.alive:
        return "crash"
    if timeout_s is not None and now - handle.dispatched_at > timeout_s:
        return "timeout"
    if now - handle.last_beat > hang_timeout_s:
        return "hang"
    return None


class WorkerPool:
    """A fixed number of replaceable, persistent worker processes."""

    def __init__(self, jobs: int, heartbeat_s: float = 0.2,
                 start_method: str | None = None) -> None:
        if jobs < 1:
            raise PoolStartError(f"worker pool needs jobs >= 1, got {jobs}")
        self.jobs = jobs
        self.heartbeat_s = heartbeat_s
        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else "spawn"
        try:
            self._ctx = multiprocessing.get_context(start_method)
        except ValueError as exc:
            raise PoolStartError(f"no usable start method: {exc}") from exc
        self._next_worker_id = 0
        self.workers: list[WorkerHandle] = []
        self.result_queue = None

    # ---- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        try:
            self.result_queue = self._ctx.Queue()
            self.workers = [self._spawn(slot) for slot in range(self.jobs)]
        except PoolStartError:
            raise
        except Exception as exc:  # pragma: no cover - platform-dependent
            self.stop()
            raise PoolStartError(f"worker pool failed to start: {exc}") from exc

    def _spawn(self, slot: int) -> WorkerHandle:
        queue = self._ctx.Queue()
        cancel = self._ctx.Event()
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, queue, self.result_queue, self.heartbeat_s,
                  cancel),
            daemon=False,
            name=f"repro-runner-{slot}",
        )
        process.start()
        return WorkerHandle(slot=slot, process=process, queue=queue,
                            cancel=cancel, worker_id=worker_id)

    def stop(self) -> None:
        """Tear the pool down (graceful stop, then SIGKILL stragglers)."""
        for handle in self.workers:
            if handle.process.is_alive() and handle.idle:
                try:
                    handle.queue.put(None)
                except Exception:
                    pass
        deadline = time.monotonic() + 1.0
        for handle in self.workers:
            handle.process.join(max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(1.0)
        for handle in self.workers:
            try:
                handle.queue.close()
            except Exception:
                pass
        self.workers = []
        if self.result_queue is not None:
            try:
                self.result_queue.close()
            except Exception:
                pass
            self.result_queue = None

    # ---- dispatch / monitoring ----------------------------------------------

    def idle_workers(self) -> list[WorkerHandle]:
        return [h for h in self.workers if h.idle and h.alive]

    def dispatch(self, handle: WorkerHandle, task: TaskSpec,
                 attempt: int) -> None:
        now = time.monotonic()
        handle.cancel.clear()
        handle.task = task
        handle.attempt = attempt
        handle.started = False
        handle.dispatched_at = now
        handle.last_beat = now
        handle.queue.put((task.id, task.kind, task.payload, attempt))

    def cancel_all(self) -> None:
        """Drain: ask every in-flight executor to stop at its next
        boundary."""
        for handle in self.workers:
            handle.cancel.set()

    def replace(self, handle: WorkerHandle) -> None:
        """SIGKILL *handle*'s process and boot a fresh worker in its slot.

        If the fork fails the slot keeps the dead process, idle, so the
        next :meth:`sweep` retries; *handle* itself keeps its task for the
        caller's accounting.
        """
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join(2.0)
        try:
            handle.queue.close()
        except Exception:
            pass
        try:
            fresh = self._spawn(handle.slot)
        except Exception:
            fresh = WorkerHandle(slot=handle.slot, process=handle.process,
                                 queue=handle.queue, cancel=handle.cancel,
                                 worker_id=handle.worker_id)
        self.workers[handle.slot] = fresh

    def sweep(self, now: float, hang_timeout_s: float,
              default_timeout_s: float | None = None
              ) -> list[tuple[WorkerHandle, str, str]]:
        """Replace every dead or suspect worker; return the busy ones as
        ``(old handle, verdict, detail)`` so the caller can account for
        their attempts.  A task's own ``timeout_s`` wins over
        *default_timeout_s*.
        """
        suspects = []
        for handle in list(self.workers):
            if handle.idle:
                if not handle.alive:
                    self.replace(handle)
                continue
            timeout_s = handle.task.timeout_s
            if timeout_s is None:
                timeout_s = default_timeout_s
            reason = worker_verdict(handle, now, timeout_s, hang_timeout_s)
            if reason is None:
                continue
            if reason == "crash":
                detail = (f"worker {handle.worker_id} died "
                          f"(exitcode {handle.process.exitcode})")
            elif reason == "timeout":
                detail = f"exceeded {timeout_s:.1f}s wall clock"
            else:
                detail = f"no heartbeat for {now - handle.last_beat:.1f}s"
            suspects.append((handle, reason, detail))
            self.replace(handle)
        return suspects

    def poll(self, timeout: float) -> list[tuple]:
        """Drain the result queue (waiting up to *timeout* for the first
        message) and return the finished attempts.

        ``start``/``beat`` messages refresh their worker's liveness; each
        ``done`` frees its worker and comes back as ``(task, attempt,
        status, result, detail, duration_s)``.  Stale messages (a replaced
        worker's last attempt) and malformed ones (torn by a kill) are
        dropped.
        """
        messages: list = []
        assert self.result_queue is not None
        try:
            messages.append(self.result_queue.get(timeout=timeout))
            while True:
                messages.append(self.result_queue.get_nowait())
        except (Empty, EOFError, OSError, ValueError):
            pass
        done: list[tuple] = []
        now = time.monotonic()
        by_id = {handle.worker_id: handle for handle in self.workers}
        for message in messages:
            if not isinstance(message, tuple) or len(message) < 4:
                continue
            kind, worker_id, task_id, attempt = message[:4]
            handle = by_id.get(worker_id)
            if (handle is None or handle.task is None
                    or (handle.task.id, handle.attempt) != (task_id, attempt)):
                continue
            if kind in ("start", "beat"):
                handle.started = True
                handle.last_beat = now
            elif kind == "done" and len(message) == 8:
                done.append((handle.task, attempt, *message[4:]))
                handle.task = None
        return done
