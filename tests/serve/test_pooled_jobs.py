"""Serve jobs on the runner's worker pool: budgets and persistent workers.

Each job attempt is one ``serve_job`` task on a
:class:`repro.runner.pool.WorkerPool`.  The unit tests pin what the
supervisor dispatches; the integration test pins that a worker is reused
across jobs without leaking state between them, and that a drain still
cancels a job running on a reused worker.
"""

import socket
import time

import pytest

from repro.runner.policy import calibrated_timeout_s
from repro.serve import JobSpec, ServeClient, read_endpoint
from repro.serve.app import ServeApp
from tests.serve.harness import CHECK_PARAMS, serial_report_bytes, start_serve

#: Long enough that the status endpoint reliably sees the job running.
REUSE_CHECK_PARAMS = {**CHECK_PARAMS, "faults": 80}


class FakePool:
    """One idle slot per dispatch round; records what was dispatched."""

    def __init__(self) -> None:
        self.workers = []
        self.dispatched = []

    def idle_workers(self):
        return [object()]

    def dispatch(self, handle, task, attempt):
        self.dispatched.append((task, attempt))


class TestDispatchedTask:
    @pytest.mark.parametrize("expected,budget", [
        (2.0, calibrated_timeout_s(2.0)),
        ("0.5", calibrated_timeout_s(0.5)),
        ("soon", None),
        ([1], None),
        (None, None),
    ])
    def test_expected_s_becomes_the_task_budget(self, tmp_path, expected,
                                                budget):
        app = ServeApp(tmp_path / "serve")
        pool = app._pool = FakePool()
        params = {"duration_s": 0.01}
        if expected is not None:
            params["expected_s"] = expected
        spec = JobSpec(job="job-000001", tenant="t", verb="probe",
                       params=params, seq=1)
        try:
            app.store.record_job(spec)
            app.queues.requeue(spec)
            app._dispatch()
        finally:
            app.store.close()
        [(task, attempt)] = pool.dispatched
        assert (task.id, task.kind, attempt) == (spec.job, "serve_job", 1)
        assert task.payload["record"] == spec.as_record()
        assert task.timeout_s == budget


def running_pid(client, job, timeout_s=60.0) -> int:
    """Poll status until *job* runs with a known pid."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        for entry in client.status()["running"]:
            if entry["job"] == job and entry["pid"]:
                return entry["pid"]
        time.sleep(0.02)
    raise AssertionError(f"{job} never reported a running pid")


class TestWorkerReuse:
    def test_one_worker_runs_consecutive_jobs_and_still_drains(
        self, tmp_path
    ):
        reference = serial_report_bytes(tmp_path, REUSE_CHECK_PARAMS)
        journal_dir = tmp_path / "serve"
        proc = start_serve(journal_dir, "--workers", "1")
        try:
            host, port = read_endpoint(journal_dir, timeout_s=20)
            client = ServeClient(host, port)
            pids, reports = [], []
            for _ in range(2):
                job = client.submit("check", REUSE_CHECK_PARAMS)
                pids.append(running_pid(client, job))
                assert client.wait(job, timeout_s=300) == "done"
                reports.append(client.report_bytes(job))
            # Same process both times, and nothing leaked from the first
            # campaign into the second: both match the serial oracle.
            assert pids[0] == pids[1]
            assert reports == [reference, reference]

            probe = client.submit("probe", {"duration_s": 5.0})
            assert running_pid(client, probe) == pids[0]
            client.drain()
            proc.wait(timeout=60)
            assert proc.returncode == 3
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # Aborted, not terminal: the next epoch resumes the probe.
        raw = (journal_dir / "serve.jsonl").read_bytes()
        assert probe.encode() not in b"".join(
            line for line in raw.splitlines() if b'"type":"job_done"' in line
        )
        proc2 = start_serve(journal_dir)
        try:
            host, port = read_endpoint(journal_dir, timeout_s=20, min_epoch=2)
            client2 = ServeClient(host, port)
            assert client2.status()["counters"]["resumed_jobs"] == 1
            assert client2.wait(probe, timeout_s=120) == "done"
            client2.drain()
            proc2.wait(timeout=60)
            assert proc2.returncode == 3
        finally:
            if proc2.poll() is None:
                proc2.kill()
                proc2.wait()


class TestStartupFailure:
    def test_busy_port_exits_instead_of_hanging_on_its_workers(
        self, tmp_path
    ):
        # The pool starts before the listener binds; a bind failure must
        # still stop the (non-daemonic) workers so the process can exit.
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            proc = start_serve(tmp_path / "serve", "--workers", "2",
                               "--port", str(port))
            try:
                proc.wait(timeout=30)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        assert proc.returncode not in (0, 3, None)
        assert b"address already in use" in proc.stderr.read().lower()
