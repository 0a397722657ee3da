"""End-to-end service behaviour over real sockets and processes.

Covers the serve API surface (ping/submit/status/report/events), admission
control under overload (429 + ``Retry-After`` + bounded state), and the
graceful-drain contract (exit 3, in-flight work journalled, queued work
preserved and resumed by the next epoch).
"""

import json
import os
import time

import pytest

from repro.errors import ServeRejected
from repro.serve import ServeClient, read_endpoint
from tests.serve.harness import (
    CHECK_PARAMS,
    LONG_CHECK_PARAMS,
    serial_report_bytes,
    start_serve,
)


@pytest.fixture
def serve(tmp_path):
    """A running service on an ephemeral port; drained at teardown."""
    journal_dir = tmp_path / "serve"
    proc = start_serve(journal_dir)
    host, port = read_endpoint(journal_dir, timeout_s=20)
    client = ServeClient(host, port)
    yield journal_dir, client, proc
    if proc.poll() is None:
        try:
            client.drain()
            proc.wait(timeout=60)
        except Exception:  # noqa: BLE001 - teardown best effort
            proc.kill()
            proc.wait()


class TestApi:
    def test_ping_and_status(self, serve):
        _journal_dir, client, _proc = serve
        ping = client.ping()
        assert ping["ok"] is True
        assert ping["epoch"] == 1
        status = client.status()
        assert status["draining"] is False
        assert status["counters"]["submitted"] == 0

    def test_check_job_report_matches_cli_bytes(self, serve, tmp_path):
        _journal_dir, client, _proc = serve
        job = client.submit("check", CHECK_PARAMS)
        assert client.wait(job, timeout_s=120) == "done"
        assert client.report_bytes(job) == serial_report_bytes(
            tmp_path, CHECK_PARAMS
        )
        doc = json.loads(client.report_bytes(job))
        assert doc["kind"] == "fault-campaign"

    def test_runner_doc_carries_serve_counters(self, serve):
        _journal_dir, client, _proc = serve
        job = client.submit("check", CHECK_PARAMS)
        client.wait(job, timeout_s=120)
        doc = client.runner_doc(job)
        assert doc["schema"] == "repro.runner/1"
        data = doc["data"]
        assert data["journal"]["resumed"] is False
        assert data["journal"]["corrupt_records_skipped"] == 0
        assert data["serve"]["submitted"] == 1
        assert data["serve"]["epoch"] == 1
        assert data["serve"]["queue_high_water"] >= 1

    def test_profile_job(self, serve):
        _journal_dir, client, _proc = serve
        job = client.submit("profile", {"kernel": "DotProduct"})
        assert client.wait(job, timeout_s=120) == "done"
        doc = json.loads(client.report_bytes(job))
        assert doc["kind"] == "kernel-profile"
        assert doc["data"]["kernel"] == "DotProduct"

    def test_events_stream(self, serve):
        _journal_dir, client, _proc = serve
        job = client.submit("check", CHECK_PARAMS)
        client.wait(job, timeout_s=120)
        topics = [event["topic"] for event in client.events()]
        assert topics[:3] == ["job_submitted", "job_started", "job_done"]
        done = client.events(topic="job_done")
        assert [e["job"] for e in done] == [job]
        # since= pagination: everything already seen is excluded.
        assert client.events(since=done[-1]["seq"]) == []

    def test_unknown_event_topic_is_a_400(self, serve):
        from repro.serve.app import EVENT_TOPICS

        _journal_dir, client, _proc = serve
        status, _headers, raw = client._request("GET",
                                                "/v1/events?topic=jobs_done")
        assert status == 400
        error = json.loads(raw)["data"]["error"]
        assert "'jobs_done'" in error
        assert all(topic in error for topic in EVENT_TOPICS)
        assert client.events(topic="job_done") == []

    def test_unknown_job_and_bad_requests(self, serve):
        from repro.errors import ServeError

        _journal_dir, client, _proc = serve
        with pytest.raises(ServeError):
            client.job("job-999999")
        with pytest.raises(ServeError):
            client.submit("frobnicate", {})


class TestAdmissionControl:
    def test_overload_gets_429_with_retry_after(self, serve):
        journal_dir, client, _proc = serve
        first = client.submit("check", LONG_CHECK_PARAMS)
        # Wait until the worker picks it up, so the queue bound applies to
        # genuinely queued jobs behind a busy worker.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if client.job(first)["state"] == "running":
                break
            time.sleep(0.02)
        queued = []
        rejected = None
        for _ in range(12):  # default --queue-depth is 8
            try:
                queued.append(client.submit("check", LONG_CHECK_PARAMS))
            except ServeRejected as exc:
                rejected = exc
                break
        assert rejected is not None, "queue bound never enforced"
        assert rejected.reason == "queue_full"
        assert rejected.retry_after_s >= 1.0
        status = client.status()
        assert status["counters"]["rejected"] >= 1
        # Bounded state: journalled admissions == accepted submissions only.
        admitted = [
            line for line in
            (journal_dir / "serve.jsonl").read_bytes().splitlines()
            if b'"type":"job"' in line
        ]
        assert len(admitted) == 1 + len(queued)
        rejects = client.events(topic="job_rejected")
        assert rejects and rejects[-1]["reason"] == "queue_full"


class TestGracefulDrain:
    def test_drain_exits_3_preserving_all_work(self, serve, tmp_path):
        journal_dir, client, proc = serve
        running = client.submit("check", LONG_CHECK_PARAMS)
        queued = client.submit("check", CHECK_PARAMS)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if client.job(running)["state"] == "running":
                break
            time.sleep(0.02)
        job_journal = journal_dir / "jobs" / f"{running}.journal.jsonl"
        while time.monotonic() < deadline:
            if job_journal.exists() and len(job_journal.read_bytes().splitlines()) >= 4:
                break
            time.sleep(0.02)

        drain = client.drain()
        assert drain["draining"] is True
        proc.wait(timeout=60)
        assert proc.returncode == 3

        # Submissions during a drain would have been 429 "draining"; after
        # exit the socket is gone entirely — state on disk is what counts:
        # neither job got a terminal record, both must resume.
        raw = (journal_dir / "serve.jsonl").read_bytes()
        assert b'"type":"job_done"' not in raw
        # The aborted campaign flushed a loadable journal.
        from repro.runner import load_journal

        load = load_journal(job_journal)
        assert not load.truncated
        assert load.corrupt == 0
        # Open spans exported as aborted for the interrupted job.
        spans_file = journal_dir / "jobs" / f"{running}.spans.1.jsonl"
        assert spans_file.exists()
        spans = [json.loads(line) for line in spans_file.open()][1:]
        root = next(s for s in spans if s["name"].startswith("serve:job"))
        assert root["status"]["code"] == "STATUS_CODE_ERROR"

        # Epoch 2 recovers both jobs and finishes them byte-identically.
        proc2 = start_serve(journal_dir)
        try:
            host, port = read_endpoint(journal_dir, timeout_s=20, min_epoch=2)
            client2 = ServeClient(host, port)
            assert client2.status()["counters"]["resumed_jobs"] == 2
            assert client2.wait(running, timeout_s=300) == "done"
            assert client2.wait(queued, timeout_s=300) == "done"
            assert client2.report_bytes(running) == serial_report_bytes(
                tmp_path, LONG_CHECK_PARAMS
            )
            resumed_doc = client2.runner_doc(running)["data"]
            assert resumed_doc["journal"]["resumed"] is True
            assert resumed_doc["journal"]["resumed_tasks"] > 0
            client2.drain()
            proc2.wait(timeout=60)
            assert proc2.returncode == 3
        finally:
            if proc2.poll() is None:
                proc2.kill()
                proc2.wait()

    def test_sigterm_drains_like_the_endpoint(self, serve):
        import signal as signal_module

        journal_dir, client, proc = serve
        client.submit("check", CHECK_PARAMS)
        proc.send_signal(signal_module.SIGTERM)
        proc.wait(timeout=60)
        assert proc.returncode == 3
        # The journal survived the drain intact.
        from repro.runner import load_journal

        load = load_journal(journal_dir / "serve.jsonl")
        assert not load.truncated
        assert load.header["fingerprint"] == {"verb": "serve"}


class TestMultiWorker:
    """Genuine concurrency: --workers M jobs run at the same time."""

    def test_probe_jobs_overlap_on_two_workers(self, tmp_path):
        journal_dir = tmp_path / "serve"
        proc = start_serve(journal_dir, "--workers", "2")
        try:
            host, port = read_endpoint(journal_dir, timeout_s=20)
            client = ServeClient(host, port)
            started = time.monotonic()
            jobs = [client.submit("probe", {"duration_s": 0.8})
                    for _ in range(2)]
            for job in jobs:
                assert client.wait(job, timeout_s=30) == "done"
            wall = time.monotonic() - started
            # Two 0.8s sleeps serially take >= 1.6s; overlapped they fit
            # well under that even with dispatch overhead.
            assert wall < 1.45, f"probes did not overlap (wall {wall:.2f}s)"
            client.drain()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_status_surfaces_workers_queues_and_journal(self, tmp_path):
        journal_dir = tmp_path / "serve"
        proc = start_serve(journal_dir, "--workers", "2", "--jobs", "2",
                           "--tenant-weight", "vip=3", "--max-inflight", "2")
        try:
            host, port = read_endpoint(journal_dir, timeout_s=20)
            client = ServeClient(host, port)
            job = client.submit("probe", {"duration_s": 1.0}, tenant="vip")
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                status = client.status()
                if status["workers"]["busy"] >= 1:
                    break
                time.sleep(0.02)
            assert status["workers"]["configured"] == 2
            assert status["workers"]["jobs_per_campaign"] == 2
            assert status["workers"]["max_inflight"] == 2
            running = {entry["job"]: entry for entry in status["running"]}
            assert running[job]["tenant"] == "vip"
            assert running[job]["attempt"] == 1
            assert running[job]["pid"] is None or running[job]["pid"] > 0
            assert status["queues"]["vip"]["weight"] == 3
            assert status["queues"]["vip"]["inflight"] == 1
            assert status["journal"]["records"] >= 2
            assert status["events"]["dropped"] == 0
            assert client.wait(job, timeout_s=30) == "done"
            client.drain()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestEventsRing:
    def test_ring_drops_are_surfaced_not_silent(self, tmp_path):
        # In-process: overflow the ring without paying for 1000 HTTP jobs.
        from repro.obs.events import JobSubmittedEvent
        from repro.serve.app import EVENT_RING, ServeApp
        from repro.serve.http import Request

        app = ServeApp(tmp_path / "ring")
        try:
            for n in range(EVENT_RING + 25):
                app._record("job_submitted", JobSubmittedEvent(
                    job=f"job-{n:06d}", tenant="t", verb="probe", depth=1,
                ))
            status = app._status()
            assert status["events"]["dropped"] == 25
            assert status["events"]["oldest_seq"] == 26
            raw = app._events_body(Request(method="GET", path="/v1/events"))
            head = raw.split(b"\r\n\r\n", 1)[0].decode("latin-1")
            assert "X-Repro-Events-Dropped: 25" in head
            assert "X-Repro-Events-Oldest-Seq: 26" in head
        finally:
            app.store.close()


class TestSubmitRetry:
    def test_retries_honor_retry_after_with_cap_and_jitter(self, monkeypatch):
        import random

        from repro.serve import SubmitRetry
        from repro.serve.client import ServeClient

        client = ServeClient("127.0.0.1", 1)
        rejections = [ServeRejected("queue_full", 12.0),
                      ServeRejected("queue_full", 2.0)]

        def fake_json(method, path, payload=None):
            if rejections:
                raise rejections.pop(0)
            return {"data": {"job": "job-000042"}}

        sleeps = []
        monkeypatch.setattr(client, "_json", fake_json)
        monkeypatch.setattr("repro.serve.client.time.sleep", sleeps.append)
        policy = SubmitRetry(budget_s=30.0, max_attempts=6,
                             cap_s=5.0, jitter=0.25)
        job = client.submit("probe", {}, retry=policy,
                            rng=random.Random(7))
        assert job == "job-000042"
        assert len(sleeps) == 2
        # First hint (12s) is capped at 5s, then jittered within +-25%.
        assert 5.0 * 0.75 <= sleeps[0] <= 5.0 * 1.25
        assert 2.0 * 0.75 <= sleeps[1] <= 2.0 * 1.25

    def test_attempt_budget_reraises_last_rejection(self, monkeypatch):
        from repro.serve import SubmitRetry
        from repro.serve.client import ServeClient

        client = ServeClient("127.0.0.1", 1)

        def always_reject(method, path, payload=None):
            raise ServeRejected("queue_full", 0.01)

        monkeypatch.setattr(client, "_json", always_reject)
        monkeypatch.setattr("repro.serve.client.time.sleep", lambda _s: None)
        with pytest.raises(ServeRejected) as info:
            client.submit("probe", {},
                          retry=SubmitRetry(max_attempts=3, budget_s=30.0))
        assert info.value.reason == "queue_full"

    def test_wall_clock_budget_stops_retrying(self, monkeypatch):
        from repro.serve import SubmitRetry
        from repro.serve.client import ServeClient

        client = ServeClient("127.0.0.1", 1)

        def always_reject(method, path, payload=None):
            raise ServeRejected("queue_full", 60.0)

        monkeypatch.setattr(client, "_json", always_reject)
        slept = []
        monkeypatch.setattr("repro.serve.client.time.sleep", slept.append)
        # Budget smaller than any capped delay: one attempt, no sleeps.
        with pytest.raises(ServeRejected):
            client.submit("probe", {},
                          retry=SubmitRetry(budget_s=0.5, max_attempts=10,
                                            cap_s=5.0, jitter=0.0))
        assert slept == []
