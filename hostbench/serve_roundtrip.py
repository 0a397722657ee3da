"""serve-roundtrip: submit, wait and fetch against a live ``repro serve``.

One ``repro serve --workers 1 --jobs 1`` subprocess per run; each job
submits the runner-smoke ``check`` campaign (the one CI compares against
``baselines/runner-smoke.json``), polls its state every few milliseconds
and fetches the report.  About half of a round trip is HTTP, the
fsync before the acknowledgement, the job child's fork and supervisor
ticks, so this workload isolates ``repro.serve``; simulator gains show
here at half their table-sweep size or less.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from fault_campaign import render, report_cycles, report_signature
from harness import CheckFailed, Job, Outcome, Workload

#: The runner-smoke campaign (same parameters as the committed baseline).
CAMPAIGN = {"kernels": ["DotProduct", "MatrixTranspose"], "faults": 12,
            "seed": 7, "fast": True}

#: Client poll interval, well under the server's 50 ms supervisor tick.
POLL_S = 0.005

#: Boot poll interval for ``endpoint.json`` and the first ping.
BOOT_POLL_S = 0.002

BOOT_TIMEOUT_S = 60.0


class Server:
    """One ``repro serve`` subprocess and a client bound to it."""

    def __init__(self, root, journal_dir) -> None:
        from repro.errors import ServeError
        from repro.serve import ServeClient

        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--journal-dir", str(journal_dir), "--workers", "1", "--jobs", "1"],
            cwd=root, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        endpoint = journal_dir / "endpoint.json"
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            try:
                doc = json.loads(endpoint.read_text())
                self.client = ServeClient(doc["host"], int(doc["port"]))
                self.client.ping()
                return
            except (OSError, ValueError, KeyError, ServeError):
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError("repro serve did not come up")
                time.sleep(BOOT_POLL_S)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        """Drain the server and wait for it; kill it if it will not stop."""
        if self.proc.poll() is None:
            try:
                self.client.drain()
                self.proc.wait(timeout=30)
            except Exception:
                self.proc.kill()
                self.proc.wait()


class ServeRoundtrip(Workload):
    name = "serve-roundtrip"
    sim_from = "reference"
    layer_names = ("serve.boot_s", "serve.submit_ms", "serve.queue_wait_ms",
                   "serve.report_fetch_ms", "serve.exec_ms",
                   "serve.overhead_ms", "serve.rejected", "serve.requeued",
                   "serve.degraded")

    def __init__(self, root, seed, workdir) -> None:
        super().__init__(root, seed, workdir)
        self.server: Server | None = None
        self.expected = b""
        self._events_seq = 0

    def discard(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def setup(self) -> None:
        journal_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=self.workdir))
        with self.span("serve.boot"):
            self.server = Server(self.root, journal_dir)

    def prepare(self) -> None:
        from repro.faults import run_check

        self.expected = render(run_check(
            kernels=tuple(CAMPAIGN["kernels"]), faults=CAMPAIGN["faults"],
            seed=CAMPAIGN["seed"], fast=CAMPAIGN["fast"])).encode()

    def pass_jobs(self) -> list[Job]:
        return [Job("check", self._run, self._check)]

    def _run(self):
        client = self.server.client
        with self.span("serve.submit"):
            job = client.submit("check", CAMPAIGN)
        with self.span("serve.queue_wait"):
            state = self._wait(job, ("running", "done", "failed"))
        with self.span("serve.run_wait"):
            state = self._wait(job, ("done", "failed"))
        with self.span("serve.report_fetch"):
            body = client.report_bytes(job) if state == "done" else b""
        return job, state, body

    def _wait(self, job: str, states: tuple[str, ...]) -> str:
        deadline = time.monotonic() + 120
        while True:
            state = self.server.client.job(job)["state"]
            if state in states:
                return state
            if time.monotonic() > deadline:
                raise CheckFailed(f"{job} still {state} after 120 s")
            time.sleep(POLL_S)

    def _check(self, output) -> Outcome:
        job, state, body = output
        if state != "done":
            raise CheckFailed(f"{job} ended {state}")
        if body != self.expected:
            raise CheckFailed(f"{job}: report differs from the serial report")
        report = json.loads(body)
        exec_s = None
        if self.tracer is not None:
            events = self.server.client.events("job_done", since=self._events_seq)
            for event in events:
                self._events_seq = max(self._events_seq, event["seq"])
                if event["job"] == job:
                    exec_s = event["duration_s"]
        return Outcome(report_cycles(report), report_signature(report),
                       extra=exec_s)

    def layer_metrics(self, segment) -> dict[str, float]:
        tracer = self.tracer
        out: dict[str, float] = {}
        boot, boots = tracer.self_sum("serve.boot")
        out["serve.boot_s"] = boot / boots
        jobs = len(segment.records)
        for phase in ("submit", "queue_wait", "report_fetch"):
            total, _ = tracer.self_sum(f"serve.{phase}")
            out[f"serve.{phase}_ms"] = total / jobs * 1e3
        pairs = [(r.raw_s, r.outcome.extra) for r in segment.records
                 if r.outcome and r.outcome.extra is not None]
        out["serve.exec_ms"] = statistics.mean(e for _, e in pairs) * 1e3
        out["serve.overhead_ms"] = statistics.mean(w - e for w, e in pairs) * 1e3
        counters = self.server.client.status()["counters"]
        for key in ("rejected", "requeued", "degraded"):
            out[f"serve.{key}"] = counters[key]
        return out

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
