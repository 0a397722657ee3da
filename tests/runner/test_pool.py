"""Runner orchestration: pool execution, retries, crashes, hangs, breaker.

Uses the built-in ``probe`` executor (:func:`repro.runner.tasks.run_probe`)
so every failure mode is injected deterministically — transient failures via
a shared marker file, crashes via ``os._exit``, hangs via ``SIGSTOP``.
"""

import pytest

from repro.obs import EventBus
from repro.runner import (
    Runner,
    RunnerConfig,
    RetryPolicy,
    probe_task,
    runner_report,
)
from repro.runner.pool import PoolStartError, WorkerPool, worker_verdict


def collect(bus: EventBus) -> dict[str, list]:
    """Subscribe to every runner topic, returning the per-topic capture."""
    seen: dict[str, list] = {}
    for topic in ("task_start", "task_retry", "task_timeout", "breaker_open",
                  "task_done"):
        seen[topic] = []
        bus.subscribe(topic, seen[topic].append)
    return seen


def fast_retry(max_attempts: int = 3) -> RetryPolicy:
    return RetryPolicy(max_attempts=max_attempts, base_delay_s=0.01,
                       max_delay_s=0.05)


class TestPooledExecution:
    def test_all_tasks_reach_ok(self):
        bus = EventBus()
        seen = collect(bus)
        runner = Runner(RunnerConfig(jobs=2, retry=fast_retry()), bus=bus)
        tasks = [probe_task(f"t{i}", result={"i": i}) for i in range(6)]
        results = runner.run(tasks)
        assert len(results) == 6
        assert all(r.ok for r in results.values())
        assert {r.result["echo"]["i"] for r in results.values()} == set(range(6))
        assert runner.stats.ok == 6
        assert len(seen["task_done"]) == 6
        assert len(seen["task_start"]) == 6

    def test_tasks_actually_ran_in_workers(self):
        import os

        runner = Runner(RunnerConfig(jobs=2, retry=fast_retry()))
        results = runner.run([probe_task(f"t{i}") for i in range(4)])
        pids = {r.result["pid"] for r in results.values()}
        assert os.getpid() not in pids

    def test_transient_failure_is_retried_to_success(self, tmp_path):
        bus = EventBus()
        seen = collect(bus)
        runner = Runner(RunnerConfig(jobs=2, retry=fast_retry()), bus=bus)
        marker = tmp_path / "flaky"
        results = runner.run([
            probe_task("flaky", fail_marker=str(marker), fail_times=1),
        ])
        assert results["flaky"].ok
        assert results["flaky"].attempts == 2
        assert runner.stats.retries == 1
        assert [e.reason for e in seen["task_retry"]] == ["error"]

    def test_worker_crash_is_retried_on_a_fresh_worker(self, tmp_path,
                                                       monkeypatch):
        from repro.runner.chaos import KILL_MARKER_ENV, KILL_POINT_ENV

        # The first worker to pick up "victim" dies before executing it;
        # the marker file arms the retry to proceed normally.
        monkeypatch.setenv(KILL_POINT_ENV, "task:victim")
        monkeypatch.setenv(KILL_MARKER_ENV, str(tmp_path / "crashed"))
        runner = Runner(RunnerConfig(jobs=2, retry=fast_retry(),
                                     poll_s=0.02, heartbeat_s=0.05))
        results = runner.run([probe_task("victim"), probe_task("bystander")])
        assert all(r.ok for r in results.values())
        assert results["victim"].attempts == 2
        assert runner.stats.crashes == 1
        assert (tmp_path / "crashed").exists()

    def test_hard_crash_exhausts_retries_to_failed(self):
        runner = Runner(RunnerConfig(jobs=2, retry=fast_retry(2),
                                     hang_timeout_s=10.0))
        results = runner.run([probe_task("die", crash=7)])
        result = results["die"]
        assert result.status == "failed"
        assert result.attempts == 2
        assert "crash" in result.failure
        assert runner.stats.crashes == 2

    def test_persistent_error_fails_after_max_attempts(self):
        runner = Runner(RunnerConfig(jobs=2, retry=fast_retry(3)))
        results = runner.run([probe_task("bad", fail="always broken")])
        result = results["bad"]
        assert result.status == "failed"
        assert result.attempts == 3
        assert "always broken" in result.failure
        assert runner.stats.errors == 3

    def test_wall_clock_timeout_kills_and_fails(self):
        bus = EventBus()
        seen = collect(bus)
        runner = Runner(
            RunnerConfig(jobs=2, retry=fast_retry(1), poll_s=0.02,
                         heartbeat_s=0.05, hang_timeout_s=30.0),
            bus=bus,
        )
        results = runner.run([
            probe_task("slow", timeout_s=0.3, sleep_s=30.0),
        ])
        assert results["slow"].status == "failed"
        assert results["slow"].failure.startswith("timeout")
        assert runner.stats.timeouts == 1
        assert [e.kind for e in seen["task_timeout"]] == ["timeout"]

    def test_frozen_worker_is_detected_as_hung(self):
        bus = EventBus()
        seen = collect(bus)
        runner = Runner(
            RunnerConfig(jobs=2, retry=fast_retry(1), poll_s=0.02,
                         heartbeat_s=0.05, hang_timeout_s=0.4),
            bus=bus,
        )
        results = runner.run([probe_task("frozen", freeze=True)])
        assert results["frozen"].status == "failed"
        assert results["frozen"].failure.startswith("hang")
        assert runner.stats.hangs == 1
        assert [e.kind for e in seen["task_timeout"]] == ["hang"]

    def test_breaker_opens_and_skips_the_rest_of_the_slice(self):
        bus = EventBus()
        seen = collect(bus)
        runner = Runner(
            RunnerConfig(jobs=2, retry=fast_retry(1), breaker_threshold=2),
            bus=bus,
        )
        tasks = [probe_task(f"s{i}", slice="kern/D", fail="nope")
                 for i in range(5)]
        tasks.append(probe_task("other", slice="fine/D"))
        results = runner.run(tasks)
        statuses = [results[f"s{i}"].status for i in range(5)]
        # Two failures trip the breaker; tasks already in flight on the
        # second worker may still fail, but everything not yet dispatched
        # is recorded skipped — and nothing is lost.
        assert statuses.count("failed") >= 2
        assert statuses.count("skipped") >= 1
        assert statuses.count("failed") + statuses.count("skipped") == 5
        assert results["other"].ok  # other slices unaffected
        assert runner.stats.breaker_trips == 1
        assert len(seen["breaker_open"]) == 1
        assert seen["breaker_open"][0].slice == "kern/D"
        assert runner.breaker.open_slices == ("kern/D",)


class TestSerialPath:
    def test_jobs_1_runs_in_process(self):
        import os

        runner = Runner(RunnerConfig(jobs=1))
        results = runner.run([probe_task("t0")])
        assert results["t0"].result["pid"] == os.getpid()
        assert runner.fallback_reason is None

    def test_pool_start_failure_falls_back_to_serial(self, monkeypatch):
        from repro.runner import service

        def refuse(self):
            raise PoolStartError("no processes today")

        monkeypatch.setattr(service.WorkerPool, "start", refuse)
        runner = Runner(RunnerConfig(jobs=4))
        results = runner.run([probe_task("t0")])
        assert results["t0"].ok
        assert runner.fallback_reason == "no processes today"

    def test_serial_retries_and_breaker_match_pool_semantics(self, tmp_path):
        runner = Runner(RunnerConfig(jobs=1, retry=fast_retry(),
                                     breaker_threshold=1))
        marker = tmp_path / "flaky"
        results = runner.run([
            probe_task("flaky", fail_marker=str(marker), fail_times=1),
            probe_task("bad", slice="k/D", fail="broken"),
            probe_task("skipped", slice="k/D"),
        ])
        assert results["flaky"].ok and results["flaky"].attempts == 2
        assert results["bad"].status == "failed"
        assert results["skipped"].status == "skipped"


class TestRunnerReport:
    def test_report_covers_every_task(self):
        runner = Runner(RunnerConfig(jobs=1, retry=fast_retry(1),
                                     breaker_threshold=1))
        runner.run([probe_task("a"), probe_task("b", slice="k/D",
                                                fail="broken")])
        report = runner_report(runner)
        assert report["kind"] == "runner"
        assert report["schema"] == "repro.runner/1"
        body = report["data"]
        assert [t["task"] for t in body["tasks"]] == ["a", "b"]
        assert body["stats"]["ok"] == 1
        assert body["stats"]["failed"] == 1
        assert body["breaker"]["open_slices"] == ["k/D"]


class FakeHandle:
    """Just what :func:`worker_verdict` reads off a worker handle."""

    def __init__(self, alive=True, dispatched_at=0.0, last_beat=0.0):
        self.alive = alive
        self.dispatched_at = dispatched_at
        self.last_beat = last_beat


class TestWorkerVerdict:
    """The one crash/timeout/hang judgement shared by the runner and serve,
    on a fake handle and clock."""

    def test_healthy_worker_has_no_verdict(self):
        handle = FakeHandle(dispatched_at=0.0, last_beat=9.0)
        assert worker_verdict(handle, 10.0, 30.0, 5.0) is None

    def test_dead_worker_is_a_crash_ahead_of_timeout_and_hang(self):
        handle = FakeHandle(alive=False, dispatched_at=0.0, last_beat=0.0)
        assert worker_verdict(handle, 100.0, 1.0, 1.0) == "crash"

    def test_timeout_comes_ahead_of_hang(self):
        handle = FakeHandle(dispatched_at=0.0, last_beat=0.0)
        assert worker_verdict(handle, 100.0, 1.0, 1.0) == "timeout"
        assert worker_verdict(handle, 100.0, 200.0, 1.0) == "hang"

    def test_no_budget_means_heartbeat_only_supervision(self):
        beating = FakeHandle(dispatched_at=0.0, last_beat=999.0)
        assert worker_verdict(beating, 1000.0, None, 5.0) is None
        silent = FakeHandle(dispatched_at=0.0, last_beat=990.0)
        assert worker_verdict(silent, 1000.0, None, 5.0) == "hang"


class TestForkFailure:
    def test_failed_respawn_parks_the_slot_and_the_next_sweep_retries(self):
        import time

        pool = WorkerPool(1, heartbeat_s=0.05)
        pool.start()
        try:
            [handle] = pool.workers
            task = probe_task("victim", sleep_s=30.0)
            pool.dispatch(handle, task, 1)
            handle.process.kill()
            handle.process.join(5.0)

            def no_fork(slot):
                raise OSError(11, "Resource temporarily unavailable")

            pool._spawn, real_spawn = no_fork, pool._spawn
            [(suspect, reason, detail)] = pool.sweep(time.monotonic(), 30.0)
            # The suspect still carries its attempt for the caller...
            assert (suspect.task, suspect.attempt, reason) == (task, 1,
                                                                 "crash")
            assert detail.startswith(f"worker {handle.worker_id} died")
            # ...while the slot holds the dead process, idle, undispatchable.
            [parked] = pool.workers
            assert parked.idle and not parked.alive
            assert pool.idle_workers() == []
            assert pool.sweep(time.monotonic(), 30.0) == []

            pool._spawn = real_spawn
            assert pool.sweep(time.monotonic(), 30.0) == []
            [fresh] = pool.workers
            assert fresh.alive and fresh.worker_id != handle.worker_id
            assert pool.idle_workers() == [fresh]
        finally:
            pool.stop()


class TestPoolGuards:
    def test_pool_requires_one_job(self):
        with pytest.raises(PoolStartError):
            WorkerPool(0)

    def test_duplicate_task_ids_rejected(self):
        from repro.errors import RunnerError

        runner = Runner(RunnerConfig(jobs=1))
        with pytest.raises(RunnerError, match="duplicate"):
            runner.run([probe_task("same"), probe_task("same")])

    def test_unknown_kind_fails_the_task(self):
        from repro.runner import TaskSpec

        runner = Runner(RunnerConfig(jobs=1, retry=fast_retry(1)))
        results = runner.run([TaskSpec(id="x", kind="no-such-kind")])
        assert results["x"].status == "failed"
        assert "unknown task kind" in results["x"].failure
