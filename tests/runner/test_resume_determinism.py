"""Satellite: kill the runner mid-campaign, resume, merge byte-identically.

The acceptance scenario of the resilient runner: a parallel campaign that
loses a worker to an injected crash *and* is interrupted partway through
must, after resuming from its journal, produce a merged report that is
byte-for-byte identical to an uninterrupted serial run.
"""

import json

import pytest

from repro.errors import RunnerInterrupted
from repro.faults import run_check, run_check_parallel
from repro.faults.report import check_report
from repro.runner import RunnerConfig
from repro.runner.chaos import KILL_MARKER_ENV, KILL_POINT_ENV

KERNELS = ("DotProduct", "MatrixTranspose")
FAULTS = 10
SEED = 7


def report_bytes(result) -> bytes:
    return json.dumps(check_report(result), sort_keys=True).encode()


@pytest.fixture(scope="module")
def serial_bytes():
    result = run_check(kernels=KERNELS, faults=FAULTS, seed=SEED, fast=True)
    return report_bytes(result)


class TestResumeDeterminism:
    def test_parallel_matches_serial(self, serial_bytes):
        result, runner = run_check_parallel(
            kernels=KERNELS, faults=FAULTS, seed=SEED, fast=True, jobs=2,
        )
        assert report_bytes(result) == serial_bytes
        assert runner.stats.failed == 0

    def test_crash_interrupt_resume_is_byte_identical(
        self, serial_bytes, tmp_path, monkeypatch
    ):
        journal = tmp_path / "campaign.jsonl"
        # A worker dies the moment it picks up injection 3 (once), and the
        # run is interrupted after 6 terminal tasks — both on the same run.
        monkeypatch.setenv(KILL_POINT_ENV, "task:inject:3")
        monkeypatch.setenv(KILL_MARKER_ENV, str(tmp_path / "crashed"))
        config = RunnerConfig(jobs=2, interrupt_after=6, poll_s=0.02,
                              heartbeat_s=0.05)
        with pytest.raises(RunnerInterrupted):
            run_check_parallel(
                kernels=KERNELS, faults=FAULTS, seed=SEED, fast=True,
                jobs=2, journal_path=journal, runner_config=config,
            )
        assert journal.exists()

        # Resume: no crash injection this time, no interruption budget.
        monkeypatch.delenv(KILL_POINT_ENV)
        result, runner = run_check_parallel(
            kernels=KERNELS, faults=FAULTS, seed=SEED, fast=True, jobs=2,
            journal_path=journal,
        )
        assert report_bytes(result) == serial_bytes
        # The resumed run actually reused journalled work.
        assert runner.stats.cached > 0
        # No lost tasks: every injection index present exactly once.
        assert [r["index"] for r in result.injections] == list(range(FAULTS))

    def test_interrupt_flushes_a_loadable_journal(self, tmp_path):
        from repro.runner import load_journal

        journal = tmp_path / "campaign.jsonl"
        config = RunnerConfig(jobs=1, interrupt_after=3)
        with pytest.raises(RunnerInterrupted):
            run_check_parallel(
                kernels=KERNELS, faults=FAULTS, seed=SEED, fast=True,
                jobs=1, journal_path=journal, runner_config=config,
            )
        load = load_journal(journal)
        assert not load.truncated
        assert load.header["fingerprint"]["verb"] == "check"
        done = [r for r in load.records if r.get("type") == "done"]
        assert len(done) == 3
