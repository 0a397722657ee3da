"""fault-campaign: ``repro check --jobs 2 --fast`` campaigns over all kernels.

Each job is one ``run_check_parallel`` on a two-worker pool with a fresh
resume journal.  This path exercises pool start and dispatch, journal
fsync, the fault injector and DEGRADE-mode machines with subscribers, so
it is where the runner shows; a faster warm simulator core helps it
little, because its machines carry fault subscribers.  Every report
must be byte-identical to the serial ``run_check`` report for the same
campaign seed, computed before timing starts.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

from harness import CheckFailed, Job, Outcome, Workload

#: Injections per campaign (one per kernel).
FAULTS = 14

#: Campaign seeds, one job each per pass.  The set is fixed so every run
#: does the same work; the benchmark seed picks where the cycle starts.
CAMPAIGN_SEEDS = (11, 22, 33)

#: What ``repro check`` imports before its first task.
IMPORTS = "import repro.cli, repro.faults.parallel, repro.faults.report, repro.runner"


def render(result) -> str:
    """The report bytes ``repro check --json`` writes."""
    from repro.faults.report import check_report

    return json.dumps(check_report(result), indent=2, default=str) + "\n"


def report_cycles(report: dict) -> int:
    """Simulated cycles in a campaign report: clean runs plus injections."""
    data = report["data"]
    clean = sum(variant["cycles"] for entry in data["clean"]["results"]
                for variant in entry["variants"].values())
    return clean + sum(record["cycles"] or 0
                       for record in data.get("injections", []))


def report_signature(report: dict) -> tuple:
    summary = report["data"]["summary"]
    return (report_cycles(report), json.dumps(summary, sort_keys=True))


def fresh_import(root, imports: str) -> None:
    """A fresh interpreter importing what a CLI command needs first."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, "-c", imports], cwd=root, check=True,
                   env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


class FaultCampaign(Workload):
    name = "fault-campaign"
    sim_from = "reference"
    layer_names = ("faults.outcome.masked", "faults.outcome.detected",
                   "faults.outcome.silent", "runner.retries",
                   "runner.timeouts", "runner.crashes",
                   "runner.speedup_vs_serial")

    def __init__(self, root, seed, workdir) -> None:
        super().__init__(root, seed, workdir)
        shift = seed % len(CAMPAIGN_SEEDS)
        self.seeds = CAMPAIGN_SEEDS[shift:] + CAMPAIGN_SEEDS[:shift]
        self.expected: dict[int, str] = {}
        self.serial_s: dict[int, float] = {}
        self._journals = 0

    def setup(self) -> None:
        fresh_import(self.root, IMPORTS)

    def prepare(self) -> None:
        from repro.faults import run_check

        for seed in self.seeds:
            started = time.perf_counter()
            result = run_check(faults=FAULTS, seed=seed, fast=True)
            self.serial_s[seed] = time.perf_counter() - started
            self.expected[seed] = render(result)

    def pass_jobs(self) -> list[Job]:
        return [Job(f"seed{seed}", lambda s=seed: self._run(s),
                    lambda out, s=seed: self._check(out, s))
                for seed in self.seeds]

    def _run(self, seed: int):
        from repro.faults import run_check_parallel

        self._journals += 1
        journal = self.workdir / f"campaign-{self._journals}.jsonl"
        started = time.perf_counter()
        result, runner = run_check_parallel(
            faults=FAULTS, seed=seed, fast=True, jobs=2, journal_path=journal)
        elapsed = time.perf_counter() - started
        journal.unlink()
        return render(result), runner, elapsed

    def _check(self, output, seed: int) -> Outcome:
        text, runner, elapsed = output
        if text != self.expected[seed]:
            raise CheckFailed(f"campaign seed {seed}: parallel report differs "
                              "from the serial report")
        if runner.fallback_reason is not None:
            raise CheckFailed(f"pool did not start: {runner.fallback_reason}")
        report = json.loads(text)
        return Outcome(report_cycles(report), report_signature(report),
                       extra=(seed, runner.stats, elapsed))

    def layer_metrics(self, segment) -> dict[str, float]:
        out: dict[str, float] = {}
        for outcome in ("masked", "detected", "silent"):
            out[f"faults.outcome.{outcome}"] = sum(
                json.loads(self.expected[seed])["data"]["summary"]["outcomes"]
                [outcome] for seed in self.seeds)
        done = [r.outcome.extra for r in segment.records if r.outcome]
        for key in ("retries", "timeouts", "crashes"):
            out[f"runner.{key}"] = sum(getattr(stats, key)
                                       for _, stats, _ in done)
        out["runner.speedup_vs_serial"] = statistics.median(
            self.serial_s[seed] / elapsed for seed, _, elapsed in done)
        return out
