"""Campaign harness: classification, determinism, report schema, CLI."""

import json

import pytest

from repro.cli import main
from repro.faults import (
    OUTCOMES,
    classify_injection,
    run_check,
)
from repro.faults.report import check_report, render_check
from repro.obs import SCHEMA_VERSION


class FakeStats:
    def __init__(self, finished=True):
        self.finished = finished


class TestClassifyInjection:
    def test_escaped_exception_is_detected(self):
        outcome = classify_injection(None, RuntimeError("boom"), None, {})
        assert outcome == "detected"

    def test_fault_events_are_detected_even_with_good_output(self):
        outcome = classify_injection(FakeStats(), None, True, {"fault": 2})
        assert outcome == "detected"

    def test_fail_stop_is_detected(self):
        outcome = classify_injection(FakeStats(finished=False), None, None, {})
        assert outcome == "detected"

    def test_clean_finish_with_match_is_masked(self):
        outcome = classify_injection(FakeStats(), None, True, {"fault": 0})
        assert outcome == "masked"

    def test_clean_finish_with_mismatch_is_silent(self):
        outcome = classify_injection(FakeStats(), None, False, {})
        assert outcome == "silent"


KERNELS = ("DotProduct", "MatrixTranspose")


@pytest.fixture(scope="module")
def small_check():
    return run_check(kernels=KERNELS, faults=12, seed=7)


class TestRunCheck:
    def test_clean_differential_passes(self, small_check):
        assert small_check.clean_ok
        for entry in small_check.clean:
            for variant in ("mmx", "spu"):
                assert entry["variants"][variant]["match"]

    def test_every_injection_is_classified(self, small_check):
        assert len(small_check.injections) == 12
        for record in small_check.injections:
            assert record["outcome"] in OUTCOMES
            assert record["kernel"] in KERNELS
            assert record["fired"] is True
        counts = small_check.outcome_counts()
        assert sum(counts.values()) == 12

    def test_injections_round_robin_over_sorted_kernels(self, small_check):
        ordered = sorted(KERNELS)
        for record in small_check.injections:
            assert record["kernel"] == ordered[record["index"] % len(ordered)]

    def test_campaign_is_bit_identical_across_runs(self):
        again = run_check(kernels=KERNELS, faults=12, seed=7)
        a = json.dumps(check_report(again), sort_keys=True, default=str)
        b = json.dumps(
            check_report(run_check(kernels=KERNELS, faults=12, seed=7)),
            sort_keys=True, default=str,
        )
        assert a == b

    def test_different_seed_changes_the_campaign(self, small_check):
        other = run_check(kernels=KERNELS, faults=12, seed=8)
        ours = [r["spec"] for r in small_check.injections]
        theirs = [r["spec"] for r in other.injections]
        assert ours != theirs

    def test_clean_only_check_has_no_campaign(self):
        result = run_check(kernels=("DotProduct",))
        assert result.campaign is None
        assert result.injections == []
        assert result.clean_ok


def _injection(monkeypatch, kernel_name, spec=None, watchdog_cycles=None):
    """One DEGRADE :func:`run_one_injection` record, optionally with a fixed
    *spec* and a watchdog of *watchdog_cycles*."""
    import numpy as np

    from repro.faults import campaign as campaign_module
    from repro.faults.spec import FaultCampaign
    from repro.kernels import make_kernel

    kernel = make_kernel(kernel_name)
    clean = kernel.machine("spu").run()
    spu_clean = {"instructions": clean.instructions, "cycles": clean.cycles}
    watchdog = {}
    if watchdog_cycles is not None:
        spu_clean["cycles"] = watchdog_cycles
        watchdog = {"watchdog_factor": 1, "watchdog_slack": 0}
    if spec is not None:
        monkeypatch.setattr(campaign_module, "generate_spec",
                            lambda *args: spec)
    campaign = FaultCampaign(seed=0, faults=1, kinds=("register_bit",),
                             resilience="degrade", **watchdog)
    return campaign_module.run_one_injection(
        campaign, 0, kernel, np.asarray(kernel.reference()), spu_clean)


class TestEventCounts:
    """Each record's ``events`` counts, for the two cases the committed
    ``baselines/check-*.json`` campaigns never reach."""

    def test_watchdog_abort_counts_one_fault(self, monkeypatch):
        record = _injection(monkeypatch, "DotProduct", watchdog_cycles=20)
        assert record["events"] == {"fault": 1, "degrade": 0, "recovery": 0}
        assert record["error"].startswith("SimulationError: cycle budget")
        assert record["outcome"] == "detected"
        assert record["finished"] is False

    def test_go_of_another_context_counts_no_recovery(self, monkeypatch):
        from repro.faults.spec import FaultSpec

        # Bit 12 of MatrixMultiply's context-0 entry word sends its next
        # pointer to an undefined state: the controller parks context 0 at
        # idle, and context 1's GO re-arms context 1, not the parked one.
        spec = FaultSpec("control_word", 0, context=0, state_index=0,
                         word_bit=12)
        record = _injection(monkeypatch, "MatrixMultiply", spec=spec)
        assert record["events"] == {"fault": 1, "degrade": 1, "recovery": 0}
        assert record["fault_parks"] == 1
        assert record["error"] is None

    def test_go_of_the_parked_context_counts_one_recovery(self):
        from repro.core import (DEFAULT_MMIO_BASE, SPUController,
                                SPUProgramBuilder, SPUState, attach_spu,
                                halfword_route)
        from repro.cpu import Machine, PipelineConfig
        from repro.faults.campaign import _event_counts
        from repro.faults.injector import clone_spu_program
        from repro.isa import assemble

        # Context 0's loop runs twice, each time after a GO; its entry
        # state's next1 is undefined, so each run parks at the second
        # step, and the second GO re-arms the parked context.
        program = assemble(f"""
                mov r3, {DEFAULT_MMIO_BASE}
                mov r4, 1
                mov r1, 2
        outer:  stw [r3], r4
                mov r0, 8
        top:    paddw mm0, mm1
                paddw mm2, mm1
                loop r0, top
                loop r1, outer
                halt
        """)
        builder = SPUProgramBuilder()
        builder.loop([{1: halfword_route([(1, 1), (1, 0), (1, 3), (1, 2)])}, None], 8)
        good = builder.build()
        broken = clone_spu_program(good)
        entry = broken.states[broken.entry]
        broken.states[broken.entry] = SPUState(
            cntr=entry.cntr, routes=entry.routes, next0=entry.next0, next1=50)
        machine = Machine(program, config=PipelineConfig(extra_stage=True),
                          resilience="degrade")
        controller = SPUController()
        controller.load_program(good)
        attach_spu(machine, controller)
        controller.inject_program(broken)
        stats = machine.run()
        assert _event_counts(machine, stats, None) == {
            "fault": 2, "degrade": 2, "recovery": 1}


class TestReport:
    def test_envelope_and_schema(self, small_check):
        report = check_report(small_check)
        assert report["schema"] == SCHEMA_VERSION
        assert report["kind"] == "fault-campaign"
        body = report["data"]
        assert body["clean"]["ok"] is True
        assert body["campaign"]["seed"] == 7
        assert body["campaign"]["faults"] == 12
        assert body["campaign"]["resilience"] == "degrade"
        assert len(body["injections"]) == 12
        summary = body["summary"]
        assert sum(summary["outcomes"].values()) == 12
        assert summary["fired"] == 12
        by_kind_total = sum(
            count
            for outcomes in summary["by_kind"].values()
            for count in outcomes.values()
        )
        assert by_kind_total == 12

    def test_report_is_json_serializable(self, small_check):
        json.dumps(check_report(small_check))

    def test_render_mentions_outcomes_and_status(self, small_check):
        text = render_check(small_check)
        assert "Differential self-check" in text
        assert "Fault campaign: 12 injections, seed 7" in text
        assert "clean differential check: PASS" in text


class TestCheckCli:
    def test_text_mode_exits_zero(self, capsys):
        code = main(["check", "dotprod", "--faults", "4", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean differential check: PASS" in out

    def test_json_mode_writes_schema_versioned_report(self, tmp_path, capsys):
        target = tmp_path / "check.json"
        code = main([
            "check", "dotprod", "matrixt",  # forgiving prefixes
            "--faults", "4", "--seed", "3", "--json", str(target),
        ])
        assert code == 0
        report = json.loads(target.read_text())
        assert report["schema"] == SCHEMA_VERSION
        assert report["kind"] == "fault-campaign"
        assert report["data"]["kernels"] == ["DotProduct", "MatrixTranspose"]
        assert len(report["data"]["injections"]) == 4

    def test_unknown_kernel_is_a_cli_error(self, capsys):
        code = main(["check", "nosuchkernel"])
        assert code == 2
        assert "unknown kernel" in capsys.readouterr().err
