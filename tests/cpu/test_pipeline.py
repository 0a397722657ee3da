"""Cycle-model tests: issue pairing, latency stalls, branch penalties."""

from collections import OrderedDict

import pytest

from repro import simd
from repro.errors import SimulationError
from repro.cpu import Bimodal, Machine, PipelineConfig, StaticBTFN, blocks, trace_run
from repro.isa import MM, assemble


def cycles_of(source, **kwargs):
    machine = Machine(assemble(source), **kwargs)
    stats = machine.run()
    return stats, machine


class TestIssuePairing:
    def test_independent_pair_one_cycle(self):
        stats, _ = cycles_of("paddw mm0, mm1\npsubw mm2, mm3\nhalt")
        assert stats.pair_cycles == 1
        assert stats.cycles == 2  # pair + halt

    def test_dependent_serializes(self):
        stats, _ = cycles_of("paddw mm0, mm1\npsubw mm2, mm0\nhalt")
        assert stats.pair_cycles == 0
        assert stats.cycles == 3

    def test_issue_width_one_disables_pairing(self):
        wide, _ = cycles_of("paddw mm0, mm1\npsubw mm2, mm3\nhalt")
        narrow, _ = cycles_of(
            "paddw mm0, mm1\npsubw mm2, mm3\nhalt",
            config=PipelineConfig(issue_width=1),
        )
        assert narrow.cycles == wide.cycles + 1
        assert narrow.pair_cycles == 0

    def test_pair_fail_reasons_recorded(self):
        stats, _ = cycles_of("pmullw mm0, mm1\npmaddwd mm2, mm3\nhalt")
        assert stats.pair_fail_reasons["only one multiply per cycle"] == 1


class TestLatency:
    def test_multiply_latency_stalls_consumer(self):
        # pmullw at cycle 0 → mm0 ready at cycle 3; dependent paddw stalls.
        stats, _ = cycles_of("pmullw mm0, mm1\npaddw mm2, mm0\nhalt")
        assert stats.stall_cycles == 2

    def test_pshufw_does_not_wait_for_its_destination(self):
        # pshufw only writes mm0: it issues the cycle after the multiply
        # (the two cannot pair, both write mm0) without waiting for it.
        stats, _ = cycles_of("pmullw mm0, mm1\npshufw mm0, mm2, 0x1b\nhalt")
        assert stats.stall_cycles == 0
        assert stats.cycles == 3
        stats, _ = cycles_of("pmullw mm0, mm1\npshufw mm0, mm0, 0x1b\nhalt")
        assert stats.stall_cycles == 2

    def test_independent_instruction_hides_latency(self):
        stats, _ = cycles_of(
            "pmullw mm0, mm1\n" + "paddw mm2, mm3\n" * 4 + "paddw mm4, mm0\nhalt"
        )
        assert stats.stall_cycles == 0

    def test_single_cycle_back_to_back(self):
        stats, _ = cycles_of("paddw mm0, mm1\npaddw mm2, mm0\npaddw mm3, mm2\nhalt")
        assert stats.stall_cycles == 0


class TestBranches:
    def test_loop_branch_counts(self):
        stats, _ = cycles_of("mov r0, 10\ntop: nop\nloop r0, top\nhalt")
        assert stats.branches == 10

    def test_bimodal_mispredicts_only_exit(self):
        # Warm 2-bit counters mispredict only the final not-taken iteration.
        stats, _ = cycles_of(
            "mov r0, 100\ntop: nop\nloop r0, top\nhalt", predictor=Bimodal()
        )
        assert stats.mispredicts == 1
        assert stats.mispredict_rate < 0.02

    def test_btfn_backward_loop(self):
        stats, _ = cycles_of(
            "mov r0, 50\ntop: nop\nloop r0, top\nhalt", predictor=StaticBTFN()
        )
        assert stats.mispredicts == 1  # only the fall-through exit

    def test_mispredict_penalty_applied(self):
        base, _ = cycles_of(
            "mov r0, 2\ntop: nop\nloop r0, top\nhalt",
            config=PipelineConfig(mispredict_penalty=0),
        )
        slow, _ = cycles_of(
            "mov r0, 2\ntop: nop\nloop r0, top\nhalt",
            config=PipelineConfig(mispredict_penalty=10),
        )
        assert slow.cycles > base.cycles
        assert (slow.cycles - base.cycles) % 10 == 0

    def test_jmp_never_mispredicts(self):
        stats, _ = cycles_of("jmp skip\nskip: halt")
        assert stats.branches == 1 and stats.mispredicts == 0


class TestExtraStage:
    def test_extra_stage_adds_fill_cycle(self):
        base, _ = cycles_of("nop\nhalt")
        extra, _ = cycles_of("nop\nhalt", config=PipelineConfig(extra_stage=True))
        assert extra.cycles == base.cycles + 1

    def test_extra_stage_increases_mispredict_penalty(self):
        src = "mov r0, 2\ntop: nop\nloop r0, top\nhalt"
        base, _ = cycles_of(src, config=PipelineConfig(mispredict_penalty=4))
        extra, _ = cycles_of(
            src, config=PipelineConfig(mispredict_penalty=4, extra_stage=True)
        )
        # +1 fill cycle, +1 per mispredict
        assert extra.cycles == base.cycles + 1 + base.mispredicts


class TestAccounting:
    def test_mmx_busy_fraction(self):
        stats, _ = cycles_of("paddw mm0, mm1\npaddw mm2, mm3\nmov r0, 1\nmov r1, 2\nhalt")
        assert 0 < stats.mmx_busy_cycles < stats.cycles

    def test_permute_counting(self):
        stats, _ = cycles_of("punpcklwd mm0, mm1\npackuswb mm2, mm3\npaddw mm4, mm5\nhalt")
        assert stats.permutes == 2
        assert stats.alignment_candidates == 2

    def test_alignment_candidates_include_movq(self):
        stats, _ = cycles_of("movq mm0, mm1\npsrlq mm2, 16\nhalt")
        assert stats.permutes == 0
        assert stats.alignment_candidates == 2

    def test_cycle_budget_guard(self):
        machine = Machine(assemble("top: jmp top\nhalt"))
        with pytest.raises(SimulationError):
            machine.run(max_cycles=1000)

    def test_stats_as_dict(self):
        stats, _ = cycles_of("nop\nhalt")
        d = stats.as_dict()
        assert d["finished"] and d["cycles"] >= 2 and "by_class" in d

    def test_timing_matches_functional_result(self):
        src = """
            mov r0, 8
            pxor mm2, mm2
        top:
            paddw mm2, mm1
            loop r0, top
            halt
        """
        timed = Machine(assemble(src))
        timed.state.write(MM[1], simd.join([1, 1, 1, 1], 16))
        timed.run()
        func = Machine(assemble(src))
        func.state.write(MM[1], simd.join([1, 1, 1, 1], 16))
        func.run_functional()
        assert timed.state.mmx[2] == func.state.mmx[2] == simd.join([8] * 4, 16)

    def test_reset(self):
        stats, machine = cycles_of("mov r0, 7\nhalt")
        assert machine.state.scalar[0] == 7
        machine.reset()
        assert machine.state.scalar[0] == 0 and not machine.state.halted


class TestIssueTrigger:
    """``Machine.trigger``: a one-shot callback right after one exact issue."""

    #: Each iteration pairs ``add r1`` (U) with ``add r2`` (V).
    PAIRED = "mov r0, 6\ntop: add r1, 1\nadd r2, 1\nloop r0, top\nhalt"

    def test_fires_between_the_u_and_v_issues_of_a_pair(self):
        program = assemble(self.PAIRED)
        u_pc = program.labels["top"]
        trace = trace_run(Machine(program))
        pairs = [(u, v) for u, v in zip(trace.entries, trace.entries[1:])
                 if u.pc == u_pc and u.pipe == "U" and v.pipe == "V"
                 and v.cycle == u.cycle]
        assert len(pairs) == 5  # the first ``add r1`` pairs with ``mov``
        u, v = pairs[1]
        assert v.seq == u.seq + 1
        adds = sum(1 for entry in trace if entry.pc == u_pc and entry.seq <= u.seq)
        machine = Machine(program)
        seen = []

        def fire():
            state = machine.state
            recorder = machine.recorder
            seen.append((state.scalar[1], state.scalar[2], state.pc,
                         recorder.base + len(recorder.pc), machine.trigger))

        machine.trigger = (u.seq, fire)
        armed = trace_run(machine)
        # U (``add r1``) has executed and been counted, V (``add r2``) has
        # not; the recorder gets U after the callback, and the slot was
        # cleared before the call.
        assert seen == [(adds, adds - 1, u.pc, u.seq, None)]
        assert machine.trigger is None
        assert armed.entries == trace.entries
        assert armed.stats.as_dict() == trace.stats.as_dict()

    def test_unreached_trigger_stays_armed(self):
        machine = Machine(assemble(self.PAIRED))
        calls = []
        machine.trigger = (10_000, lambda: calls.append(1))
        stats = machine.run()
        assert stats.instructions < 10_000 and not calls
        assert machine.trigger is not None

    def test_armed_run_enters_blocks_around_the_trigger(self, monkeypatch):
        """Blocks that end before the armed trigger's issue are entered, that
        issue runs in the issue loop, and once the trigger has fired the run
        enters blocks again: the callback sees the state the per-uop loop
        shows it, and every count is the same."""
        monkeypatch.setattr(blocks, "_shared", OrderedDict())
        monkeypatch.setattr(blocks, "HOT_ENTRIES", 1)
        taken = []
        first_issue = blocks.first_issue

        def spy(exit, issue_counts, reasons):
            taken.append(exit)
            first_issue(exit, issue_counts, reasons)

        monkeypatch.setattr(blocks, "first_issue", spy)
        source = "mov r0, 200\ntop: paddw mm0, mm1\npsubw mm2, mm3\nloop r0, top\nhalt"
        program = assemble(source)

        def armed_run(machine):
            seen = []
            machine.trigger = (100, lambda: seen.append(
                (list(machine.state.scalar), machine.state.pc, len(taken))))
            return machine.run().as_dict(), seen

        per_uop = Machine(program)
        per_uop._translate = False
        expected, [(scalar, pc, _)] = armed_run(per_uop)
        assert not taken
        stats, [(armed_scalar, armed_pc, before)] = armed_run(Machine(program))
        assert (stats, armed_scalar, armed_pc) == (expected, scalar, pc)
        assert 0 < before < len(taken)
