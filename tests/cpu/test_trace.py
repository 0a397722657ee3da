"""Tests for the execution tracer and the SPU microcode renderer."""

from repro.cpu import Machine, trace_run
from repro.core import (
    CONFIG_D,
    SPUController,
    SPUProgramBuilder,
    attach_spu,
    render_program,
    render_state,
    SPUState,
    halfword_route,
)
from repro.isa import assemble
from repro.kernels import DotProductKernel


class TestTrace:
    def test_records_every_issue(self):
        machine = Machine(assemble("mov r0, 3\ntop: nop\nloop r0, top\nhalt"))
        trace = trace_run(machine)
        assert len(trace) == trace.stats.instructions
        assert trace.entries[0].text == "mov r0, 3"
        assert trace.entries[-1].text == "halt"

    def test_pc_and_sequence(self):
        machine = Machine(assemble("nop\nnop\nhalt"))
        trace = trace_run(machine)
        assert [entry.pc for entry in trace] == [0, 1, 2]
        assert [entry.seq for entry in trace] == [0, 1, 2]

    def test_mmx_flag(self):
        machine = Machine(assemble("paddw mm0, mm1\nadd r0, 1\nhalt"))
        trace = trace_run(machine)
        assert trace.entries[0].is_mmx and not trace.entries[1].is_mmx

    def test_routed_flag_follows_spu(self):
        kernel = DotProductKernel(blocks=2)
        program, controller_programs = kernel.spu_programs()
        machine = kernel._machine(program, controller_programs)
        trace = trace_run(machine)
        routed = trace.routed_entries()
        assert routed, "SPU-routed instructions must appear in the trace"
        assert all(entry.is_mmx for entry in routed)
        assert len(routed) == trace.stats.spu_routed

    def test_render_and_limit(self):
        machine = Machine(assemble("nop\nnop\nnop\nhalt"))
        trace = trace_run(machine)
        text = trace.render(limit=2)
        assert "2 more" in text
        assert "[" in trace.entries[0].render()

    def test_entry_cap(self):
        machine = Machine(assemble("mov r0, 50\ntop: nop\nloop r0, top\nhalt"))
        trace = trace_run(machine, max_entries=10)
        assert len(trace) == 10
        assert trace.stats.instructions > 10

    def test_subscription_released(self):
        machine = Machine(assemble("halt"))
        trace_run(machine)
        assert machine.recorder is None and machine.trigger is None


class TestMicrocodeRenderer:
    def test_render_state_straight(self):
        text = render_state(0, SPUState(cntr=1, next0=127, next1=3), idle=127)
        assert "CNTR1" in text and "straight" in text
        assert "next0=IDLE" in text and "next1=3" in text

    def test_render_state_routes_and_modes(self):
        from repro.core import CONFIG_D_MODED
        state = SPUState(routes={0: ((3, "neg"), None, 5, 1)}, next0=0, next1=0)
        text = render_state(2, state, idle=127)
        assert "3n" in text and "." in text and "5" in text

    def test_render_program(self):
        builder = SPUProgramBuilder(config=CONFIG_D)
        builder.loop([None, {1: halfword_route([(1, 0)] * 4)}], iterations=3)
        text = render_program(builder.build())
        assert "CNTR0=6" in text
        assert text.count("state") >= 2
        assert "op1=" in text
