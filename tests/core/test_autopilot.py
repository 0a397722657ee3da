"""Tests for whole-program SPU compilation (the fully automated §4 path)."""

import numpy as np
import pytest

from repro.core import (
    CONFIG_D,
    SPUController,
    attach_spu,
    detect_counted_loops,
    offload_program,
)
from repro.core.offload import OffloadError
from repro.cpu import Machine
from repro.isa import ProgramBuilder, assemble

PLAIN_LOOP = """
    mov r0, 6
    mov r1, 0x1000
    mov r2, 0x8000
loop:
    movq mm0, [r1]
    movq mm1, [r1+8]
    movq mm2, mm0
    punpckhwd mm2, mm1
    punpcklwd mm0, mm1
    movq [r2], mm0
    movq [r2+8], mm2
    add r1, 16
    add r2, 16
    loop r0, loop
    halt
"""


def run_with(program, controller_programs=None, out_words=48):
    machine = Machine(program)
    machine.memory.write_array(0x1000, np.arange(-48, 48, dtype=np.int16), np.int16)
    if controller_programs is not None:
        controller = SPUController(config=CONFIG_D, contexts=4)
        for context, spu_program in controller_programs:
            controller.load_program(spu_program, context=context)
        attach_spu(machine, controller)
    stats = machine.run()
    return machine.memory.read_array(0x8000, out_words, np.uint16).tolist(), stats


class TestLoopDetection:
    def test_counted_loop_found(self):
        detected, skipped = detect_counted_loops(assemble(PLAIN_LOOP))
        assert len(detected) == 1
        loop = detected[0]
        assert loop.label == "loop" and loop.iterations == 6
        assert not skipped

    def test_counter_not_immediate(self):
        program = assemble("""
            ldw r0, [r5]
        top: nop
            loop r0, top
            halt
        """)
        detected, skipped = detect_counted_loops(program)
        assert not detected
        assert "mov-immediate" in skipped["top"]

    def test_branch_between_setup_and_loop(self):
        program = assemble("""
            mov r0, 4
            jmp top
        top: nop
            loop r0, top
            halt
        """)
        detected, skipped = detect_counted_loops(program)
        assert not detected and "branch" in skipped["top"]

    def test_inner_control_flow_skipped(self):
        program = assemble("""
            mov r0, 4
        outer:
            mov r3, 2
        inner:
            nop
            loop r3, inner
            loop r0, outer
            halt
        """)
        detected, skipped = detect_counted_loops(program)
        # The inner loop is clean; the outer contains it (inner control flow).
        assert [loop.label for loop in detected] == ["inner"]
        assert "inner control flow" in skipped["outer"]

    def test_body_writing_counter_skipped(self):
        program = assemble("""
            mov r0, 4
        top:
            add r0, 1
            loop r0, top
            halt
        """)
        detected, skipped = detect_counted_loops(program)
        assert not detected and "counter" in skipped["top"]


class TestOffloadProgram:
    def test_end_to_end_equivalence(self):
        program = assemble(PLAIN_LOOP)
        result = offload_program(program)
        assert result.accelerated == ["loop"]
        assert result.removed >= 3
        base, base_stats = run_with(program)
        auto, auto_stats = run_with(result.program, result.controller_programs)
        assert base == auto
        assert auto_stats.instructions < base_stats.instructions + 3  # plumbing amortized

    def test_no_loops_returns_original(self):
        program = assemble("paddw mm0, mm1\nhalt")
        result = offload_program(program)
        assert result.program is program
        assert not result.controller_programs

    def test_unprofitable_loop_untouched(self):
        program = assemble("""
            mov r0, 4
        top:
            paddw mm0, mm1
            loop r0, top
            halt
        """)
        result = offload_program(program)
        assert not result.accelerated
        assert "no removable permutes" in result.skipped["top"]

    def test_multiple_loops_get_contexts(self):
        b = ProgramBuilder("multi")
        b.mov("r1", 0x1000)
        b.mov("r2", 0x8000)
        for index in range(3):
            b.mov("r0", 3)
            b.label(f"l{index}")
            b.movq("mm0", "[r1]")
            b.movq("mm1", "mm0")
            b.punpcklwd("mm1", "mm0")
            b.movq("[r2]", "mm1")
            b.add("r1", 8)
            b.add("r2", 8)
            b.loop("r0", f"l{index}")
        b.halt()
        program = b.build()
        result = offload_program(program)
        assert result.accelerated == ["l0", "l1", "l2"]
        assert [ctx for ctx, _ in result.controller_programs] == [0, 1, 2]
        base, _ = run_with(program, out_words=18)
        auto, _ = run_with(result.program, result.controller_programs, out_words=18)
        assert base == auto

    def test_plumbing_uses_free_registers(self):
        program = assemble(PLAIN_LOOP)
        result = offload_program(program)
        text = str(result.program)
        assert "r15" in text or "r14" in text  # high registers are free here

    def test_register_pressure_error(self):
        # A program touching every scalar register leaves no plumbing room.
        b = ProgramBuilder("greedy")
        for index in range(16):
            b.mov(f"r{index}", 1)
        b.mov("r0", 2)
        b.label("top")
        b.movq("mm1", "mm0")
        b.punpcklwd("mm1", "mm0")
        b.movq("mm2", "mm1")
        b.paddw("mm2", "mm1")
        b.loop("r0", "top")
        b.halt()
        with pytest.raises(OffloadError):
            offload_program(b.build())

    def test_accelerated_program_is_faster(self):
        program = assemble(PLAIN_LOOP)
        result = offload_program(program)
        _, base_stats = run_with(program)
        _, auto_stats = run_with(result.program, result.controller_programs)
        assert auto_stats.cycles < base_stats.cycles


class TestNestedPrograms:
    def test_inner_loop_of_nest_accelerated(self):
        """GO re-issues per outer iteration (re-activation idiom)."""
        source = """
            mov r1, 0x1000
            mov r2, 0x8000
            mov r0, 4
        rows:
            mov r3, 3
        cols:
            movq mm0, [r1]
            pshufw mm0, mm0, 0x4E
            paddw mm0, mm1
            movq [r2], mm0
            add r1, 8
            add r2, 8
            loop r3, cols
            add r4, 1
            loop r0, rows
            halt
        """
        from repro import simd
        from repro.isa import MM

        program = assemble(source, "nested")
        result = offload_program(program)
        assert result.accelerated == ["cols"]
        assert "inner control flow" in result.skipped["rows"]

        def run(p, cps=None):
            machine = Machine(p)
            machine.memory.write_array(
                0x1000, np.arange(-24, 24, dtype=np.int16), np.int16
            )
            machine.state.write(MM[1], simd.join([10, 20, 30, 40], 16))
            if cps is not None:
                controller = SPUController(config=CONFIG_D, contexts=4)
                for context, spu_program in cps:
                    controller.load_program(spu_program, context=context)
                attach_spu(machine, controller)
            machine.run()
            return machine.memory.read_array(0x8000, 48, np.int16).tolist()

        assert run(program) == run(result.program, result.controller_programs)


class TestWorkingProgramFacts:
    """Per-loop facts read from the program as transformed so far."""

    def test_later_loop_found_after_earlier_loop_shrinks(self):
        """A 4x4 tile transpose loses 12 permutes ahead of a short second
        loop: the second loop's original indexes lie past the end of the
        shrunken program (DCT's shape)."""
        b = ProgramBuilder("two-phase")
        b.mov("r1", 0x1000)
        b.mov("r2", 0x8000)
        b.mov("r0", 2)
        b.label("tile")
        for row in range(4):
            b.movq(f"mm{row}", f"[r1+{8 * row}]")
        b.movq("mm4", "mm0")
        b.punpcklwd("mm0", "mm1")
        b.punpckhwd("mm4", "mm1")
        b.movq("mm5", "mm2")
        b.punpcklwd("mm2", "mm3")
        b.punpckhwd("mm5", "mm3")
        b.movq("mm6", "mm0")
        b.punpckldq("mm0", "mm2")
        b.punpckhdq("mm6", "mm2")
        b.movq("mm7", "mm4")
        b.punpckldq("mm4", "mm5")
        b.punpckhdq("mm7", "mm5")
        for column, reg in enumerate(("mm0", "mm6", "mm4", "mm7")):
            b.movq(f"[r2+{8 * column}]", reg)
        b.add("r1", 32)
        b.add("r2", 32)
        b.loop("r0", "tile")
        b.mov("r0", 2)
        b.label("pairs")
        b.movq("mm0", "[r1]")
        b.movq("mm1", "mm0")
        b.punpcklwd("mm1", "mm0")
        b.movq("[r2]", "mm1")
        b.add("r1", 8)
        b.add("r2", 8)
        b.loop("r0", "pairs")
        b.halt()
        program = b.build()
        result = offload_program(program)
        assert result.accelerated == ["tile", "pairs"]
        assert result.removed == 12 + 2
        base, _ = run_with(program, out_words=40)
        auto, _ = run_with(result.program, result.controller_programs, out_words=40)
        assert base == auto

    def test_live_out_keeps_last_writer(self):
        """The copy is the last writer of mm1, which the epilogue stores:
        removing it would leave mm1 stale after the loop."""
        program = assemble("""
            mov r0, 4
            mov r1, 0x1000
            mov r2, 0x8000
        loop:
            movq mm0, [r1]
            movq mm1, mm0
            paddw mm2, mm1
            add r1, 8
            loop r0, loop
            movq [r2], mm1
            movq [r2+8], mm2
            halt
        """)
        result = offload_program(program)
        assert not result.accelerated
        assert result.program is program
        base, _ = run_with(program, out_words=8)
        auto, _ = run_with(result.program, result.controller_programs, out_words=8)
        assert base == auto

    def test_dead_after_loop_register_still_removed(self):
        """Overwritten before any read after the loop: mm1 is not live-out."""
        program = assemble("""
            mov r0, 4
            mov r1, 0x1000
            mov r2, 0x8000
        loop:
            movq mm0, [r1]
            movq mm1, mm0
            paddw mm2, mm1
            add r1, 8
            loop r0, loop
            pxor mm1, mm1
            movq [r2], mm1
            movq [r2+8], mm2
            halt
        """)
        result = offload_program(program)
        assert result.accelerated == ["loop"] and result.removed == 1
        (_, report), = result.reports
        assert report.certificate.live_out == (2,)
        base, _ = run_with(program, out_words=8)
        auto, _ = run_with(result.program, result.controller_programs, out_words=8)
        assert base == auto

    def test_unknown_control_flow_after_loop_keeps_everything_live(self):
        program = assemble("""
            mov r0, 4
            mov r1, 0x1000
        loop:
            movq mm0, [r1]
            movq mm1, mm0
            paddw mm2, mm1
            add r1, 8
            loop r0, loop
            jmp done
            pxor mm1, mm1
        done:
            halt
        """)
        result = offload_program(program)
        assert not result.accelerated
