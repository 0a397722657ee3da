"""Tests for the start-up cost measurement and the MMIO upload generator."""

import numpy as np
import pytest

from repro.analysis import measure_startup_cost
from repro.core import (
    CONFIG_D,
    DEFAULT_MMIO_BASE,
    SPUController,
    SPUProgramBuilder,
    attach_spu,
    halfword_route,
)
from repro.core.mmio import emit_upload
from repro.cpu import Machine
from repro.isa import MM, ProgramBuilder
from repro.kernels import DotProductKernel


class TestEmitUpload:
    def build_ucode(self):
        builder = SPUProgramBuilder(config=CONFIG_D)
        route = halfword_route([(2, 0), (2, 1), (2, 2), (2, 3)])
        builder.loop([{1: route}], iterations=2)
        return builder.build()

    def test_uploaded_program_runs(self):
        """A program that stages its own microcode via MMIO, then uses it."""
        from repro import simd
        ucode = self.build_ucode()
        b = ProgramBuilder("self-programming")
        b.mov("r14", DEFAULT_MMIO_BASE)
        emit_upload(b, ucode, CONFIG_D, context=0, go=True)
        b.paddw("mm0", "mm1")
        b.paddw("mm0", "mm1")
        b.halt()
        machine = Machine(b.build())
        machine.state.write(MM[2], simd.join([5, 5, 5, 5], 16))
        controller = SPUController(config=CONFIG_D)
        attach_spu(machine, controller)
        machine.run()
        # both adds routed +5 from MM2
        assert simd.split(machine.state.mmx[0], 16).tolist() == [10, 10, 10, 10]

    def test_upload_without_go_stays_idle(self):
        ucode = self.build_ucode()
        b = ProgramBuilder("stage-only")
        b.mov("r14", DEFAULT_MMIO_BASE)
        count = emit_upload(b, ucode, CONFIG_D, go=False)
        b.halt()
        machine = Machine(b.build())
        controller = SPUController(config=CONFIG_D)
        attach_spu(machine, controller)
        machine.run()
        assert not controller.active
        assert count > 0

    def test_instruction_count_matches_emission(self):
        ucode = self.build_ucode()
        b = ProgramBuilder("count")
        b.mov("r14", DEFAULT_MMIO_BASE)
        count = emit_upload(b, ucode, CONFIG_D, go=True)
        b.halt()
        assert len(b.build()) == count + 2  # + the mov r14 and halt


class TestStartupCost:
    def test_dotprod_cost(self):
        kernel = DotProductKernel()
        cost = measure_startup_cost(kernel, kernel.verify())
        assert cost.state_words == 9
        assert cost.upload_cycles > 0
        assert cost.upload_instructions > cost.state_words
        assert cost.break_even_invocations < 2

    def test_break_even_infinite_when_no_savings(self):
        from repro.analysis.startup import StartupCost
        cost = StartupCost("x", 1, 2, 100, 0)
        assert cost.break_even_invocations == float("inf")
