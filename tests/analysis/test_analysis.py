"""Tests for the profiler, branch/overlap accounting and report formatting."""

import pytest

from repro.analysis import (
    branch_row,
    format_table,
    overlap_row,
    pct,
    profile,
    ratio,
    scale_to_paper,
    sci,
)
from repro.cpu import Machine
from repro.isa import assemble
from repro.kernels import DotProductKernel


class TestProfiler:
    def test_opcode_counts(self):
        machine = Machine(assemble("""
            mov r0, 3
        top:
            paddw mm0, mm1
            punpcklwd mm2, mm3
            loop r0, top
            halt
        """))
        prof = profile(machine)
        assert prof.by_opcode["paddw"] == 3
        assert prof.by_opcode["punpcklwd"] == 3
        assert prof.by_opcode["loop"] == 3
        assert prof.by_opcode["halt"] == 1
        assert prof.total == prof.stats.instructions

    def test_fractions(self):
        machine = Machine(assemble("punpcklwd mm0, mm1\nadd r0, 1\nhalt"))
        prof = profile(machine)
        assert prof.mmx_fraction == pytest.approx(1 / 3)
        assert prof.permute_fraction_of_mmx == 1.0
        assert prof.permute_fraction_of_total == pytest.approx(1 / 3)

    def test_class_mix_sums_to_one(self):
        machine = Machine(assemble("paddw mm0, mm1\nmov r0, 1\nldw r1, [r0]\nhalt"))
        prof = profile(machine)
        assert sum(prof.class_mix().values()) == pytest.approx(1.0)

    def test_top_opcodes_ordering(self):
        machine = Machine(assemble("nop\nnop\nnop\npaddw mm0, mm1\nhalt"))
        prof = profile(machine)
        assert prof.top_opcodes(1)[0] == ("nop", 3)

    def test_subscription_released(self):
        machine = Machine(assemble("halt"))
        profile(machine)
        assert machine.recorder is None and machine.trigger is None

    def test_profile_kernel_matches_table3_expectations(self):
        kernel = DotProductKernel(blocks=4)
        machine = kernel._machine(kernel.mmx_program(), None)
        prof = profile(machine)
        assert prof.by_opcode["punpckhwd"] == 4
        assert prof.by_opcode["pmullw"] == 4
        assert 0 < prof.permute_fraction_of_mmx < 1

    def test_empty_run(self):
        prof = profile(Machine(assemble("halt")))
        assert prof.mmx_fraction == 0.0
        assert prof.permute_fraction_of_mmx == 0.0


class TestBranchRows:
    def test_branch_row_from_stats(self):
        machine = Machine(assemble("mov r0, 10\ntop: nop\nloop r0, top\nhalt"))
        stats = machine.run()
        row = branch_row("X", stats, "desc")
        assert row.branches == 10
        assert row.missed_pct == stats.mispredict_rate

    def test_scaling_preserves_rate(self):
        machine = Machine(assemble("mov r0, 10\ntop: nop\nloop r0, top\nhalt"))
        row = branch_row("X", machine.run())
        scaled = scale_to_paper(row, 1.5e10)
        assert scaled.clocks == pytest.approx(1.5e10)
        assert scaled.missed_pct == pytest.approx(row.missed_pct)
        assert scaled.branches / row.branches == pytest.approx(
            scaled.clocks / row.clocks
        )

    def test_zero_clock_guard(self):
        row = branch_row("X", __import__("repro.cpu", fromlist=["RunStats"]).RunStats())
        assert scale_to_paper(row, 1e10).clocks == 0.0
        assert row.missed_pct == 0.0


class TestOverlapRows:
    def test_overlap_from_comparison(self):
        kernel = DotProductKernel(blocks=8)
        row = overlap_row(kernel.compare())
        assert row.cycles_overlapped > 0
        assert 0 < row.pct_mmx_instr < 1
        assert 0 < row.pct_total_instr <= row.pct_mmx_instr
        assert 0 < row.offload_rate <= 1

    def test_full_offload_rate_for_dotprod(self):
        # All four alignment candidates in the loop are removable.
        kernel = DotProductKernel(blocks=8)
        assert overlap_row(kernel.compare()).offload_rate == pytest.approx(1.0)


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "long"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_sci(self):
        assert sci(1.51e10) == "1.51E+10"

    def test_pct(self):
        assert pct(0.00094, 3) == "0.094%"
        assert pct(0.5) == "50.00%"

    def test_ratio(self):
        assert ratio(1.0394) == "1.039"
