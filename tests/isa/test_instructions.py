"""Tests for the instruction IR: validation, hazard sets, permute analysis."""

import pytest

from repro.errors import AssemblerError
from repro.isa import FLAGS, MM, R, Imm, Instruction, Label, Mem, lookup


def make(name, *operands, tag=None):
    return Instruction(opcode=lookup(name), operands=operands, tag=tag)


class TestValidation:
    def test_operand_count(self):
        with pytest.raises(AssemblerError):
            make("paddw", MM[0])

    def test_operand_kind(self):
        with pytest.raises(AssemblerError):
            make("paddw", R[0], MM[1])
        with pytest.raises(AssemblerError):
            make("add", MM[0], Imm(1))

    def test_mem_to_mem_move_rejected(self):
        with pytest.raises(AssemblerError):
            make("movq", Mem(base=R[0]), Mem(base=R[1]))

    def test_movq_requires_mmx(self):
        with pytest.raises(AssemblerError):
            make("movd", R[0], R[1])

    def test_two_memory_operands_rejected(self):
        # no opcode signature allows it, but the extra guard catches mm|mem twice
        with pytest.raises(AssemblerError):
            make("movq", Mem(base=R[0]), Mem(base=R[0]))

    def test_valid_packed(self):
        instr = make("paddw", MM[0], MM[1])
        assert instr.is_mmx and not instr.is_permute


class TestHazardSets:
    def test_rmw_reads_dest(self):
        instr = make("paddw", MM[0], MM[1])
        assert instr.regs_read() == frozenset({MM[0], MM[1]})
        assert instr.regs_written() == frozenset({MM[0]})

    def test_movq_reg_reg_reads_source_only(self):
        instr = make("movq", MM[0], MM[1])
        assert instr.regs_read() == frozenset({MM[1]})
        assert instr.regs_written() == frozenset({MM[0]})

    def test_pshufw_reads_source_only(self):
        # pshufw overwrites its destination: it reads the destination
        # register only when that is also the source.
        assert make("pshufw", MM[1], MM[0], Imm(0x1B)).regs_read() == frozenset({MM[0]})
        assert make("pshufw", MM[0], MM[0], Imm(0x1B)).regs_read() == frozenset({MM[0]})
        assert make("pshufw", MM[1], MM[0], Imm(0x1B)).regs_written() == frozenset({MM[1]})

    def test_load_reads_address_regs(self):
        instr = make("movq", MM[0], Mem(base=R[1], index=R[2], scale=2))
        assert instr.regs_read() == frozenset({R[1], R[2]})
        assert instr.regs_written() == frozenset({MM[0]})
        assert instr.reads_memory and not instr.writes_memory

    def test_store_reads_value_and_address(self):
        instr = make("movq", Mem(base=R[1]), MM[3])
        assert instr.regs_read() == frozenset({R[1], MM[3]})
        assert instr.regs_written() == frozenset()
        assert instr.writes_memory and not instr.reads_memory

    def test_scalar_flags_written(self):
        assert FLAGS in make("add", R[0], Imm(1)).regs_written()
        assert FLAGS in make("dec", R[0]).regs_written()
        assert FLAGS not in make("mov", R[0], Imm(1)).regs_written()

    def test_cmp_writes_flags_not_reg(self):
        instr = make("cmp", R[0], R[1])
        assert instr.regs_written() == frozenset({FLAGS})
        assert instr.regs_read() == frozenset({R[0], R[1]})

    def test_conditional_branch_reads_flags(self):
        assert FLAGS in make("jnz", Label("x")).regs_read()
        assert make("jmp", Label("x")).regs_read() == frozenset()

    def test_loop_reads_and_writes_counter(self):
        instr = make("loop", R[0], Label("top"))
        assert R[0] in instr.regs_read()
        assert R[0] in instr.regs_written()
        assert FLAGS in instr.regs_written()

    def test_lea_reads_address_only(self):
        # lea forms the address but never touches memory.
        instr = make("lea", R[0], Mem(base=R[1], disp=8))
        assert instr.regs_read() == frozenset({R[1]})
        assert not instr.reads_memory and not instr.writes_memory

    def test_mmx_filtered_sets(self):
        instr = make("paddw", MM[0], MM[1])
        assert instr.mmx_regs_read() == frozenset({MM[0], MM[1]})
        assert make("add", R[0], R[1]).mmx_regs_read() == frozenset()


class TestPermuteAnalysis:
    def test_unpack_is_permute(self):
        assert make("punpcklwd", MM[0], MM[1]).is_permute
        assert make("punpcklwd", MM[0], MM[1]).is_alignment_candidate

    def test_movq_reg_reg_is_candidate_only(self):
        instr = make("movq", MM[0], MM[1])
        assert not instr.is_permute
        assert instr.is_alignment_candidate

    def test_movq_mem_not_candidate(self):
        assert not make("movq", MM[0], Mem(base=R[0])).is_alignment_candidate

    def test_byte_shift_is_candidate(self):
        assert make("psrlq", MM[0], Imm(16)).is_alignment_candidate
        assert make("psllq", MM[0], Imm(8)).is_alignment_candidate

    def test_subbyte_shift_not_candidate(self):
        assert not make("psrlq", MM[0], Imm(4)).is_alignment_candidate
        assert not make("psllw", MM[0], Imm(8)).is_alignment_candidate

    def test_register_count_shift_not_candidate(self):
        assert not make("psrlq", MM[0], MM[1]).is_alignment_candidate


class TestRendering:
    def test_str(self):
        instr = make("paddw", MM[0], Mem(base=R[1], disp=8))
        assert str(instr) == "paddw mm0, [r1+8]"

    def test_tagging_preserves_fields(self):
        instr = make("psrlq", MM[0], Imm(16)).with_tag("align")
        assert instr.tag == "align" and instr.name == "psrlq"
