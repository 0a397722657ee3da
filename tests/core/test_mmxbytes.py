"""The byte table against the simulator: relocations and zero idioms.

Both static engines and both replay checkers read MMX byte semantics from
:mod:`repro.core.mmxbytes`, so the table is checked against the executor
the simulator runs: for every relocating opcode and lane width, random
operands pushed through the executor must equal the table's gather applied
by the register-file walk, and every zero idiom must yield zero.
"""

import random

import pytest

from repro.core.mmxbytes import (
    ZERO_IDIOM_SEMS,
    ByteWalk,
    byte_facts,
    byte_sources,
    is_zero_idiom,
)
from repro.cpu import Machine
from repro.cpu.executor import execute
from repro.isa import assemble
from repro.isa.opcodes import all_opcodes

RELOCATING_SEMS = ("movq", "movd", "punpckl", "punpckh", "pshufw", "vperm", "psll", "psrl")
TRIALS = 8


class ConcreteWalk(ByteWalk):
    """The walk over concrete byte values; computing ops are out of scope."""

    zero = 0

    def __init__(self, values):
        super().__init__([list(value.to_bytes(8, "little")) for value in values])

    def compute(self, instr, facts):
        raise AssertionError(f"{instr} computes; the table should relocate it")


def executed(instr, program, values):
    machine = Machine(program)
    machine.state.mmx[:] = list(values)
    execute(instr, machine.state, machine.memory, program)
    return list(machine.state.mmx)


def relocation_cases():
    rng = random.Random(2004)
    for opcode in all_opcodes():
        if opcode.sem not in RELOCATING_SEMS:
            continue
        name = opcode.name
        if opcode.sem == "pshufw":
            texts = [f"{name} mm0, mm1, {order}" for order in range(256)]
        elif opcode.sem == "vperm":
            texts = [f"{name} mm0, mm1, {rng.getrandbits(32)}" for _ in range(64)]
        elif opcode.sem in ("psll", "psrl"):
            if opcode.width != 64:
                continue  # lane shifts compute
            texts = [f"{name} mm0, {count}" for count in range(0, 80, 8)]
        else:
            texts = [f"{name} mm0, mm1", f"{name} mm1, mm1"]
        for text in texts:
            yield text


CASES = list(relocation_cases())


def test_every_relocating_sem_is_covered():
    sems = {assemble(f"{text}\nhalt")[0].opcode.sem for text in CASES}
    assert sems == set(RELOCATING_SEMS)
    widths = {
        assemble(f"{text}\nhalt")[0].opcode.name
        for text in CASES if text.startswith("punpck")
    }
    assert len(widths) == 6  # bw, wd, dq; low and high


@pytest.mark.parametrize("text", CASES)
def test_gather_matches_executor(text):
    program = assemble(f"{text}\nhalt")
    instr = program[0]
    facts = byte_facts(instr)
    assert facts.sources is not None and facts.sources == tuple(byte_sources(instr))
    rng = random.Random(text)
    for _ in range(TRIALS):
        values = [rng.getrandbits(64) for _ in range(8)]
        walk = ConcreteWalk(values)
        walk.step(instr, facts)
        expected = executed(instr, program, values)
        got = [int.from_bytes(bytes(word), "little") for word in walk.regs]
        assert got == expected, text


@pytest.mark.parametrize("text", ["psllq mm0, 4", "psrlq mm0, 12", "psllw mm0, 8",
                                  "psrld mm0, 16", "movq mm0, [r1]", "movd mm0, r1",
                                  "punpcklbw mm0, [r1]", "pshufw mm0, [r1], 27"])
def test_bit_shifts_and_outside_sources_compute(text):
    assert byte_facts(assemble(f"{text}\nhalt")[0]).sources is None


def zero_idiom_cases():
    for opcode in all_opcodes():
        if opcode.sem in ZERO_IDIOM_SEMS:
            yield opcode.name


@pytest.mark.parametrize("name", list(zero_idiom_cases()))
def test_zero_idioms_yield_zero(name):
    program = assemble(f"{name} mm2, mm2\n{name} mm2, mm3\nhalt")
    idiom, other = program[0], program[1]
    assert is_zero_idiom(idiom) and not is_zero_idiom(other)
    facts = byte_facts(idiom)
    assert facts.zero_idiom and facts.reads == () and facts.mmx_dest == 2
    rng = random.Random(name)
    for _ in range(TRIALS):
        values = [rng.getrandbits(64) for _ in range(8)]
        assert executed(idiom, program, values)[2] == 0
        walk = ConcreteWalk(values)
        walk.step(idiom, facts)
        assert walk.regs[2] == [0] * 8 and walk.live_in == set()


def test_offload_keeps_a_permute_of_memory_bytes():
    # The loaded bytes exist nowhere in the register file, so no route can
    # stand in for the unpack even when a known-zero register offers zero
    # bytes to route (config A routes any byte).
    from repro.core import CONFIGS, DEFAULT_MMIO_BASE, SPUController, attach_spu
    from repro.core import offload_loop
    from repro.isa import MM

    program = assemble(f"""
        mov r14, {DEFAULT_MMIO_BASE}
        mov r15, 1
        mov r0, 4
        mov r1, 0x100
        pxor mm7, mm7
        stw [r14], r15
    top:
        movq mm1, [r1]
        punpcklbw mm1, [r1+8]
        paddw mm2, mm1
        add r1, 16
        loop r0, top
        halt
    """)
    report = offload_loop(program, "top", 4, CONFIGS["A"], known_zero=(MM[7],))
    assert report.removed == []

    def run(machine):
        for i in range(64):
            machine.memory.store(0x100 + i, 1, (i * 37 + 11) & 0xFF)
        machine.run()
        return machine.state.mmx[2]

    machine = Machine(report.program)
    controller = SPUController(config=CONFIGS["A"])
    controller.load_program(report.spu_program)
    attach_spu(machine, controller)
    assert run(machine) == run(Machine(program))
