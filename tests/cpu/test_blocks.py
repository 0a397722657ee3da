"""Differential oracle: translated blocks against the per-uop issue loop.

``repro.cpu.blocks`` claims to keep every cycle: a run that enters
translated blocks must end with the same ``RunStats`` (as exported JSON
text, so ``by_class`` insertion order counts), the same
``pair_fail_reasons`` (with order), the same architectural state and the
same memory bytes as a run that never does.  The per-uop side is forced
through the machine's private ``_translate`` attribute; nothing public
switches translation off.
"""

import json

import pytest

from repro import simd
from repro.core import (
    DEFAULT_MMIO_BASE,
    SPUController,
    SPUProgramBuilder,
    attach_spu,
    halfword_route,
)
from repro.cpu import Machine, Memory, PipelineConfig, blocks
from repro.errors import MemoryFault, SimulationError
from repro.isa import MM, assemble
from repro.kernels.fft import FFTKernel
from repro.kernels.registry import ALL_KERNELS, make_kernel

CONFIGS = {
    "default": {},
    "memory_latency=3": {"memory_latency": 3},
    "issue_width=1": {"issue_width": 1},
}


def build_kernel(name):
    if name == "FFT1024":  # the --fast size, as ExperimentSuite(fast=True)
        kernel = FFTKernel(n=256)
        kernel.name = name
        return kernel
    return make_kernel(name)


def snapshot(machine, stats):
    state = machine.state
    shot = {
        "stats": json.dumps(stats.as_dict()),
        "pair_fail_reasons": list(stats.pair_fail_reasons.items()),
        "mmx": list(state.mmx),
        "scalar": list(state.scalar),
        "flags": (state.flags.zero, state.flags.sign),
        "pc": state.pc,
        "halted": state.halted,
        "memory": bytes(machine.memory.data),
        "predictor": vars(machine.predictor),
    }
    if machine.spu is not None:
        shot["spu"] = (repr(machine.spu.stats), repr(machine.spu.controller.stats))
    return shot


def per_uop(machine):
    machine._translate = False
    return machine


def assert_same(make_machine, runs=2):
    """Per-uop run, then *runs* translated runs on fresh machines."""
    machine = per_uop(make_machine())
    expected = snapshot(machine, machine.run())
    for _ in range(runs):
        machine = make_machine()
        assert snapshot(machine, machine.run()) == expected


@pytest.fixture
def hot(monkeypatch):
    """Set the translation threshold for one test."""
    def set_threshold(entries):
        monkeypatch.setattr(blocks, "HOT_ENTRIES", entries)
    return set_threshold


class TestKernels:
    @pytest.mark.parametrize("backend", simd.BACKENDS)
    @pytest.mark.parametrize("name", list(ALL_KERNELS))
    def test_translated_matches_per_uop(self, name, backend):
        # Handlers bind at decode time: build and run under the backend.
        with simd.use_backend(backend):
            kernel = build_kernel(name)
            for variant in ("mmx", "spu"):
                for overrides in CONFIGS.values():
                    config = dict(extra_stage=variant == "spu", **overrides)
                    assert_same(lambda: kernel.machine(
                        variant, pipeline=PipelineConfig(**config)))

    @pytest.mark.parametrize("name", list(ALL_KERNELS))
    def test_translated_on_first_entry(self, name, hot):
        # Recording the grouping at a loop's very first entry (cold
        # scoreboard) exercises the guard exits the steady state never takes.
        hot(1)
        kernel = build_kernel(name)
        for variant in ("mmx", "spu"):
            assert_same(lambda: kernel.machine(variant))

    def test_blocks_are_entered(self):
        kernel = build_kernel("FIR12")
        kernel.run_mmx()
        kernel.run_mmx()
        heads = kernel.mmx_program()._block_cache[(False, 2, 1)]
        assert any(head.fn is not None for head in heads.values())


#: The follower ``add r5, r2`` pairs only when the preceding imul's result
#: is ready, and the two paths into ``body`` alternate; whichever path a
#: block is recorded on, the other one fails its guard.
ALTERNATING = """
        mov r0, 200
        mov r3, 7
top:    mov r6, r0
        and r6, 1
        jz even
        imul r2, r3
        jmp body
even:   add r7, 1
        jmp body
body:   add r4, 1
        add r5, r2
        add r1, r5
        add r4, r1
        paddw mm0, mm1
        pmullw mm2, mm0
        paddw mm3, mm2
        loop r0, top
        halt
"""


class TestGuards:
    @pytest.mark.parametrize("entries", [1, 2, 3, 64])
    @pytest.mark.parametrize("overrides", list(CONFIGS.values()), ids=list(CONFIGS))
    def test_alternating_readiness(self, entries, overrides, hot):
        hot(entries)
        program = assemble(ALTERNATING)

        def make():
            machine = Machine(program, config=PipelineConfig(**overrides))
            machine.state.write(MM[1], 0x0001_0002_0003_0004)
            return machine
        assert_same(make, runs=3)


LOOP = """
        mov r0, 5000
top:    add r1, 1
        add r2, r1
        imul r3, r1
        movd mm0, r3
        paddw mm1, mm0
        loop r0, top
        halt
"""


class TestEdges:
    def _abort(self, machine, **kwargs):
        with pytest.raises(SimulationError) as excinfo:
            machine.run(**kwargs)
        error = excinfo.value
        return str(error), snapshot(machine, error.stats)

    @pytest.mark.parametrize("limit", [997, 998, 999, 1000, 1001, 1002, 4321])
    def test_watchdog_inside_hot_loop(self, limit, hot):
        hot(4)
        program = assemble(LOOP)
        expected = self._abort(per_uop(Machine(program)), max_cycles=limit)
        for _ in range(2):
            assert self._abort(Machine(program), max_cycles=limit) == expected
        assert "cycle budget exceeded" in expected[0]

    def test_runaway_pc(self, hot):
        hot(4)
        program = assemble("mov r0, 100\ntop: add r1, 1\nloop r0, top\nadd r2, 1")
        expected = self._abort(per_uop(Machine(program)))
        for _ in range(2):
            assert self._abort(Machine(program)) == expected
        assert "fell off program" in expected[0]

    def test_instruction_edited_in_place(self, hot):
        hot(4)
        program = assemble(LOOP)
        Machine(program).run()  # translated
        program.instructions[2] = assemble("add r2, 3").instructions[0]
        assert_same(lambda: Machine(program))

    def test_mmio_go_store_activates_controller_mid_block(self, hot):
        hot(2)
        program = assemble(f"""
                mov r3, {DEFAULT_MMIO_BASE}
                mov r4, 1
                mov r0, 40
        top:    paddw mm0, mm1
                stw [r3], r4
                paddw mm0, mm2
                add r5, 1
                loop r0, top
                halt
        """)
        builder = SPUProgramBuilder()
        builder.loop([{1: halfword_route([(2, 3), (2, 2), (2, 1), (2, 0)])},
                      None, None], 1)
        spu_program = builder.build()

        def make():
            machine = Machine(program, config=PipelineConfig(extra_stage=True))
            machine.state.write(MM[1], 0x0001_0001_0001_0001)
            machine.state.write(MM[2], 0x0004_0003_0002_0001)
            controller = SPUController()
            controller.load_program(spu_program)
            attach_spu(machine, controller)
            return machine

        assert_same(make, runs=3)
        machine = make()
        assert machine.run().spu_routed == 40

    @pytest.mark.parametrize("aligned", [False, True])
    def test_strict_memory_fault_inside_block(self, aligned, hot):
        hot(4)
        # Walks r1 off the end of a 4 KiB memory; the pending flags of
        # ``add r2, 1`` must reach state.flags on the way out.  With
        # alignment enforced every access takes the checked path.
        program = assemble(f"""
                mov r1, {0 if aligned else 3}
                mov r0, 10000
        top:    add r2, 1
                ldw r3, [r1]
                add r1, 8
                loop r0, top
                halt
        """)

        def make():
            memory = Memory(4096, require_alignment=aligned)
            return Machine(program, memory=memory)

        def outcome(machine):
            with pytest.raises(MemoryFault) as excinfo:
                machine.run()
            state = machine.state
            return (str(excinfo.value), state.pc, list(state.scalar),
                    (state.flags.zero, state.flags.sign),
                    bytes(machine.memory.data), vars(machine.predictor))

        expected = outcome(per_uop(make()))
        for _ in range(2):
            assert outcome(make()) == expected
