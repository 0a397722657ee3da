"""Differential oracle: translated blocks against the per-uop issue loop.

``repro.cpu.blocks`` claims to keep every cycle: a run that enters
translated blocks must end with the same ``RunStats`` (as exported JSON
text, so ``by_class`` insertion order counts), the same
``pair_fail_reasons`` (with order), the same architectural state, the same
memory bytes and the same SPU controller state as a run that never does.
The per-uop side is forced through the machine's private ``_translate``
attribute; nothing public switches translation off.  SPU runs compare three
paths: the per-uop loop on the byte-granular crossbar oracle (forced
through ``AttachedSPU._byte_path``), the per-uop loop on word plans, and
translated blocks, which step the controller inline.
"""

import dataclasses
import json
import random
from collections import OrderedDict

import pytest

from repro import simd
from repro.core import (
    CONFIG_D,
    CONFIG_D_MODED,
    DEFAULT_MMIO_BASE,
    SPUController,
    SPUProgramBuilder,
    SPUState,
    attach_spu,
    halfword_route,
)
from repro.core import CONFIGS as CROSSBARS
from repro.core.mmio import emit_upload
from repro.cpu import Machine, Memory, PipelineConfig, blocks
from repro.errors import MemoryFault, RouteError, SimulationError, SPUProgramError
from repro.faults import FAULT_KINDS, FaultInjector, generate_spec
from repro.faults.injector import clone_spu_program, corrupt_route
from repro.isa import MM, ProgramBuilder, assemble
from repro.kernels.fft import FFTKernel
from repro.kernels.registry import ALL_KERNELS, make_kernel
from repro.obs import ControllerTrace, Reader, Recorder
from repro.obs.export import variant_report
from repro.resilience import ResilienceMode

CONFIGS = {
    "default": {},
    "memory_latency=3": {"memory_latency": 3},
    "issue_width=1": {"issue_width": 1},
}


def build_kernel(name, **kwargs):
    if name == "FFT1024":  # the --fast size, as ExperimentSuite(fast=True)
        kernel = FFTKernel(n=256, **kwargs)
        kernel.name = name
        return kernel
    return make_kernel(name, **kwargs)


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
        shot["spu"] = spu_snapshot(machine)
    return shot


def spu_snapshot(machine):
    controller = machine.spu.controller
    return {
        "stats": (repr(machine.spu.stats), repr(controller.stats)),
        "current": list(controller._current_by_ctx),
        "counters": [list(counters) for counters in controller._counters_by_ctx],
        "active": controller.active,
        "context": controller.context,
        "fault_parked": list(controller._parked_by_ctx),
    }


def per_uop(machine):
    machine._translate = False
    return machine


def byte_path(machine):
    """The per-uop loop on the byte-granular crossbar oracle."""
    machine._translate = False
    if machine.spu is not None:
        machine.spu._byte_path = True
    return machine


def assert_same(make_machine, runs=2):
    """Per-uop run(s), then *runs* translated runs on fresh machines.

    An SPU machine runs per-uop twice: on the byte path, the reference,
    and on word plans.
    """
    machine = byte_path(make_machine())
    expected = snapshot(machine, machine.run())
    if machine.spu is not None:
        machine = per_uop(make_machine())
        assert snapshot(machine, machine.run()) == expected
    for _ in range(runs):
        machine = make_machine()
        assert snapshot(machine, machine.run()) == expected


def outcome(machine, **kwargs):
    """The run's snapshot, or the error's text, pc and SPU snapshot."""
    try:
        return snapshot(machine, machine.run(**kwargs))
    except (SimulationError, SPUProgramError, RouteError) as error:
        return str(error), machine.state.pc, spu_snapshot(machine) if machine.spu else None


def assert_same_outcome(make_machine, runs=2, **kwargs):
    """:func:`assert_same` for runs that may raise."""
    machine = make_machine()
    expected = outcome(byte_path(machine), **kwargs)
    if machine.spu is not None:
        assert outcome(per_uop(make_machine()), **kwargs) == expected
    for _ in range(runs):
        assert outcome(make_machine(), **kwargs) == expected
    return expected


@pytest.fixture
def hot(monkeypatch):
    """Set the translation threshold for one test, on fresh shared tables
    (a text another test translated would be entered at once)."""
    monkeypatch.setattr(blocks, "_shared", OrderedDict())

    def set_threshold(entries):
        monkeypatch.setattr(blocks, "HOT_ENTRIES", entries)
    return set_threshold


@pytest.fixture
def taken(monkeypatch):
    """The translated-block exits runs take, each the first time per run."""
    exits = []
    first_issue = blocks.first_issue

    def spy(exit, issue_counts, reasons):
        exits.append(exit)
        first_issue(exit, issue_counts, reasons)

    monkeypatch.setattr(blocks, "first_issue", spy)
    return exits


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
        heads = kernel.mmx_program()._block_cache[(False, 2, 1, False)]
        assert any(head.fn is not None for head in heads.values())


class TestSPUPaths:
    """The SPU variant on the byte path, on word plans and translated."""

    # D, the kernels' default, runs in TestKernels.
    @pytest.mark.parametrize("config", ["A", "B", "C"])
    @pytest.mark.parametrize("name", list(ALL_KERNELS))
    def test_every_config(self, name, config):
        kernel = build_kernel(name, config=CROSSBARS[config])
        assert_same(lambda: kernel.machine("spu"))

    def test_operand_modes(self, hot):
        # D+ routes with negation and byte sign/zero extension; each loop
        # iteration accumulates mm0 += -mm2, mm3 += sxb(mm2), mm4 += zxb(mm2).
        hot(2)
        program = assemble(f"""
                mov r3, {DEFAULT_MMIO_BASE}
                mov r4, 1
                mov r0, 50
        top:    stw [r3], r4
                paddw mm0, mm1
                paddw mm3, mm1
                paddw mm4, mm1
                paddw mm1, mm5
                loop r0, top
                halt
        """)
        neg = tuple((8 + i, "neg") for i in range(4))
        sxb = tuple((8 + i, "sxb") for i in range(4))
        zxb = ((8, "zxb"), 9, None, (11, "zxb"))
        builder = SPUProgramBuilder(config=CONFIG_D_MODED)
        builder.loop([{1: neg}, {1: sxb}, {1: zxb}, None], 1)
        spu_program = builder.build()

        def make():
            machine = Machine(program, config=PipelineConfig(extra_stage=True))
            machine.state.write(MM[2], 0x80FF_7F01_0203_FF80)
            machine.state.write(MM[5], 0x0101_0101_0101_0101)
            controller = SPUController(config=CONFIG_D_MODED)
            controller.load_program(spu_program)
            attach_spu(machine, controller)
            return machine

        assert_same(make, runs=3)
        assert make().run().spu_routed == 150

    def test_op_without_inline_semantics(self, hot):
        # vperm runs its decoded op in a block, with the routed operands.
        hot(2)
        program = assemble(f"""
                mov r3, {DEFAULT_MMIO_BASE}
                mov r4, 1
                mov r0, 40
        top:    stw [r3], r4
                vperm mm0, mm1, 0x89abcdef
                paddw mm3, mm0
                vperm mm4, mm3, 0x01234567
                loop r0, top
                halt
        """)
        builder = SPUProgramBuilder()
        builder.loop([{0: halfword_route([(2, 3), (2, 2), (2, 1), (2, 0)]),
                       1: halfword_route([(3, 0), None, (3, 1), None])},
                      None, {1: halfword_route([(2, 1), (2, 1), (2, 1), (2, 1)])}, None], 1)
        spu_program = builder.build()

        def make():
            machine = Machine(program, config=PipelineConfig(extra_stage=True))
            machine.state.write(MM[1], 0x1111_2222_3333_4444)
            machine.state.write(MM[2], 0x0004_0003_0002_0001)
            machine.state.write(MM[3], 0x0F0E_0D0C_0B0A_0908)
            controller = SPUController()
            controller.load_program(spu_program)
            attach_spu(machine, controller)
            return machine

        assert_same(make, runs=3)
        assert make().run().spu_routed == 80

    def test_nested_loops_reload_the_inner_counter(self, hot):
        # CNTR0 auto-reloads on each inner-loop exit; CNTR1 counts rows.
        hot(2)
        program = assemble(f"""
                mov r10, {DEFAULT_MMIO_BASE}
                mov r0, 20
                mov r3, 3
                mov r11, 1
                stw [r10], r11
        cols:   paddw mm0, mm1
                psubw mm2, mm0
                loop r3, cols
                add r4, 1
                mov r3, 3
                loop r0, cols
                halt
        """)
        builder = SPUProgramBuilder()
        swap = halfword_route([(1, 2), (1, 3), (1, 0), (1, 1)])
        builder.two_level_loop([{1: swap}, None, None], 3, [None, None, None], 20)
        spu_program = builder.build()

        def make():
            machine = Machine(program, config=PipelineConfig(extra_stage=True))
            machine.state.write(MM[1], 0x0004_0003_0002_0001)
            controller = SPUController()
            controller.load_program(spu_program)
            attach_spu(machine, controller)
            return machine

        assert_same(make, runs=3)
        assert make().run().spu_routed == 60

    @pytest.mark.parametrize("next1", [128, 500])
    @pytest.mark.parametrize("resilience", ["strict", "degrade"])
    def test_next_state_out_of_range(self, next1, resilience, hot):
        # The schedule leaves such a state out: its step faults in routes_for.
        hot(1)
        kernel = build_kernel("FIR12")

        def make():
            machine = kernel.machine("spu")
            controller = machine.spu.controller
            controller.resilience = ResilienceMode.parse(resilience)
            clone = clone_spu_program(controller.program(0))
            state = clone.states[clone.entry]
            clone.states[clone.entry] = SPUState(
                cntr=state.cntr, routes=state.routes, next0=state.next0, next1=next1)
            controller.inject_program(clone)
            return machine

        assert_same_outcome(make)
        machine = make()
        if resilience == "strict":
            with pytest.raises(SPUProgramError, match="outside K"):
                machine.run()
        else:
            machine.run()
            assert machine.spu.controller.stats.fault_parks > 0

    def test_observed_controller_trace(self):
        # A ControllerTrace reads step rows that the per-uop loop and the
        # recorded blocks' inline step both write: the same summary on every
        # path, cold and warm.  DCT runs four contexts and fills the log.
        kernel = build_kernel("DCT")

        def observed(machine):
            trace = ControllerTrace().attach(machine)
            return snapshot(machine, machine.run()), trace.as_dict()

        expected = observed(byte_path(kernel.machine("spu")))
        assert expected[1]["steps"] > 0 and expected[1]["counter_log_truncated"]
        for make in (lambda: per_uop(kernel.machine("spu")), lambda: kernel.machine("spu")):
            for _ in range(2):
                assert observed(make()) == expected

    # What the retired bus topics carried now lives in columns of the
    # recorder's step rows: a controller step is its context, emitted
    # state, next state and counters; a route is its context, state and
    # route bits, on the rows whose state routes.
    STEP_VIEWS = {"controller_step": lambda row: tuple(row[:5]),
                  "spu_route": lambda row: (row[0], row[1], row[5]) if row[5] else None}

    @pytest.mark.parametrize("topics", [("controller_step",), ("spu_route",),
                                        ("controller_step", "spu_route")])
    def test_observed_event_streams(self, topics):
        kernel = build_kernel("FIR12")
        views = [(topic, self.STEP_VIEWS[topic]) for topic in topics]

        class Rows(Reader):
            def __init__(self):
                self.events = []

            def on_chunk(self, chunk):
                for row in chunk.steps.tolist():
                    for topic, view in views:
                        event = view(row)
                        if event is not None:
                            self.events.append((topic, event))

        def observed(machine):
            rows = Rows()
            Recorder.add(machine, rows)
            return machine, rows.events

        machine, expected_events = observed(byte_path(kernel.machine("spu")))
        expected = snapshot(machine, machine.run())
        assert {topic for topic, _ in expected_events} == set(topics)
        counter_init = {context: tuple(program.counter_init)
                        for context, program in kernel.spu_programs()[1]}
        idle_state = machine.spu.controller.idle_state
        for topic, event in expected_events:
            if topic == "controller_step" and event[2] == idle_state:
                assert event[3:] == counter_init[event[0]]
        for make in (lambda: per_uop(kernel.machine("spu")), lambda: kernel.machine("spu")):
            for _ in range(2):
                machine, events = observed(make())
                assert snapshot(machine, machine.run()) == expected
                assert events == expected_events

    @staticmethod
    def corrupted(kernel, resilience=None, controller_resilience=None):
        """A machine whose first routed state has an out-of-window route."""
        machine = kernel.machine("spu", resilience=resilience)
        controller = machine.spu.controller
        if controller_resilience is not None:
            controller.resilience = controller_resilience
        program = controller.program(0)
        index = next(i for i in sorted(program.states) if program.states[i].routes)
        slot = sorted(program.states[index].routes)[0]
        controller.inject_program(corrupt_route(program, index, slot, 0, 99))
        return machine

    @pytest.mark.parametrize("where", ["machine", "controller"])
    def test_degrade_serializes_illegal_route(self, where):
        # A DEGRADE machine (whose controller inherits DEGRADE) and a
        # STRICT machine whose controller degrades both run translated,
        # stepping such states through routes_for.
        kernel = build_kernel("FIR12")
        if where == "machine":
            assert_same(lambda: self.corrupted(kernel, resilience="degrade"))
        else:
            assert_same(lambda: self.corrupted(kernel, controller_resilience=ResilienceMode.DEGRADE))
        machine = self.corrupted(kernel, controller_resilience=ResilienceMode.DEGRADE)
        machine.run()
        assert machine.spu.stats.serialized_operands > 0

    def test_strict_illegal_route_raises(self, hot):
        hot(1)
        kernel = build_kernel("FIR12")

        def outcome(machine):
            with pytest.raises(RouteError) as excinfo:
                machine.run()
            return str(excinfo.value), machine.state.pc, spu_snapshot(machine)

        expected = outcome(byte_path(self.corrupted(kernel)))
        assert outcome(per_uop(self.corrupted(kernel))) == expected
        for _ in range(2):
            assert outcome(self.corrupted(kernel)) == expected

    @pytest.mark.parametrize("byte", [0, 9, 18, 27])
    def test_armed_register_flip(self, byte, hot):
        # Translated on first entry, so a block consumes the upset.
        hot(1)
        kernel = build_kernel("FIR12")

        def make():
            machine = kernel.machine("spu")
            machine.spu.register.inject_bit_flip(byte, 3)
            return machine

        assert_same(make)
        machine = make()
        machine.run()
        assert not machine.spu.register._pending_flips  # the upset landed

    def test_mmio_go_loads_fresh_program_mid_block(self, hot):
        # Every iteration stages a microprogram through MMIO stores and GOs:
        # each GO installs a new program while a block runs.
        hot(2)
        builder = SPUProgramBuilder()
        builder.loop([{1: halfword_route([(2, 3), (2, 2), (2, 1), (2, 0)])},
                      None, {0: halfword_route([(2, 0), (2, 0), (2, 1), (2, 1)])}], 1)
        b = ProgramBuilder("mmio-reload")
        b.mov("r14", DEFAULT_MMIO_BASE)
        b.mov("r0", 30)
        b.label("top")
        emit_upload(b, builder.build(), CONFIG_D, context=0, go=True)
        b.paddw("mm0", "mm1")
        b.add("r5", 1)
        b.paddw("mm3", "mm1")
        b.loop("r0", "top")
        b.halt()
        program = b.build()

        def make():
            machine = Machine(program, config=PipelineConfig(extra_stage=True))
            machine.state.write(MM[1], 0x0001_0001_0001_0001)
            machine.state.write(MM[2], 0x0004_0003_0002_0001)
            attach_spu(machine, SPUController())
            return machine

        assert_same(make, runs=3)
        assert make().run().spu_routed == 60


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
        program, other = assemble(LOOP), assemble(LOOP)
        Machine(program).run()  # translated
        other_stats = Machine(other).run().as_dict()  # in program's blocks
        heads = other._block_cache[(False, 2, 1, False)]
        fns = {pc: head.fn for pc, head in heads.items()}
        program.instructions[2] = assemble("add r2, 3").instructions[0]
        assert_same(lambda: Machine(program))
        # The edited program left the shared table: the other program's
        # blocks and counts are as they were.
        assert program._block_cache is not other._block_cache
        assert {pc: head.fn for pc, head in heads.items()} == fns
        assert Machine(other).run().as_dict() == other_stats

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


class TestFaultRuns:
    """DEGRADE and HALT runs enter blocks; a faulting issue inside a block
    takes its fault exit, and the run goes on (or stops) as per-uop."""

    @pytest.mark.parametrize("resilience", ["degrade", "halt"])
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_injection_inside_a_hot_block(self, kind, resilience, hot, taken):
        hot(2)
        kernel = build_kernel("FIR12")
        clean = kernel.machine("spu").run()
        spec = generate_spec(random.Random(kind), (kind,), clean.instructions,
                             kernel.spu_programs()[1], kernel.config)
        spec = dataclasses.replace(spec, trigger=clean.instructions // 2)
        fired = []

        def make():
            machine = kernel.machine("spu", resilience=resilience)
            injector = FaultInjector(machine, spec)
            fired.append(injector)
            return machine

        watchdog = clean.cycles * 4 + 10_000
        before = len(taken)
        assert_same_outcome(make, max_cycles=watchdog)
        assert all(injector.fired and injector.applied for injector in fired)
        assert len(taken) > before  # the translated runs entered blocks

    #: Loads walk r1 up through a 2 KiB memory; the load is the U op of a
    #: pair with ``add r2`` and stalls on ``imul`` first.  Past the end
    #: every load faults.
    WALK = """
            mov r1, 0
            mov r6, 1
            mov r0, 700
    top:    mov r5, r1
            imul r5, r6
            ldw r3, [r5]
            add r2, 1
            paddw mm0, mm1
            add r1, 4
            loop r0, top
            halt
    """

    @pytest.mark.parametrize("resilience", ["degrade", "halt"])
    @pytest.mark.parametrize("fault", ["out_of_range", "misaligned"])
    def test_memory_fault_on_a_u_op(self, fault, resilience, hot, taken):
        # out_of_range: the walk leaves memory at iteration 512.
        # misaligned: a trigger at iteration ~200 bumps r1 off alignment.
        hot(4)
        program = assemble(self.WALK)

        def make():
            machine = Machine(program, memory=Memory(
                2048, require_alignment=fault == "misaligned"), resilience=resilience)
            if fault == "misaligned":
                machine.trigger = (1400, lambda: machine.state.scalar.__setitem__(
                    1, machine.state.scalar[1] + 1))
            return machine

        before = len(taken)
        shot = assert_same_outcome(make, runs=3)
        stats = json.loads(shot["stats"])
        assert stats["faults"] == (1 if resilience == "halt" else stats["degraded_issues"])
        assert stats["faults"] >= 1 and len(taken) > before

    @pytest.mark.parametrize("resilience", ["degrade", "halt"])
    def test_controller_fault_on_a_paired_v_op(self, resilience, hot, taken):
        # V ops cannot touch memory, so the V-pipe fault is the step's:
        # mid-run, the route of the state ``paddw mm3, mm2`` (V, paired
        # with the MMX U op ``paddw mm0, mm1``) turns illegal, and the
        # STRICT controller raises on every later step of it.
        hot(4)
        program = assemble(f"""
                mov r3, {DEFAULT_MMIO_BASE}
                mov r4, 1
                mov r0, 300
                stw [r3], r4
        top:    paddw mm0, mm1
                paddw mm3, mm2
                add r5, 1
                loop r0, top
                halt
        """)
        builder = SPUProgramBuilder()
        first = builder.loop(
            [None, {1: halfword_route([(2, 3), (2, 2), (2, 1), (2, 0)])}, None, None], 300)
        spu_program = builder.build()

        def make():
            machine = Machine(program, config=PipelineConfig(extra_stage=True),
                              resilience=resilience)
            machine.state.write(MM[2], 0x0004_0003_0002_0001)
            controller = SPUController(resilience="strict")
            controller.load_program(spu_program)
            attach_spu(machine, controller)

            def corrupt():
                controller.inject_program(corrupt_route(
                    controller.program(0), first + 1, 1, 0, 99))
            machine.trigger = (500, corrupt)
            return machine

        before = len(taken)
        shot = assert_same_outcome(make, runs=3)
        stats = json.loads(shot["stats"])
        assert stats["faults"] == (1 if resilience == "halt" else stats["degraded_issues"])
        assert stats["faults"] >= 1 and len(taken) > before


#: Six issues per iteration, all in the block at ``top``.
SIX = """
        mov r0, 100
top:    add r1, 1
        add r2, r1
        imul r3, r1
        movd mm0, r3
        paddw mm1, mm0
        loop r0, top
        halt
"""


class TestTrigger:
    """An armed trigger bounds which blocks a run enters."""

    def make(self, program, index, issued):
        machine = Machine(program)
        issue = machine._issue_uop

        def counted(*args):
            issued.append(1)
            return issue(*args)

        def fire():
            fired.append(len(issued))
            machine.state.scalar[1] += 5  # r1 feeds every later result

        fired = []
        machine._issue_uop = counted
        machine.trigger = (index, fire)
        machine.fired = fired
        return machine

    # Iteration 40 issues run-wide indices 241..246; 246 is the last issue
    # of its block.
    # 601 is ``halt``, which follows the last iteration's block by its
    # fall-through exit.
    @pytest.mark.parametrize("index, per_uop_issues",
                             [(245, 5), (246, 6), (247, 1), (601, 1)])
    def test_trigger_around_a_blocks_last_issue(self, index, per_uop_issues, hot):
        hot(2)
        program = assemble(SIX)
        issued = []
        assert_same(lambda: self.make(program, index, issued))
        # Warm: ``mov`` and iteration 0 run in the entry pc's block, and
        # every later iteration whose block ends before the trigger's issue
        # runs in the loop's block; the issue loop runs the rest of the
        # trigger's iteration up to that issue.
        issued.clear()
        machine = self.make(program, index, issued)
        machine.run()
        assert machine.fired == [per_uop_issues]

    def test_trigger_fires_mid_loop_then_blocks(self, hot):
        hot(4)
        program = assemble(SIX)
        issued = []
        assert_same(lambda: self.make(program, 300, issued))
        issued.clear()
        machine = self.make(program, 300, issued)
        machine.run()
        # Of 602 issues, the issue loop runs only a few around the trigger's
        # (and the rest of an iteration after a guard exit): blocks run
        # before the trigger fires and after it.
        assert machine.fired[0] < 20 and len(issued) - machine.fired[0] < 20

    def test_armed_run_marks_each_exit_once(self, hot, taken):
        # While armed, each exit is folded as it is taken (the trigger reads
        # the live issue count), but its first-issue order is set once.
        hot(2)
        program = assemble(SIX)
        issued = []
        machine = self.make(program, 500, issued)
        machine.run()
        assert machine.fired and len(issued) < 100  # blocks ran while armed
        assert taken and len(taken) == len({id(exit) for exit in taken})


class TestSharing:
    """Programs with the same text share one translation table."""

    KEY = (False, 2, 1, False)

    def test_same_text_shares_one_translation(self, hot, taken):
        hot(4)
        first, second = assemble(LOOP), assemble(LOOP)
        expected = per_uop(Machine(assemble(LOOP))).run().as_dict()
        Machine(first).run()
        heads = first._block_cache[self.KEY]
        fns = {pc: head.fn for pc, head in heads.items() if head.fn is not None}
        assert fns
        before = len(taken)
        machine = Machine(second)
        stats = machine.run()
        assert second._block_cache is first._block_cache
        assert all(a is b for a, b in zip(second.instructions, first.instructions))
        assert {pc: head.fn for pc, head in heads.items() if head.fn is not None} == fns
        assert len(taken) > before
        assert stats.as_dict() == expected

    def test_registry_bound_evicts_without_changing_counts(self, hot, monkeypatch):
        hot(4)
        monkeypatch.setattr(blocks, "SHARED_TEXTS", 2)
        texts = [LOOP.replace("5000", str(n)) for n in (300, 301, 302)]
        expected = [snapshot(m, m.run()) for m in
                    (per_uop(Machine(assemble(text))) for text in texts)]
        tables = []
        # Texts 0, 1, 2 (2 evicts 0), then 2 and 1 (both shared), then 0
        # (a fresh table, evicting 2, the least recently used).
        for which in (0, 1, 2, 2, 1, 0, 2):
            program = assemble(texts[which])
            machine = Machine(program)
            assert snapshot(machine, machine.run()) == expected[which]
            tables.append(program._block_cache)
        assert len(blocks._shared) == 2
        assert tables[3] is tables[2] and tables[4] is tables[1]
        assert tables[5] is not tables[0] and tables[6] is not tables[2]

    @pytest.mark.parametrize("variant", ["mmx", "spu"])
    def test_profile_of_a_warmed_text_keeps_uop_cache_numbers(self, variant, hot):
        hot(64)
        # The last profile's loops run in recorded blocks from their first
        # entry, so its program decodes their pcs only when it folds them.
        cold = variant_report(build_kernel("FIR12"), variant)
        warm = build_kernel("FIR12")
        for _ in range(2):
            variant_report(warm, variant)
        assert variant_report(build_kernel("FIR12"), variant) == cold
