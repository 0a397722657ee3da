"""SPU controller tracing: occupancy, transitions and loop counters.

:class:`ControllerTrace` reads the step rows of the machine's recorder.  The
matrix at the end checks each traced run against counters kept without the
recorder: the controller's :class:`ControllerStats`, the attachment's
routed-operand count and ``RunStats.spu_routed``.
"""

import pytest

from repro.core import (
    CONFIG_D_MODED,
    CONFIGS,
    DEFAULT_MMIO_BASE,
    SPUController,
    SPUProgramBuilder,
    SPUState,
    attach_spu,
    halfword_route,
)
from repro.cpu import Machine, PipelineConfig, blocks
from repro.faults.injector import clone_spu_program
from repro.isa import MM, assemble
from repro.kernels import ALL_KERNELS, make_kernel
from repro.kernels.fft import FFTKernel
from repro.obs import ControllerTrace, spu
from repro.obs.recorder import Reader, Recorder
from repro.resilience import ResilienceMode


@pytest.fixture(scope="module")
def traced_dotprod():
    machine = make_kernel("DotProduct").machine("spu")
    trace = ControllerTrace().attach(machine)
    stats = machine.run()
    return machine, trace, stats


class TestControllerTrace:
    def test_steps_once_per_active_instruction(self, traced_dotprod):
        machine, trace, stats = traced_dotprod
        assert 0 < trace.steps <= trace.issues == stats.instructions
        assert 0.0 < trace.go_occupancy <= 1.0
        assert sum(trace.steps_by_context.values()) == trace.steps

    def test_occupancy_and_transitions_account_every_step(self, traced_dotprod):
        _, trace, _ = traced_dotprod
        assert sum(trace.state_occupancy.values()) == trace.steps
        assert sum(trace.transitions.values()) == trace.steps

    def test_routed_instructions_match_stats(self, traced_dotprod):
        _, trace, stats = traced_dotprod
        assert trace.routed_instructions == stats.spu_routed > 0
        assert trace.routed_steps >= trace.routed_instructions > 0
        assert sum(trace.routed_slots.values()) >= trace.routed_instructions

    def test_controller_goes_idle_after_each_loop(self, traced_dotprod):
        machine, trace, _ = traced_dotprod
        assert trace.idle_entries >= 1
        assert trace.idle_entries == machine.spu.controller.stats.activations

    def test_counter_log_records_countdown(self, traced_dotprod):
        _, trace, _ = traced_dotprod
        assert trace.counter_log
        assert all(len(entry) == 3 for entry in trace.counter_log)
        # CNTR0 must actually move (zero-overhead looping, §4).
        values = {cntr0 for _, cntr0, _ in trace.counter_log}
        assert len(values) > 1

    def test_as_dict_is_json_shaped(self, traced_dotprod):
        import json

        _, trace, _ = traced_dotprod
        data = trace.as_dict()
        json.dumps(data)  # string keys throughout
        assert data["steps"] == trace.steps
        assert all("->" in key for key in data["transitions"])
        assert data["num_states"] == 128
        assert data["activations"] >= 1

    def test_detach(self):
        machine = make_kernel("DotProduct").machine("spu")
        trace = ControllerTrace().attach(machine)
        trace.detach()
        machine.run()
        assert trace.steps == 0 and trace.issues == 0

    def test_counter_log_cap(self, monkeypatch):
        monkeypatch.setattr(spu, "COUNTER_LOG_LIMIT", 3)
        machine = make_kernel("DotProduct").machine("spu")
        trace = ControllerTrace().attach(machine)
        machine.run()
        assert [step for step, _, _ in trace.counter_log] == [1, 2, 3]
        assert trace.as_dict()["counter_log_truncated"]

    def test_mmx_variant_sees_no_controller_steps(self):
        machine = make_kernel("DotProduct").machine("mmx")
        trace = ControllerTrace().attach(machine)
        stats = machine.run()
        assert trace.steps == 0
        assert trace.issues == stats.instructions
        assert trace.go_occupancy == 0.0


# ---- the trace against independent counters ---------------------------------


class Rows(Reader):
    """Every step row of a run, as a list."""

    def __init__(self):
        self.rows = []

    def on_chunk(self, chunk):
        self.rows.extend(chunk.steps.tolist())


def build_kernel(name, **kwargs):
    if name == "FFT1024":  # the --fast size, as ExperimentSuite(fast=True)
        kernel = FFTKernel(n=256, **kwargs)
        kernel.name = name
        return kernel
    return make_kernel(name, **kwargs)


def traced_run(machine, chunk_size=None):
    trace = ControllerTrace().attach(machine)
    rows = Rows()
    Recorder.add(machine, rows)
    if chunk_size is not None:
        machine.recorder.chunk_size = chunk_size
    stats = machine.run()
    trace.detach()
    machine.recorder.remove(rows)
    return trace, rows.rows, stats


def assert_accounts(machine, trace, rows, stats):
    """The trace agrees with the controller's and the attachment's counters.

    A step that parks the controller completes nothing: it is neither
    counted nor recorded.
    """
    controller = machine.spu.controller
    counted = controller.stats
    assert trace.steps == len(rows) == counted.steps
    assert trace.routed_steps == counted.routed_steps
    assert trace.idle_entries == counted.idle_entries
    assert trace.routed_instructions == stats.spu_routed
    assert sum(trace.routed_slots.values()) == machine.spu.stats.routed_operands
    for context, _, next_state, cntr0, cntr1, _ in rows:
        if next_state == controller.idle_state:
            assert (cntr0, cntr1) == tuple(controller.program(context).counter_init)


class TestAgainstIndependentCounters:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("name", list(ALL_KERNELS))
    def test_kernels(self, name, config):
        # Cold, then warm: the second run takes translated blocks.
        kernel = build_kernel(name, config=CONFIGS[config])
        for _ in range(2):
            machine = kernel.machine("spu")
            trace, rows, stats = traced_run(machine)
            assert_accounts(machine, trace, rows, stats)

    def test_dct_contexts(self):
        machine = make_kernel("DCT").machine("spu")
        trace, rows, stats = traced_run(machine)
        assert sorted(trace.steps_by_context) == [0, 1, 2, 3]
        assert_accounts(machine, trace, rows, stats)

    @pytest.mark.parametrize("chunk_size", [1, 5, 64])
    @pytest.mark.parametrize("name", ["DCT", "FIR12"])
    def test_chunk_sizes(self, name, chunk_size):
        kernel = make_kernel(name)
        expected = traced_run(kernel.machine("spu"))[0].as_dict()
        machine = kernel.machine("spu")
        trace, rows, stats = traced_run(machine, chunk_size)
        assert trace.as_dict() == expected
        assert_accounts(machine, trace, rows, stats)

    def test_operand_modes(self):
        # D+ routes with negation and byte sign/zero extension.
        program = assemble(f"""
                mov r3, {DEFAULT_MMIO_BASE}
                mov r4, 1
                mov r0, 100
        top:    stw [r3], r4
                paddw mm0, mm1
                paddw mm3, mm1
                paddw mm4, mm1
                paddw mm1, mm5
                loop r0, top
                halt
        """)
        builder = SPUProgramBuilder(config=CONFIG_D_MODED)
        builder.loop([{1: tuple((8 + i, "neg") for i in range(4))},
                      {1: tuple((8 + i, "sxb") for i in range(4))},
                      {1: ((8, "zxb"), 9, None, (11, "zxb"))}, None], 1)
        machine = Machine(program, config=PipelineConfig(extra_stage=True))
        machine.state.write(MM[2], 0x80FF_7F01_0203_FF80)
        controller = SPUController(config=CONFIG_D_MODED)
        controller.load_program(builder.build())
        attach_spu(machine, controller)
        trace, rows, stats = traced_run(machine)
        assert stats.spu_routed == 300
        assert trace.routed_slots == {1: 300}
        assert_accounts(machine, trace, rows, stats)

    def test_nested_loop_counter_reload(self):
        # CNTR0 auto-reloads on each inner-loop exit; CNTR1 counts rows.
        program = assemble(f"""
                mov r10, {DEFAULT_MMIO_BASE}
                mov r0, 100
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
        builder.two_level_loop([{1: swap}, None, None], 3, [None, None, None], 100)
        machine = Machine(program, config=PipelineConfig(extra_stage=True))
        controller = SPUController()
        controller.load_program(builder.build())
        attach_spu(machine, controller)
        trace, rows, stats = traced_run(machine)
        inner, outer = controller.program(0).counter_init
        assert {cntr0 for _, _, _, cntr0, _, _ in rows} == set(range(1, inner + 1))
        assert {cntr1 for _, _, _, _, cntr1, _ in rows} == set(range(1, outer + 1))
        assert trace.idle_entries == 1
        assert_accounts(machine, trace, rows, stats)

    @staticmethod
    def parked_run(next1):
        """FIR12 on a DEGRADE controller whose entry state's next1 is *next1*."""
        machine = make_kernel("FIR12").machine("spu")
        controller = machine.spu.controller
        controller.resilience = ResilienceMode.DEGRADE
        clone = clone_spu_program(controller.program(0))
        entry = clone.states[clone.entry]
        clone.states[clone.entry] = SPUState(
            cntr=entry.cntr, routes=entry.routes, next0=entry.next0, next1=next1)
        controller.inject_program(clone)
        trace, rows, stats = traced_run(machine)
        parks = controller.stats.fault_parks
        assert parks > 0
        assert trace.as_dict()["fault_parks"] == parks
        assert_accounts(machine, trace, rows, stats)
        return rows, parks

    def test_degrade_park(self):
        # The entry state's next1 is out of range: each activation's first
        # step parks the controller, and the next GO re-arms it.
        rows, _ = self.parked_run(128)
        assert rows == []

    def test_degrade_park_on_undefined_state(self):
        # next1 is in range but names no state: the entry step completes,
        # and the step after it parks on the undefined state.
        rows, parks = self.parked_run(100)
        assert len(rows) == parks
        assert {next_state for _, _, next_state, _, _, _ in rows} == {100}

    def test_traced_run_takes_translated_exits(self, monkeypatch):
        taken = []
        first_issue = blocks.first_issue

        def spy(exit, *args):
            taken.append(exit)
            first_issue(exit, *args)

        kernel = make_kernel("MatrixMultiply")
        kernel.machine("spu").run()
        monkeypatch.setattr(blocks, "first_issue", spy)
        machine = kernel.machine("spu")
        trace, rows, stats = traced_run(machine)
        assert taken
        assert_accounts(machine, trace, rows, stats)
