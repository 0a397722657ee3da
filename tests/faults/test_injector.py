"""Injector semantics: firing, per-kind effects, clone isolation."""

import numpy as np
import pytest

from repro.core import SPUController, SPUProgram
from repro.core.program import SPUState
from repro.errors import RouteError, SPUProgramError
from repro.faults import FaultInjector, FaultSpec, clone_spu_program
from repro.kernels import make_kernel
from repro.resilience import ResilienceMode


def spu_machine(kernel, **kwargs):
    return kernel.machine("spu", **kwargs)


class TestCloneProgram:
    def test_corrupting_the_clone_leaves_the_original_intact(self):
        kernel = make_kernel("DotProduct")
        _, programs = kernel.spu_programs()
        context, original = programs[0]
        clone = clone_spu_program(original)
        index = sorted(original.states)[0]
        clone.states[index] = SPUState(cntr=0, next0=5, next1=5)
        assert original.states[index] != clone.states[index]
        assert original.counter_init == clone.counter_init


class TestInjectorFiring:
    def test_requires_an_attached_spu(self):
        kernel = make_kernel("DotProduct")
        machine = kernel.machine("mmx")
        spec = FaultSpec("register_bit", trigger=0, byte=0, bit=0)
        with pytest.raises(ValueError, match="attach"):
            FaultInjector(machine, spec)

    def test_fires_once_at_the_trigger(self):
        kernel = make_kernel("DotProduct")
        machine = spu_machine(kernel)
        spec = FaultSpec("register_bit", trigger=40, byte=60, bit=0)
        injector = FaultInjector(machine, spec)
        machine.run()
        assert injector.fired
        assert injector.apply_error is None
        assert "byte 60" in injector.applied
        assert machine.trigger is None  # the one-shot slot emptied itself

    def test_one_trigger_per_machine(self):
        kernel = make_kernel("DotProduct")
        machine = spu_machine(kernel)
        spec = FaultSpec("register_bit", trigger=3, byte=0, bit=0)
        first = FaultInjector(machine, spec)
        with pytest.raises(ValueError, match="already armed"):
            FaultInjector(machine, spec)
        first.detach()
        FaultInjector(machine, spec)

    def test_detach_disarms(self):
        kernel = make_kernel("DotProduct")
        machine = spu_machine(kernel)
        injector = FaultInjector(
            machine, FaultSpec("register_bit", trigger=0, byte=0, bit=0)
        )
        injector.detach()
        machine.run()
        assert not injector.fired


class TestPerKindEffects:
    def test_register_bit_flip_in_routed_byte_corrupts_silently(self):
        kernel = make_kernel("DotProduct")
        reference = np.asarray(kernel.reference())
        machine = spu_machine(kernel, resilience="degrade")
        FaultInjector(machine, FaultSpec("register_bit", trigger=5, byte=1, bit=0))
        stats = machine.run()
        output = np.asarray(kernel.extract(machine))
        assert stats.finished
        # An SEU raises no alarms ...
        assert stats.faults == 0
        assert machine.spu.stats.serialized_operands == 0
        assert machine.spu.controller.stats.fault_parks == 0
        assert not np.array_equal(output, reference)  # ... but poisons the output

    def test_out_of_window_route_raises_in_strict_mode(self):
        kernel = make_kernel("DotProduct")
        _, programs = kernel.spu_programs()
        context, program = programs[0]
        index = next(i for i in sorted(program.states) if program.states[i].routes)
        slot = sorted(program.states[index].routes)[0]
        spec = FaultSpec(
            "route", trigger=0, context=context, state_index=index,
            slot=slot, granule=0, selector=kernel.config.in_ports + 1,
        )
        machine = spu_machine(kernel)  # strict default
        FaultInjector(machine, spec)
        with pytest.raises(RouteError, match="input window"):
            machine.run()

    def test_out_of_window_route_serializes_in_degrade_mode(self):
        kernel = make_kernel("DotProduct")
        _, programs = kernel.spu_programs()
        context, program = programs[0]
        index = next(i for i in sorted(program.states) if program.states[i].routes)
        slot = sorted(program.states[index].routes)[0]
        spec = FaultSpec(
            "route", trigger=0, context=context, state_index=index,
            slot=slot, granule=0, selector=kernel.config.in_ports + 1,
        )
        machine = spu_machine(kernel, resilience="degrade")
        FaultInjector(machine, spec)
        stats = machine.run()
        assert stats.finished
        assert machine.spu.stats.serialized_operands > 0
        # The crossbar absorbed every route error: no issue faulted.
        assert (stats.faults, stats.degraded_issues) == (0, 0)

    def test_injected_clone_does_not_poison_the_kernel_cache(self):
        kernel = make_kernel("DotProduct")
        _, programs = kernel.spu_programs()
        context, program = programs[0]
        index = next(i for i in sorted(program.states) if program.states[i].routes)
        slot = sorted(program.states[index].routes)[0]
        spec = FaultSpec(
            "route", trigger=0, context=context, state_index=index,
            slot=slot, granule=0, selector=kernel.config.in_ports + 1,
        )
        machine = spu_machine(kernel, resilience="degrade")
        FaultInjector(machine, spec)
        machine.run()
        # A fresh machine built from the same kernel instance must be clean.
        clean = spu_machine(kernel)
        stats = clean.run()
        assert stats.finished
        output = np.asarray(kernel.extract(clean))
        assert np.array_equal(output, np.asarray(kernel.reference()))

    def test_go_race_suspend_is_silent_corruption(self):
        kernel = make_kernel("DotProduct")
        reference = np.asarray(kernel.reference())
        # Trigger inside the routed loop so the race suspends a live unit.
        machine = spu_machine(kernel, resilience="degrade")
        FaultInjector(machine, FaultSpec("go_race", trigger=30))
        stats = machine.run()
        assert stats.finished
        output = np.asarray(kernel.extract(machine))
        assert not np.array_equal(output, reference)


class TestControllerFaultHooks:
    def build_controller(self, resilience=None):
        controller = SPUController(contexts=1, resilience=resilience)
        program = SPUProgram(counter_init=(4, 0), name="tiny")
        program.add_state(0, SPUState(cntr=0, next0=program.idle_state, next1=0))
        controller.load_program(program)
        return controller, program

    def test_inject_program_skips_validation(self):
        controller, program = self.build_controller()
        broken = clone_spu_program(program)
        broken.states[0] = SPUState(cntr=0, next0=9, next1=9)  # undefined target
        with pytest.raises(SPUProgramError):
            controller.load_program(broken)  # the validated path refuses ...
        controller.inject_program(broken)  # ... the fault hook does not
        assert controller.program() is broken

    def test_undefined_state_raises_in_strict_mode(self):
        controller, program = self.build_controller(resilience="strict")
        broken = clone_spu_program(program)
        broken.states[0] = SPUState(cntr=0, next0=9, next1=9)
        controller.inject_program(broken)
        controller.go()
        controller.step()  # lands on undefined state 9
        with pytest.raises(SPUProgramError, match="undefined state 9"):
            controller.step()
        assert controller.stats.fault_raises == 1
        assert controller.stats.fault_parks == 0
        assert controller.stats.steps == 1  # the faulting step is not one

    def test_undefined_state_parks_at_idle_in_degrade_mode(self):
        controller, program = self.build_controller(resilience="degrade")
        broken = clone_spu_program(program)
        broken.states[0] = SPUState(cntr=0, next0=9, next1=9)
        controller.inject_program(broken)
        controller.go()
        controller.step()
        assert controller.step() is None  # the park, not a raise
        assert not controller.active
        assert controller.current_state == controller.idle_state
        assert controller.stats.fault_parks == 1
        assert controller.stats.fault_raises == 0
        assert controller.fault_parked

    def test_go_after_park_recovers(self):
        controller, program = self.build_controller(resilience="degrade")
        broken = clone_spu_program(program)
        broken.states[0] = SPUState(cntr=0, next0=9, next1=9)
        controller.inject_program(broken)
        controller.go()
        controller.step()
        controller.step()
        assert controller.fault_parked
        controller.inject_program(program)  # "reflash" the control memory
        controller.go()
        assert not controller.fault_parked
        assert controller.active
        assert controller.stats.park_recoveries == 1

    def test_skew_counter_validates_index(self):
        controller, _ = self.build_controller()
        with pytest.raises(SPUProgramError, match="counter 2"):
            controller.skew_counter(2, 1)

    def test_skew_counter_shifts_the_live_value(self):
        controller, _ = self.build_controller()
        controller.go()
        before = controller.counters[0]
        controller.skew_counter(0, 2)
        assert controller.counters[0] == before + 2

    def test_standalone_controller_defaults_to_strict(self):
        controller, program = self.build_controller()  # resilience=None
        assert controller.resilience is None
        broken = clone_spu_program(program)
        broken.states[0] = SPUState(cntr=0, next0=9, next1=9)
        controller.inject_program(broken)
        controller.go()
        controller.step()
        with pytest.raises(SPUProgramError):
            controller.step()

    def test_attach_inherits_machine_resilience(self):
        kernel = make_kernel("DotProduct")
        machine = spu_machine(kernel, resilience="degrade")
        assert machine.spu.controller.resilience is ResilienceMode.DEGRADE
