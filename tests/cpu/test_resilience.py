"""Failure posture of the machine layer: watchdog, modes, memory faults."""

import pytest

from repro.cpu import Machine, Memory, PipelineConfig
from repro.errors import MemoryFault, SimulationError
from repro.isa import assemble
from repro.obs import Reader, Recorder
from repro.resilience import ResilienceMode


def machine_of(source, **kwargs):
    return Machine(assemble(source), **kwargs)


class RunEnds(Reader):
    """Recorder reader collecting ``(cycles, finished)`` at each run's end."""

    def __init__(self, machine) -> None:
        self.ends = []
        Recorder.add(machine, self)

    def on_end(self, recorder) -> None:
        self.ends.append((recorder.cycles, recorder.finished))


INFINITE = "top: jmp top\nhalt"

#: movq from r0 (address loaded at runtime) then a countable epilogue.
LOAD_AT = "mov r0, {address}\nmovq mm0, [r0]\npaddw mm1, mm2\nhalt"
STORE_AT = "mov r0, {address}\nmovq [r0], mm0\npaddw mm1, mm2\nhalt"


class TestResilienceMode:
    def test_parse_accepts_strings_and_none(self):
        assert ResilienceMode.parse(None) is ResilienceMode.STRICT
        assert ResilienceMode.parse("degrade") is ResilienceMode.DEGRADE
        assert ResilienceMode.parse("HALT") is ResilienceMode.HALT
        assert ResilienceMode.parse(ResilienceMode.STRICT) is ResilienceMode.STRICT

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="strict"):
            ResilienceMode.parse("lenient")


class TestWatchdog:
    def test_default_watchdog_is_armed(self):
        """Runaway protection is on by default, not opt-in."""
        assert PipelineConfig().max_cycles == 200_000_000
        assert machine_of(INFINITE).config.max_cycles == 200_000_000

    def test_infinite_loop_raises_simulation_error(self):
        machine = machine_of(INFINITE)
        with pytest.raises(SimulationError, match="cycle budget"):
            machine.run(max_cycles=500)

    def test_watchdog_error_carries_partial_stats(self):
        machine = machine_of(INFINITE)
        with pytest.raises(SimulationError) as excinfo:
            machine.run(max_cycles=500)
        stats = excinfo.value.stats
        assert stats.finished is False
        assert stats.cycles >= 500
        assert stats.instructions > 0

    def test_watchdog_emits_fault_and_run_end(self):
        """The fault is the raised error; the run end closes the recording."""
        machine = machine_of(INFINITE)
        ends = RunEnds(machine).ends
        with pytest.raises(SimulationError, match="cycle budget") as excinfo:
            machine.run(max_cycles=200)
        assert ends == [(excinfo.value.stats.cycles, False)]

    def test_config_override_still_works(self):
        machine = machine_of(
            INFINITE, config=PipelineConfig(max_cycles=300)
        )
        with pytest.raises(SimulationError, match="cycle budget"):
            machine.run()


class TestMemoryFaultStrict:
    def test_misaligned_packed_load_reports_address_and_size(self):
        source = LOAD_AT.format(address=0x1003)
        machine = machine_of(source, memory=Memory(require_alignment=True))
        with pytest.raises(MemoryFault, match="misaligned") as excinfo:
            machine.run()
        assert excinfo.value.address == 0x1003
        assert excinfo.value.size == 8

    def test_misaligned_packed_store_reports_address_and_size(self):
        source = STORE_AT.format(address=0x2006)
        machine = machine_of(source, memory=Memory(require_alignment=True))
        with pytest.raises(MemoryFault, match="misaligned") as excinfo:
            machine.run()
        assert excinfo.value.address == 0x2006
        assert excinfo.value.size == 8

    def test_aligned_access_passes_with_alignment_required(self):
        source = LOAD_AT.format(address=0x1008)
        machine = machine_of(source, memory=Memory(require_alignment=True))
        assert machine.run().finished

    def test_out_of_range_load_reports_address_and_size(self):
        address = (1 << 20) - 4  # last 8-byte load straddles the end
        machine = machine_of(LOAD_AT.format(address=address))
        with pytest.raises(MemoryFault, match="out of range") as excinfo:
            machine.run()
        assert excinfo.value.address == address
        assert excinfo.value.size == 8

    def test_strict_is_the_default_mode(self):
        machine = machine_of("halt")
        assert machine.resilience is ResilienceMode.STRICT


class TestMemoryFaultDegrade:
    def run_degraded(self, source, **kwargs):
        return machine_of(source, resilience="degrade", **kwargs).run()

    def test_faulting_issue_degrades_to_noop(self):
        source = LOAD_AT.format(address=0x1003)
        stats = self.run_degraded(source, memory=Memory(require_alignment=True))
        assert stats.finished
        assert stats.faults == 1
        assert stats.degraded_issues == 1
        # The dropped movq issued nothing; the rest of the program ran.
        assert stats.instructions == 3

    def test_degrade_absorbs_the_fault_strict_raises(self):
        source = STORE_AT.format(address=0x2006)
        stats = self.run_degraded(source, memory=Memory(require_alignment=True))
        assert (stats.finished, stats.faults, stats.degraded_issues) == (True, 1, 1)
        strict = machine_of(source, memory=Memory(require_alignment=True))
        with pytest.raises(MemoryFault) as excinfo:
            strict.run()
        assert (excinfo.value.address, excinfo.value.size) == (0x2006, 8)

    def test_out_of_range_load_degrades(self):
        address = (1 << 20) - 4
        stats = self.run_degraded(LOAD_AT.format(address=address))
        assert stats.finished
        assert (stats.faults, stats.degraded_issues) == (1, 1)

    def test_attribution_invariant_survives_degraded_issues(self):
        source = LOAD_AT.format(address=0x1003)
        stats = self.run_degraded(source, memory=Memory(require_alignment=True))
        assert sum(stats.attribution().values()) == stats.cycles

    def test_stats_dict_exposes_fault_counters(self):
        stats = self.run_degraded(
            LOAD_AT.format(address=0x1003), memory=Memory(require_alignment=True)
        )
        as_dict = stats.as_dict()
        assert as_dict["faults"] == 1
        assert as_dict["degraded_issues"] == 1


class TestHaltMode:
    def test_halt_fail_stops_cleanly(self):
        source = LOAD_AT.format(address=0x1003)
        machine = machine_of(
            source, memory=Memory(require_alignment=True), resilience="halt"
        )
        ends = RunEnds(machine).ends
        stats = machine.run()  # no exception: a clean fail-stop
        assert stats.finished is False
        assert stats.faults == 1
        assert stats.degraded_issues == 0
        assert ends == [(stats.cycles, False)]

    def test_clean_program_unaffected_by_halt_mode(self):
        machine = machine_of("paddw mm0, mm1\nhalt", resilience="halt")
        stats = machine.run()
        assert stats.finished
        assert stats.faults == 0
