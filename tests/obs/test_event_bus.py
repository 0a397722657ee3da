"""The retired event bus stays retired.

A run's issues, stalls, branches and controller steps are read from the
recorder, by as many readers as like; faults, degradations and
recoveries are counted in the components' stats; ``repro.obs.events``
holds only the ``/v1/events`` record types of ``repro serve``.
"""

from repro.cpu import Machine, trace_run
from repro.isa import assemble
from repro.kernels import make_kernel
from repro.obs import TraceProfiler


def machine_of(source, **kwargs):
    return Machine(assemble(source), **kwargs)


LOOP = "mov r0, 5\ntop: paddw mm0, mm1\nloop r0, top\nhalt"


class TestBusOnMachine:
    def test_profile_and_trace_observe_one_run(self):
        """The original single-slot hook's failure mode, now supported:
        two recorder readers watch one run."""
        from repro.analysis import profile

        machine = machine_of(LOOP)
        profiler = TraceProfiler().attach(machine)
        trace = trace_run(machine)
        assert profiler.total_instructions == len(trace) == trace.stats.instructions
        assert profiler.attributed_cycles() == trace.stats.cycles
        profiler.detach()
        assert machine.recorder is None
        # And the profiler path still works independently on a fresh machine.
        prof = profile(machine_of(LOOP))
        assert prof.total == trace.stats.instructions


class TestOnIssueRemoved:
    def test_legacy_hook_is_gone(self):
        """The deprecated single-slot shim was removed; recorder readers replace it."""
        machine = machine_of(LOOP)
        assert not hasattr(type(machine), "on_issue")

    def test_machine_run_topics_are_gone(self):
        """No machine carries a bus: runs are read from the recorder, and
        faults are counted in ``RunStats``."""
        import repro
        import repro.obs

        assert not hasattr(machine_of(LOOP), "bus")
        for name in ("EventBus", "TOPICS", "SubscriberError", "FaultEvent",
                     "DegradeEvent", "RecoveryEvent", "TaskStartEvent",
                     "TaskDoneEvent"):
            assert not hasattr(repro.obs, name), name
        assert not hasattr(repro, "EventBus")

    def test_controller_topics_are_gone(self):
        """Controller steps and routed slots are read from the recorder;
        parks, raises and recoveries are ``ControllerStats`` counters."""
        import repro.obs

        spu = make_kernel("DotProduct").machine("spu").spu
        assert not hasattr(spu, "bus")
        assert not hasattr(spu.controller, "bus")
        assert not hasattr(repro.obs, "ControllerStepEvent")
        assert not hasattr(repro.obs, "SPURouteEvent")
