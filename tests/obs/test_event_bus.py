"""Event-bus semantics: fan-out, isolation, mid-run (un)subscription."""

import pytest

from repro.cpu import Machine, Memory, trace_run
from repro.isa import assemble
from repro.obs import (
    DegradeEvent,
    EventBus,
    FaultEvent,
    SubscriberError,
    TOPICS,
    TraceProfiler,
)


def machine_of(source, **kwargs):
    return Machine(assemble(source), **kwargs)


LOOP = "mov r0, 5\ntop: paddw mm0, mm1\nloop r0, top\nhalt"
#: A misaligned packed load, five times: each one a ``fault`` and a
#: ``degrade`` event on a DEGRADE machine that requires alignment.
FAULTING = "mov r1, 0x1003\nmov r0, 5\ntop: movq mm0, [r1]\nloop r0, top\nhalt"


def faulting_machine():
    return machine_of(FAULTING, memory=Memory(require_alignment=True),
                      resilience="degrade")


class TestBusUnit:
    def test_unknown_topic_rejected(self):
        bus = EventBus()
        with pytest.raises(ValueError, match="unknown topic"):
            bus.subscribe("retired", lambda event: None)

    def test_unsubscribe_callable_is_idempotent(self):
        bus = EventBus()
        unsubscribe = bus.subscribe("fault", lambda event: None)
        assert bus.has_subscribers("fault")
        unsubscribe()
        unsubscribe()
        assert not bus.has_subscribers()

    def test_clear_drops_all_topics(self):
        bus = EventBus()
        for topic in TOPICS:
            bus.subscribe(topic, lambda event: None)
        bus.clear()
        assert not bus.has_subscribers()

    def test_dispatch_order_is_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe("fault", lambda event: order.append("first"))
        bus.subscribe("fault", lambda event: order.append("second"))
        bus.dispatch("fault", object())
        assert order == ["first", "second"]

    def test_raising_subscriber_is_recorded_and_dropped(self):
        bus = EventBus()
        seen = []

        def bad(event):
            raise RuntimeError("observer bug")

        bus.subscribe("fault", bad)
        bus.subscribe("fault", seen.append)
        bus.dispatch("fault", "a")
        bus.dispatch("fault", "b")
        assert seen == ["a", "b"]
        assert len(bus.errors) == 1
        error = bus.errors[0]
        assert isinstance(error, SubscriberError)
        assert error.topic == "fault" and error.subscriber is bad
        assert isinstance(error.error, RuntimeError)
        assert bus.subscribers("fault") == [seen.append]

    def test_unsubscribe_during_dispatch_is_safe(self):
        bus = EventBus()
        seen = []
        unsubscribes = []

        def one_shot(event):
            seen.append(event)
            unsubscribes[0]()

        unsubscribes.append(bus.subscribe("fault", one_shot))
        bus.subscribe("fault", lambda event: seen.append(("other", event)))
        bus.dispatch("fault", 1)
        bus.dispatch("fault", 2)
        assert seen == [1, ("other", 1), ("other", 2)]


class TestBusOnMachine:
    def test_multiple_subscribers_see_the_same_run(self):
        machine = faulting_machine()
        first, second = [], []
        machine.bus.subscribe("fault", first.append)
        machine.bus.subscribe("fault", second.append)
        stats = machine.run()
        assert len(first) == stats.faults == 5
        assert first == second
        assert all(isinstance(event, FaultEvent) for event in first)

    def test_topics_fire_in_order(self):
        machine = faulting_machine()
        seen = []
        machine.bus.subscribe("fault", seen.append)
        machine.bus.subscribe("degrade", seen.append)
        stats = machine.run()
        assert [type(event) for event in seen] == [FaultEvent, DegradeEvent] * 5
        assert stats.degraded_issues == 5

    def test_raising_subscriber_does_not_corrupt_the_run(self):
        baseline = faulting_machine().run()
        machine = faulting_machine()

        def bomb(event):
            raise ValueError("boom")

        machine.bus.subscribe("fault", bomb)
        stats = machine.run()
        assert stats.as_dict() == baseline.as_dict()
        assert machine.bus.errors and machine.bus.errors[0].subscriber is bomb
        assert not machine.bus.has_subscribers("fault")

    def test_subscriber_can_unsubscribe_mid_run(self):
        machine = faulting_machine()
        seen = []
        unsubscribes = []

        def two_then_done(event):
            seen.append(event)
            if len(seen) == 2:
                unsubscribes[0]()

        unsubscribes.append(machine.bus.subscribe("degrade", two_then_done))
        stats = machine.run()
        assert len(seen) == 2
        assert stats.degraded_issues == 5

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
        """The deprecated single-slot shim was removed; readers and the bus replace it."""
        machine = machine_of(LOOP)
        assert not hasattr(type(machine), "on_issue")

    def test_machine_run_topics_are_gone(self):
        """A run's issues, stalls and branches are read from the recorder."""
        assert not {"run_start", "issue", "stall", "branch", "run_end"} & set(TOPICS)
        with pytest.raises(ValueError, match="unknown topic"):
            EventBus().subscribe("issue", lambda event: None)

    def test_controller_topics_are_gone(self):
        """Controller steps and routed slots are read from the recorder too."""
        import repro.obs

        assert not {"controller_step", "spu_route"} & set(TOPICS)
        assert not hasattr(repro.obs, "ControllerStepEvent")
        assert not hasattr(repro.obs, "SPURouteEvent")
