"""SPU controller tracing: microprogram activity from bus events.

Subscribes to the ``controller_step`` and ``spu_route`` topics, reads the
issue count from the machine's columnar recorder
(:mod:`repro.obs.recorder`), and accumulates, per run:

- **state occupancy** — dynamic steps spent in each of the K microprogram
  states (the hardware-counter view the paper's methodology leans on);
- **transitions** — ``(state, next_state)`` edge counts, including the edge
  into the idle state;
- **loop-counter timeline** — post-step CNTR0/CNTR1 values (capped);
- **GO/idle occupancy** — the fraction of all issued dynamic instructions
  the controller was active for (it steps exactly once per dynamic
  instruction while GO is set, §4);
- **routing** — how many steps emitted crossbar routes, and per-slot counts.
"""

from __future__ import annotations

from collections import Counter

from repro.obs.events import ControllerStepEvent, SPURouteEvent
from repro.obs.recorder import Reader, Recorder


class ControllerTrace(Reader):
    """Event-bus subscriber recording SPU controller activity.

    Usage::

        trace = ControllerTrace().attach(machine)
        stats = machine.run()
        print(trace.go_occupancy, trace.state_occupancy)
        trace.detach()
    """

    def __init__(self, counter_log_limit: int = 4096) -> None:
        self.counter_log_limit = counter_log_limit
        #: state index -> dynamic steps emitted from that state.
        self.state_occupancy: Counter = Counter()
        #: (state, next_state) -> traversal count.
        self.transitions: Counter = Counter()
        #: (step#, cntr0, cntr1) snapshots, capped at counter_log_limit.
        self.counter_log: list[tuple[int, int, int]] = []
        #: operand slot -> instructions that received a routed value there.
        self.routed_slots: Counter = Counter()
        self.steps = 0
        self.routed_steps = 0
        self.routed_instructions = 0
        self.idle_entries = 0
        #: Controller steps per context (contexts step independently).
        self.steps_by_context: Counter = Counter()
        #: All dynamic instructions issued by the machine (GO set or not).
        self.issues = 0
        self._unsubscribes: list = []
        self._recorder = None
        self._controller = None

    # -- wiring ---------------------------------------------------------------

    def attach(self, machine) -> "ControllerTrace":
        """Subscribe to *machine*'s bus; returns ``self`` for chaining.

        When the machine has an attached SPU, static controller facts
        (activations, context switches) are pulled from its stats at export
        time.
        """
        bus = machine.bus
        self._unsubscribes = [
            bus.subscribe("controller_step", self._on_step),
            bus.subscribe("spu_route", self._on_route),
        ]
        self._recorder = Recorder.add(machine, self)
        spu = getattr(machine, "spu", None)
        self._controller = getattr(spu, "controller", None)
        return self

    def detach(self) -> None:
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes = []
        if self._recorder is not None:
            self._recorder.remove(self)
            self._recorder = None

    # -- event handlers -------------------------------------------------------

    def _on_step(self, event: ControllerStepEvent) -> None:
        self.steps += 1
        self.state_occupancy[event.state_index] += 1
        self.transitions[(event.state_index, event.next_index)] += 1
        self.steps_by_context[event.context] += 1
        if event.routed:
            self.routed_steps += 1
        if event.went_idle:
            self.idle_entries += 1
        if len(self.counter_log) < self.counter_log_limit:
            self.counter_log.append((self.steps, *event.counters))

    def _on_route(self, event: SPURouteEvent) -> None:
        self.routed_instructions += 1
        for slot in event.slots:
            self.routed_slots[slot] += 1

    def on_chunk(self, chunk) -> None:
        self.issues += len(chunk)

    # -- views ----------------------------------------------------------------

    @property
    def go_occupancy(self) -> float:
        """Fraction of dynamic instructions with the controller active."""
        return self.steps / self.issues if self.issues else 0.0

    def hottest_states(self, count: int = 8) -> list[tuple[int, int]]:
        return self.state_occupancy.most_common(count)

    def as_dict(self) -> dict:
        """JSON-friendly summary (string keys throughout)."""
        controller = self._controller
        data = {
            "steps": self.steps,
            "routed_steps": self.routed_steps,
            "routed_instructions": self.routed_instructions,
            "issues": self.issues,
            "go_occupancy": self.go_occupancy,
            "idle_entries": self.idle_entries,
            "state_occupancy": {
                str(state): count
                for state, count in sorted(self.state_occupancy.items())
            },
            "transitions": {
                f"{src}->{dst}": count
                for (src, dst), count in sorted(self.transitions.items())
            },
            "steps_by_context": {
                str(context): count
                for context, count in sorted(self.steps_by_context.items())
            },
            "routed_slots": {
                str(slot): count
                for slot, count in sorted(self.routed_slots.items())
            },
            "counter_log": [list(entry) for entry in self.counter_log],
            "counter_log_truncated": self.steps > len(self.counter_log),
        }
        if controller is not None:
            data["activations"] = controller.stats.activations
            data["context_switches"] = controller.stats.context_switches
            data["num_states"] = controller.num_states
            data["contexts"] = controller.contexts
            # Degrade-mode visibility: clean completions vs fault parks vs
            # GO re-arms are disjoint counters on the controller itself.
            data["clean_idle_entries"] = controller.stats.idle_entries
            data["fault_parks"] = controller.stats.fault_parks
            data["park_recoveries"] = controller.stats.park_recoveries
        return data
