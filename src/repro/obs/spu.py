"""SPU controller tracing: microprogram activity from the recorder.

A :class:`~repro.obs.recorder.Reader` of the machine's columnar recorder
(:mod:`repro.obs.recorder`): the issue count comes from its issue columns
and every completed controller step from its ``steps`` column, which the
per-uop loop and translated blocks both write.  Per run it accumulates:

- **state occupancy** — dynamic steps spent in each of the K microprogram
  states (the hardware-counter view the paper's methodology leans on);
- **transitions** — ``(state, next_state)`` edge counts, including the edge
  into the idle state;
- **loop-counter timeline** — post-step CNTR0/CNTR1 values (capped at
  :data:`COUNTER_LOG_LIMIT`);
- **GO/idle occupancy** — the fraction of all issued dynamic instructions
  the controller was active for (it steps exactly once per dynamic
  instruction while GO is set, §4);
- **routing** — how many steps emitted crossbar routes, and per-slot counts.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.obs.recorder import STATE_ROUTES, Reader, Recorder, route_bits

#: Counter-timeline entries kept per trace.
COUNTER_LOG_LIMIT = 4096


def _count(counter: Counter, column: np.ndarray) -> None:
    """Add the occurrences of each value of *column* to *counter*."""
    values, counts = np.unique(column, return_counts=True)
    counter.update(dict(zip(values.tolist(), counts.tolist())))


class ControllerTrace(Reader):
    """Recorder reader summarising SPU controller activity.

    Usage::

        trace = ControllerTrace().attach(machine)
        stats = machine.run()
        print(trace.go_occupancy, trace.state_occupancy)
        trace.detach()
    """

    def __init__(self) -> None:
        #: state index -> dynamic steps emitted from that state.
        self.state_occupancy: Counter = Counter()
        #: (state, next_state) -> traversal count.
        self.transitions: Counter = Counter()
        #: (step#, cntr0, cntr1) snapshots, capped at COUNTER_LOG_LIMIT.
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
        self._recorder = None
        self._controller = None

    # -- wiring ---------------------------------------------------------------

    def attach(self, machine) -> "ControllerTrace":
        """Read *machine*'s recorder; returns ``self`` for chaining.

        When the machine has an attached SPU, static controller facts
        (activations, context switches) are pulled from its stats at export
        time.
        """
        self._recorder = Recorder.add(machine, self)
        spu = getattr(machine, "spu", None)
        self._controller = getattr(spu, "controller", None)
        return self

    def detach(self) -> None:
        if self._recorder is not None:
            self._recorder.remove(self)
            self._recorder = None

    # -- recorder columns -----------------------------------------------------

    def on_chunk(self, chunk) -> None:
        self.issues += len(chunk)
        rows = chunk.steps
        if not len(rows):
            return
        bits = rows[:, 5]
        _count(self.steps_by_context, rows[:, 0])
        _count(self.state_occupancy, rows[:, 1])
        edges: Counter = Counter()
        _count(edges, rows[:, 1] << 32 | rows[:, 2])
        self.transitions.update({(edge >> 32, edge & 0xFFFFFFFF): count
                                 for edge, count in edges.items()})
        self.routed_steps += int(np.count_nonzero(bits & STATE_ROUTES))
        self.routed_instructions += int(np.count_nonzero(bits >> 1))
        self.routed_slots.update({
            slot: routed for slot in (0, 1)
            if (routed := int(np.count_nonzero(bits & route_bits(False, (slot,)))))})
        if self._controller is not None:
            self.idle_entries += int(np.count_nonzero(
                rows[:, 2] == self._controller.num_states - 1))
        room = COUNTER_LOG_LIMIT - len(self.counter_log)
        if room > 0:
            first = self.steps + 1
            self.counter_log.extend(zip(range(first, first + room), rows[:room, 3].tolist(),
                                        rows[:room, 4].tolist()))
        self.steps += len(rows)

    # -- views ----------------------------------------------------------------

    @property
    def go_occupancy(self) -> float:
        """Fraction of dynamic instructions with the controller active."""
        return self.steps / self.issues if self.issues else 0.0

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
