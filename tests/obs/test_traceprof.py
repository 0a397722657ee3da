"""Hot-trace profiler: back-edge detection, exact attribution, stability."""

from types import SimpleNamespace

from repro.cpu import Machine
from repro.isa import assemble
from repro.kernels import make_kernel
from repro.obs import TraceProfiler
from repro.obs.recorder import issue_flags

LOOP = "mov r0, 5\ntop: paddw mm0, mm1\nloop r0, top\nhalt"


def machine_of(source, **kwargs):
    return Machine(assemble(source), **kwargs)


class TestOnMachines:
    def test_cycles_attribute_exactly(self):
        machine = machine_of(LOOP)
        profiler = TraceProfiler().attach(machine)
        stats = machine.run()
        profiler.detach()
        assert profiler.attributed_cycles() == stats.cycles
        assert profiler.total_cycles == stats.cycles
        assert profiler.total_instructions == stats.instructions
        assert profiler.finished

    def test_cycles_attribute_exactly_on_kernels(self):
        kernel = make_kernel("DotProduct")
        for variant in ("mmx", "spu"):
            machine = kernel.machine(variant)
            profiler = TraceProfiler().attach(machine)
            stats = machine.run()
            profiler.detach()
            assert profiler.attributed_cycles() == stats.cycles, variant
            assert profiler.total_instructions == stats.instructions, variant

    def test_loop_iterations_aggregate_into_one_trace(self):
        machine = machine_of(LOOP)
        profiler = TraceProfiler().attach(machine)
        machine.run()
        profiler.detach()
        steady = profiler.traces[(1, (1, 2))]
        # 5 iterations: the entry path (prologue + iter 1) and the exit path
        # (iter 5 + halt) key separately; iterations 2-4 aggregate as one
        # steady-state body headed at `top`.
        assert steady.executions == 3
        assert steady.instructions == 6
        bodies = sorted(trace.body for trace in profiler.traces.values())
        assert bodies == [(0, 1, 2), (1, 2), (1, 2, 3)]

    def test_dominant_trace_is_the_kernel_loop(self):
        kernel = make_kernel("DotProduct")
        machine = kernel.machine("spu")
        profiler = TraceProfiler().attach(machine)
        stats = machine.run()
        profiler.detach()
        top = profiler.sorted_traces()[0]
        assert top.head == machine.program.labels["loop"]
        assert top.executions > 1
        assert top.cycles > stats.cycles / 2  # dominates the run
        assert top.head in profiler.stable_heads()

    def test_detach_restores_zero_subscribers(self):
        machine = machine_of(LOOP)
        TraceProfiler().attach(machine).detach()
        assert machine.recorder is None

    def test_observation_is_transparent(self):
        baseline = machine_of(LOOP).run()
        machine = machine_of(LOOP)
        TraceProfiler().attach(machine)
        stats = machine.run()
        assert stats.cycles == baseline.cycles
        assert stats.instructions == baseline.instructions


def synthetic(profiler_kwargs=None):
    """A profiler on a bare recorder, driven by hand-crafted records."""
    target = SimpleNamespace(recorder=None)
    profiler = TraceProfiler(**(profiler_kwargs or {})).attach(target)
    return target.recorder, profiler


def issue(rec, cycle, pc, pipe="U", routed=False, mmx=False):
    rec.issue(pc, cycle, issue_flags(pipe == "V", routed, mmx))


class TestSyntheticStreams:
    def test_back_edge_closes_and_rekeys(self):
        rec, profiler = synthetic()
        rec.start("p", 1)
        for cycle, pc in [(1, 0), (2, 1), (3, 2), (4, 1), (5, 2),
                          (6, 1), (7, 2), (8, 3)]:
            issue(rec, cycle, pc)
        rec.end(10, 8, True)
        bodies = sorted(trace.body for trace in profiler.traces.values())
        assert bodies == [(0, 1, 2), (1, 2), (1, 2, 3)]
        assert profiler.attributed_cycles() == 10
        steady = profiler.traces[(1, (1, 2))]
        assert steady.executions == 1

    def test_pending_stall_lands_in_the_next_trace(self):
        rec, profiler = synthetic()
        rec.start("p", 0)
        issue(rec, 1, 0)
        issue(rec, 2, 1)
        # Stall fires before the issue it delays — and that issue's pc is a
        # back edge, so the stall belongs to the *new* trace's window.
        rec.stall(0, 3, 2)
        issue(rec, 5, 0)
        issue(rec, 6, 1)
        rec.end(7, 4, True)
        first = profiler.traces[(0, (0, 1))]
        assert first.executions == 2
        assert first.stall_cycles == 2
        assert first.cycles == 7
        assert profiler.attributed_cycles() == 7

    def test_branch_penalty_charges_the_open_trace(self):
        rec, profiler = synthetic()
        rec.start("p", 0)
        issue(rec, 1, 0)
        rec.branch(True, True, 3)
        issue(rec, 5, 0)
        rec.end(6, 2, True)
        trace = profiler.traces[(0, (0,))]
        assert trace.mispredict_cycles == 3
        assert profiler.attributed_cycles() == 6

    def test_two_repeating_bodies_make_a_head_unstable(self):
        rec, profiler = synthetic()
        rec.start("p", 0)
        seq = 0
        # Head 0 alternates between paths (0,1) and (0,2) — both repeat.
        for pcs in [(0, 1), (0, 2), (0, 1), (0, 2), (0, 1)]:
            for pc in pcs:
                issue(rec, seq + 1, pc)
                seq += 1
        rec.end(seq + 1, seq, True)
        assert 0 not in profiler.stable_heads()

    def test_truncated_body_keeps_counting(self):
        rec, profiler = synthetic({"max_body": 2})
        rec.start("p", 0)
        for seq, pc in enumerate((0, 1, 2, 3)):
            issue(rec, seq + 1, pc)
        rec.end(5, 4, True)
        trace = profiler.sorted_traces()[0]
        assert trace.truncated
        assert trace.instructions == 4  # counters keep going past the cap
        assert trace.body == (0, 1)
        assert profiler.attributed_cycles() == 5

    def test_as_dict_rates(self):
        rec, profiler = synthetic()
        rec.start("p", 0)
        issue(rec, 1, 0, pipe="U", routed=True, mmx=True)
        issue(rec, 1, 1, pipe="V", routed=False, mmx=True)
        rec.end(2, 2, True)
        record = profiler.sorted_traces()[0].as_dict()
        assert record["pair_fraction"] == 0.5
        assert record["route_utilization"] == 0.5
        assert record["uop_hit_rate"] == 0.0  # both pcs were cold
        assert record["cpi"] == 1.0
