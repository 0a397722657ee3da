"""Schedule-agreement analyzer: kernel loop body versus controller program.

Each test takes a real kernel build and perturbs exactly one side of the
convention — counter totals, the next-state graph, GO-store placement —
then asserts the specific ``sa-*`` rule fires.  The clean build must stay
silent: the analyzer's value is that every finding marks a real divergence.
"""

from repro.analysis import analyze_schedule, chain_states
from repro.analysis.schedule import _activations
from repro.core.program import SPUState
from repro.faults.injector import clone_spu_program
from repro.isa import assemble
from repro.isa.instructions import Program
from repro.kernels import make_kernel


def build(name="DotProduct"):
    kernel = make_kernel(name)
    program, controller = kernel.spu_programs()
    return kernel, program, controller


def install(kernel, program, controller):
    """Replace the kernel's cached build with a perturbed one."""
    kernel._spu_build = (program, controller)
    return kernel


def mutate_controller(kernel, mutate):
    program, controller = kernel.spu_programs()
    perturbed = [
        (context, mutate(clone_spu_program(spu_program)))
        for context, spu_program in controller
    ]
    return install(kernel, program, perturbed)


def splice(program: Program, index: int, remove: int = 0, insert=()) -> Program:
    """Rebuild *program* with instructions removed/inserted at *index*."""
    instructions = (
        program.instructions[:index]
        + list(insert)
        + program.instructions[index + remove :]
    )
    delta = len(insert) - remove
    labels = {
        name: (target + delta if target >= index else target)
        for name, target in program.labels.items()
    }
    return Program(instructions=instructions, labels=labels, name=program.name)


def rules_of(findings):
    return {finding.rule for finding in findings}


class TestCleanAgreement:
    def test_dotproduct_is_silent(self):
        kernel, _, _ = build()
        assert analyze_schedule(kernel) == []

    def test_go_store_scan_matches_loaded_contexts(self):
        kernel, program, controller = build()
        stores = _activations(program)
        assert [context for _, context in stores] == [
            context for context, _ in controller
        ]

    def test_chain_length_matches_body(self):
        kernel, program, controller = build()
        from repro.core.offload import find_loop

        for (context, spu_program), (_, report) in zip(
            controller, kernel.offload_reports()
        ):
            start, end = find_loop(program, report.certificate.loop_label)
            assert len(chain_states(spu_program)) == end - start + 1


class TestCounterDisagreement:
    def test_counter_total_mismatch(self):
        def skew(program):
            cntr = program.states[program.entry].cntr
            init = list(program.counter_init)
            init[cntr] += 1
            program.counter_init = tuple(init)
            return program

        kernel = mutate_controller(make_kernel("DotProduct"), skew)
        findings = analyze_schedule(kernel)
        assert "sa-counter-total" in rules_of(findings)

    def test_schedule_drift_from_broken_exit_edge(self):
        def break_exit(program):
            chain = chain_states(program)
            last = program.states[chain[-1]]
            # Exit edge now re-enters the loop instead of retiring to idle:
            # the walk overruns the required schedule.
            program.states[chain[-1]] = SPUState(
                cntr=last.cntr, routes=dict(last.routes),
                next0=chain[0], next1=last.next1,
            )
            return program

        kernel = mutate_controller(make_kernel("DotProduct"), break_exit)
        findings = analyze_schedule(kernel)
        drift = [f for f in findings if f.rule == "sa-schedule-drift"]
        assert drift
        assert "diverges" in drift[0].message

    def test_loop_length_mismatch(self):
        def shrink(program):
            chain = chain_states(program)
            if len(chain) < 2:
                return program
            # Short-circuit the chain past its second state.
            first = program.states[chain[0]]
            program.states[chain[0]] = SPUState(
                cntr=first.cntr, routes=dict(first.routes),
                next0=first.next0, next1=chain[2] if len(chain) > 2 else first.next0,
            )
            return program

        kernel = mutate_controller(make_kernel("DotProduct"), shrink)
        findings = analyze_schedule(kernel)
        assert "sa-loop-length" in rules_of(findings)


class TestGoPlacement:
    def test_missing_go(self):
        kernel, program, controller = build()
        (go_index, _context), = [
            (index, context) for index, context in _activations(program)
        ]
        # Drop the mov/stw pair that forms the GO store.
        stripped = splice(program, go_index - 1, remove=2)
        kernel = install(kernel, stripped, controller)
        findings = analyze_schedule(kernel)
        assert "sa-missing-go" in rules_of(findings)

    def test_go_lead_in(self):
        kernel, program, controller = build()
        (go_index, _context), = _activations(program)
        filler = assemble("nop").instructions
        # A stray instruction between the GO store and the loop label: the
        # active controller steps it, skewing every route pairing after.
        padded = splice(program, go_index + 1, insert=filler)
        kernel = install(kernel, padded, controller)
        findings = analyze_schedule(kernel)
        lead = [f for f in findings if f.rule == "sa-go-lead-in"]
        assert lead and "1 instruction(s)" in lead[0].message

    def test_go_before_load_names_unknown_context(self):
        kernel, program, controller = build()
        rogue = assemble("mov r15, 7\nstw [r14], r15").instructions
        patched = splice(program, 0, insert=rogue)
        kernel = install(kernel, patched, controller)
        findings = analyze_schedule(kernel)
        orphan = [f for f in findings if f.rule == "sa-go-before-load"]
        assert orphan and "context 3" in orphan[0].message

    def test_go_inside_loop(self):
        kernel, program, controller = build()
        (go_index, context), = _activations(program)
        from repro.core.offload import find_loop

        (_, report), = kernel.offload_reports()
        start, end = find_loop(program, report.certificate.loop_label)
        rogue = assemble(f"mov r15, {1 | (context << 1)}\nstw [r14], r15").instructions
        inside = splice(program, end, insert=rogue)
        kernel = install(kernel, inside, controller)
        findings = analyze_schedule(kernel)
        assert "sa-go-inside-loop" in rules_of(findings)
