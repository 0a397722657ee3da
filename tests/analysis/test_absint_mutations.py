"""Seeded loop-body mutations: the certifier must reject each one.

Sensitivity bench for the superop legality engine, mirroring
``test_lint_seeded`` for the microprogram analyzer: take known-fusible
kernel loops (DotProduct, SAD), splice one illegal instruction into the
body, and assert the certificate is withheld with the specific ``fx-*``
rule — plus tamper tests proving the *independent* replay checker catches
certificates that no longer match the program they claim to describe.
"""

from dataclasses import replace

from repro.analysis.absint import (
    FusionCertificate,
    certify_program,
    check_fusion_certificate,
)
from repro.analysis.findings import FindingCollector
from repro.analysis.absint.interp import add_replay_findings
from repro.isa import Program, ProgramBuilder
from repro.kernels import make_kernel


def spliced(program: Program, at: int, *instructions) -> Program:
    """Rebuild *program* with ``(mnemonic, *operands)`` rows inserted at *at*.

    Re-emitting through the builder keeps labels attached to the
    instruction they named, shifted past the insertion point.
    """
    b = ProgramBuilder(f"{program.name}+mut")
    by_index: dict[int, list[str]] = {}
    for name, index in program.labels.items():
        by_index.setdefault(index, []).append(name)
    for index, instr in enumerate(program.instructions):
        if index == at:
            for mnemonic, *operands in instructions:
                b.emit(mnemonic, *operands)
        for name in by_index.get(index, []):
            b.label(name)
        b.emit(instr.opcode.name, *instr.operands)
    return b.build()


def certify_one(program: Program, label: str = "loop"):
    certification = certify_program(program, subject="mutated")
    rules = certification.certified_map()[label]
    certs = [c for c in certification.certificates() if c.loop == label]
    return set(rules), certs


def body_position(program: Program, label: str = "loop") -> int:
    """An insertion point strictly inside the labeled loop body."""
    start = program.labels[label]
    return start + 1


class TestSeededMutations:
    def setup_method(self):
        self.program = make_kernel("DotProduct").mmx_program()
        self.at = body_position(self.program)
        # The unmutated program certifies — every rejection below is
        # caused by the splice, not by the harness.
        rules, certs = certify_one(self.program)
        assert rules == set() and len(certs) == 1

    def test_register_count_shift_blocks(self):
        # Overflow-prone packed op: a shift by a register count can carry
        # across lane boundaries unpredictably; no per-immediate
        # carry-break mask exists.
        mutated = spliced(self.program, self.at, ("psllw", "mm0", "mm5"))
        rules, certs = certify_one(mutated)
        assert "fx-swar-shift" in rules
        assert certs == []

    def test_unzeroed_modular_accumulator_is_recorded(self):
        # A carried modular accumulator that is not provably wrap-free is
        # *recorded* (fx-lane-overflow is informational): per-iteration
        # fusion preserves the wrap, only batching would need renormalizing.
        mutated = spliced(self.program, self.at, ("paddw", "mm6", "mm0"))
        certification = certify_program(mutated, subject="mutated")
        findings = {f.rule for f in certification.findings()}
        assert "fx-lane-overflow" in findings
        (cert,) = certification.certificates()
        assert any(rec["register"] == "mm6" for rec in cert.overflow)

    def test_extra_memory_write_unknown_base_blocks(self):
        # r9 has no concrete value at the loop head: the store's byte
        # footprint cannot be bounded.
        mutated = spliced(self.program, self.at, ("movq", "[r9]", "mm0"))
        rules, certs = certify_one(mutated)
        assert "fx-mem-footprint" in rules
        assert certs == []

    def test_extra_memory_write_indirect_base_blocks(self):
        # Reload the store base from memory each iteration (the
        # MatrixTranspose pattern): the per-iteration stride is unknowable.
        mutated = spliced(
            self.program, self.at,
            ("ldw", "r9", "[r1]"),
            ("movq", "[r9]", "mm0"),
        )
        rules, certs = certify_one(mutated)
        assert "fx-induction-step" in rules
        assert certs == []

    def test_internal_branch_blocks(self):
        # A branch back to the loop head from mid-body creates an
        # alternate internal path through the fused region.
        mutated = spliced(self.program, self.at, ("jz", "loop"))
        rules, certs = certify_one(mutated)
        assert "fx-internal-branch" in rules
        assert certs == []

    def test_head_escaping_branch_blocks(self):
        # A conditional exit to code past the loop: a fused closure could
        # not take the early out.
        end = self.program.labels["loop"]
        closing = next(
            index
            for index, instr in enumerate(self.program.instructions)
            if index > end and instr.opcode.sem == "loop"
        )
        b = ProgramBuilder("escape")
        for index, instr in enumerate(self.program.instructions):
            for name, at in self.program.labels.items():
                if at == index:
                    b.label(name)
            if index == closing - 1:
                b.jnz("escape")
            b.emit(instr.opcode.name, *instr.operands)
        b.label("escape")
        b.halt()
        rules, certs = certify_one(b.build())
        assert "fx-side-exit" in rules
        assert certs == []

    def test_nonconstant_trip_count_blocks(self):
        # Overwrite the counter init with a value the straight-line
        # constant propagation cannot see (a memory load).
        program = self.program
        counter_init = next(
            index
            for index, instr in enumerate(program.instructions)
            if index < program.labels["loop"]
            and instr.opcode.sem == "mov"
            and instr.dest is not None
            and instr.dest.name == "r0"
        )
        mutated = spliced(program, counter_init + 1, ("ldw", "r0", "[r1]"))
        rules, certs = certify_one(mutated)
        assert "fx-trip-count" in rules
        assert certs == []

    def test_sad_accepts_same_harness(self):
        # The splice harness itself keeps a second kernel certifiable:
        # inserting a harmless register copy changes nothing material.
        program = make_kernel("SAD").mmx_program()
        mutated = spliced(
            program, body_position(program), ("movq", "mm5", "mm0")
        )
        rules, certs = certify_one(mutated)
        assert rules == set()
        assert len(certs) == 1


class TestCertificateTampering:
    def setup_method(self):
        self.program = make_kernel("DotProduct").mmx_program()
        certification = certify_program(self.program, subject="DotProduct/mmx")
        (self.cert,) = certification.certificates()
        assert check_fusion_certificate(self.cert, self.program) == []

    def issues_for(self, cert):
        return check_fusion_certificate(cert, self.program)

    def test_wrong_schema_tag(self):
        issues = self.issues_for(replace(self.cert, schema="repro.fusion-cert/0"))
        assert [issue.code for issue in issues] == ["schema"]

    def test_stale_body_text(self):
        body = list(self.cert.body)
        body[0] = body[0].replace("movq", "movd")
        issues = self.issues_for(replace(self.cert, body=tuple(body)))
        assert "stale" in {issue.code for issue in issues}

    def test_tampered_trip_count(self):
        trip = dict(self.cert.trip)
        trip["count"] = trip["count"] + 1
        issues = self.issues_for(replace(self.cert, trip=trip))
        assert "mismatch" in {issue.code for issue in issues}

    def test_tampered_entry_value(self):
        entry = dict(self.cert.entry)
        entry["r1"] = entry["r1"] + 4
        issues = self.issues_for(replace(self.cert, entry=entry))
        assert "mismatch" in {issue.code for issue in issues}

    def test_tampered_memory_stride(self):
        memory = tuple(
            {**record, "stride": record["stride"] * 2}
            for record in self.cert.memory
        )
        issues = self.issues_for(replace(self.cert, memory=memory))
        assert "mismatch" in {issue.code for issue in issues}

    def test_dropped_swar_record(self):
        issues = self.issues_for(replace(self.cert, swar=self.cert.swar[1:]))
        assert "mismatch" in {issue.code for issue in issues}

    def test_tampered_carried_class(self):
        carried = tuple(
            {**record, "class": "reduction"} if record["class"] == "induction"
            else record
            for record in self.cert.carried
        )
        issues = self.issues_for(replace(self.cert, carried=carried))
        assert "mismatch" in {issue.code for issue in issues}

    def test_findings_map_to_cert_rules(self):
        issues = self.issues_for(replace(self.cert, schema="bogus"))
        out = FindingCollector()
        add_replay_findings(out, issues, "DotProduct/mmx")
        findings = out.findings
        assert [f.rule for f in findings] == ["fx-cert-schema"]
        assert findings[0].loop == self.cert.loop
        assert findings[0].severity.name == "ERROR"

    def test_roundtripped_tamper_detected(self):
        # Tampering survives the JSON round-trip the baseline uses.
        raw = self.cert.as_dict()
        raw["trip"] = {**raw["trip"], "counter": "r5"}
        issues = self.issues_for(FusionCertificate.from_dict(raw))
        assert "mismatch" in {issue.code for issue in issues}
