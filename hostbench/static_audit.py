"""static-audit: ``repro lint`` plus ``repro certify`` per kernel, cold.

The only path that runs a cold kernel build, the off-load pass,
``repro.analysis`` (abstract interpretation and certificate replay) and
the subscribed ``trace_variant_profile``.  Each job lints one kernel and
audits its fusion certificates on fresh kernel instances; both documents
must equal that kernel's entries in the committed baselines.
"""

from __future__ import annotations

import json

from fault_campaign import fresh_import
from harness import CheckFailed, Job, Outcome, Workload

#: What ``repro lint`` / ``repro certify`` import before the first kernel.
IMPORTS = "import repro.cli, repro.analysis.lint, repro.analysis.absint.audit"


def _plain(value):
    """The JSON view of *value* (tuples become lists), as baselines store it."""
    return json.loads(json.dumps(value, default=str))


class StaticAudit(Workload):
    one_cpu = True
    name = "static-audit"
    layer_names = ("analysis.findings", "analysis.regions_certified")

    def __init__(self, root, seed, workdir) -> None:
        super().__init__(root, seed, workdir)
        from repro.kernels import ALL_KERNELS

        names = sorted(ALL_KERNELS)
        shift = seed % len(names)
        self.order = names[shift:] + names[:shift]
        self.lint: dict[str, dict] = {}
        self.audit: dict[str, tuple[list, list]] = {}
        self.cycles: dict[str, int] = {}

    def setup(self) -> None:
        fresh_import(self.root, IMPORTS)

    def prepare(self) -> None:
        from repro.kernels import make_kernel

        baselines = self.root / "baselines"
        lint = json.loads((baselines / "lint-all.json").read_text())["data"]
        audit = json.loads((baselines / "certify-all.json").read_text())["data"]
        for name in self.order:
            self.lint[name] = next(s for s in lint["subjects"]
                                   if s["subject"] == name)
            regions = [r for r in audit["regions"] if r["kernel"] == name]
            certificates = [c for c in audit["certificates"]
                            if c["program"].split("/")[0] == name]
            self.audit[name] = (regions, certificates)
            kernel = make_kernel(name)
            self.cycles[name] = (kernel.run_mmx()[0].cycles
                                 + kernel.run_spu()[0].cycles)

    def pass_jobs(self) -> list[Job]:
        return [Job(name, lambda n=name: self._run(n),
                    lambda out, n=name: self._check(out, n))
                for name in self.order]

    @staticmethod
    def _run(name: str):
        from repro.analysis.absint.audit import fusion_audit
        from repro.analysis.lint import lint_kernel

        return lint_kernel(name), fusion_audit([name])

    def _check(self, output, name: str) -> Outcome:
        result, audit = output
        if _plain(result.as_dict()) != self.lint[name]:
            raise CheckFailed(f"{name}: lint differs from baselines/lint-all.json")
        regions, certificates = self.audit[name]
        if (_plain(audit["regions"]) != regions
                or _plain(audit["certificates"]) != certificates):
            raise CheckFailed(f"{name}: audit differs from baselines/certify-all.json")
        if audit["summary"]["unexplained"]:
            raise CheckFailed(f"{name}: unexplained fusion verdicts")
        certified = sum(1 for r in audit["regions"] if r["certified"])
        return Outcome(self.cycles[name],
                       (len(result.findings), certified, len(certificates)))

    def layer_metrics(self, segment) -> dict[str, float]:
        first = [r.outcome.signature for r in segment.records
                 if r.outcome and r.pass_index == 0]
        return {
            "analysis.findings": sum(s[0] for s in first),
            "analysis.regions_certified": sum(s[1] for s in first),
        }
