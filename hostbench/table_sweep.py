"""table-sweep: the eight Table 2 kernels, MMX and SPU variants, warm.

This is the simulator's hot path with no subscribers: the issue loop, the
SWAR data path, the SPU controller and the crossbar.  Kernels are built
at the sizes ``repro report`` uses; set-up pays for building, off-loading,
decoding and the golden outputs, so jobs run warm.
"""

from __future__ import annotations

import numpy as np

from harness import CheckFailed, Job, Outcome, Workload


def decode_all(program) -> None:
    """Fill *program*'s micro-op cache, as its first run would."""
    from repro.cpu.executor import cold_decode, uop_table

    uops = uop_table(program)
    for pc, instr in enumerate(program.instructions):
        uop = uops.get(pc)
        if uop is None or uop.instr is not instr:
            cold_decode(uops, program, pc, instr, uop)


class TableSweep(Workload):
    one_cpu = True
    name = "table-sweep"

    def __init__(self, root, seed, workdir) -> None:
        super().__init__(root, seed, workdir)
        from repro.kernels import TABLE2_KERNELS

        names = list(TABLE2_KERNELS)
        shift = seed % len(names)
        self.order = names[shift:] + names[:shift]
        self.kernels: list = []

    def setup(self) -> None:
        from repro.kernels import make_kernel

        kernels = []
        for name in self.order:
            kernel = make_kernel(name)
            spu_program, _ = kernel.spu_programs()
            decode_all(kernel.mmx_program())
            decode_all(spu_program)
            kernels.append((kernel, np.asarray(kernel.reference())))
        self.kernels = kernels

    def pass_jobs(self) -> list[Job]:
        return [Job(kernel.name, lambda k=kernel: self._run(k),
                    lambda out, g=golden: self._check(out, g))
                for kernel, golden in self.kernels]

    def _run(self, kernel):
        mmx_stats, mmx_out = kernel.run_mmx()
        spu_stats, spu_out = kernel.run_spu()
        with self.span("kernels.verify"):
            reference = np.asarray(kernel.reference())
            ok = (np.array_equal(np.asarray(mmx_out), reference)
                  and np.array_equal(np.asarray(spu_out), reference))
        return ok, reference, mmx_stats, spu_stats

    @staticmethod
    def _check(output, golden) -> Outcome:
        ok, reference, mmx, spu = output
        if not ok:
            raise CheckFailed("an output differs from Kernel.reference()")
        if not np.array_equal(reference, golden):
            raise CheckFailed("Kernel.reference() changed since set-up")
        if not (mmx.finished and spu.finished):
            raise CheckFailed("a variant did not run to halt")
        signature = tuple((s.cycles, s.instructions, s.pair_cycles,
                           s.stall_cycles, s.spu_routed) for s in (mmx, spu))
        return Outcome(mmx.cycles + spu.cycles, signature)
