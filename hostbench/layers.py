"""The layers the traced run separates, and the calls that delimit them.

Each entry wraps one public entry point of a ``repro`` module (see
``tracing.Tracer.wrap``).  Where the program offers no public seam the
nearest one is used and named here: ``Kernel._machine`` is what both
``Kernel.machine`` and ``run_mmx``/``run_spu`` build through, and the
serial clean check is ``repro.faults.campaign._clean_check``.

The benchmark's own code adds the spans it owns: ``job`` roots,
``kernels.verify`` in table-sweep and the ``serve.*`` client phases.
"""

from __future__ import annotations

import random
import statistics
import time

#: Layers whose share of job wall time the traced run reports
#: (``share.<layer>``); every other span's self time stays in its parent.
SHARE_LAYERS = (
    "kernels.build", "core.offload", "core.cert_check", "cpu.decode",
    "cpu.machine_build", "cpu.run.mmx", "cpu.run.spu", "kernels.verify",
    "faults.campaign", "runner.dispatch", "runner.pool_start",
    "runner.journal_append", "serve.submit", "serve.queue_wait",
    "serve.run_wait", "serve.report_fetch", "analysis.lint",
    "analysis.certify", "analysis.replay", "obs.traceprof",
)

#: RunStats fields summed into the ``sim.*`` per-pass counts.
SIM_FIELDS = ("cycles", "instructions", "pair_cycles", "stall_cycles",
              "spu_routed")


def _note_run(span, args, stats) -> None:
    for field in SIM_FIELDS:
        span.attrs[field] = getattr(stats, field)


def install(tracer) -> None:
    """Wrap every layer boundary; ``tracer.uninstall()`` undoes it."""
    import repro.analysis.absint.interp as interp
    import repro.analysis.absint.replay as replay
    import repro.analysis.lint as lint
    import repro.core.dataflow as dataflow
    import repro.cpu.executor as executor
    import repro.faults.campaign as campaign
    import repro.faults.parallel as parallel
    import repro.obs.export as export
    import repro.runner.journal as journal
    import repro.runner.pool as pool
    import repro.runner.service as service
    from repro.cpu import Machine
    from repro.kernels.base import Kernel

    wrap = tracer.wrap
    wrap(Kernel, "mmx_program", "kernels.build",
         before=lambda k: {"cold": k._mmx_program is None})
    wrap(Kernel, "spu_programs", "core.offload",
         before=lambda k: {"cold": k._spu_build is None})
    wrap(Kernel, "_machine", "cpu.machine_build")
    wrap(Machine, "run",
         lambda m, *a: "cpu.run.spu" if m.spu is not None else "cpu.run.mmx",
         note=_note_run)
    wrap(executor, "cold_decode", "cpu.decode")
    wrap(dataflow, "check_certificate", "core.cert_check")
    wrap(lint, "lint_kernel", "analysis.lint")
    wrap(interp, "certify_program", "analysis.certify")
    wrap(replay, "check_fusion_certificate", "analysis.replay")
    wrap(export, "trace_variant_profile", "obs.traceprof")
    wrap(campaign, "run_one_injection", "faults.inject")
    wrap(campaign, "_clean_check", "faults.clean")
    wrap(parallel, "run_check_parallel", "faults.campaign")
    wrap(service.Runner, "run", "runner.dispatch")
    wrap(pool.WorkerPool, "start", "runner.pool_start",
         before=lambda p: {"start": 1})
    wrap(pool.WorkerPool, "stop", "runner.pool_start")
    wrap(journal.Journal, "append", "runner.journal_append",
         before=lambda j, r: {"append": 1})
    wrap(journal.Journal, "flush", "runner.journal_append")


def shares(tracer) -> tuple[dict[str, float], bool]:
    """Each layer's share of traced job wall time, ``unattributed_frac``
    and ``job_wall_ms``; and whether the shares and the remainder sum to 1
    with no span outside ``SHARE_LAYERS`` inside a job."""
    self_s, unattributed, wall, jobs = tracer.job_breakdown()
    out = {f"share.{layer}": self_s.pop(layer, 0.0) / wall
           for layer in SHARE_LAYERS}
    out["unattributed_frac"] = unattributed / wall
    out["job_wall_ms"] = wall / jobs * 1e3
    total = sum(out[f"share.{layer}"] for layer in SHARE_LAYERS)
    return out, not self_s and abs(total + out["unattributed_frac"] - 1) < 1e-9


def rates(tracer, scope, passes: int) -> dict[str, float]:
    """Per-call costs over every span of the run, and the ``sim.*`` counts
    per pass from the ``Machine.run`` spans in *scope*."""

    def per_call(name: str, scale: float, where=None) -> float:
        total, calls = tracer.self_sum(name, where)
        return total / calls * scale if calls else 0.0

    def per_unit(name: str, unit: str, scale: float) -> float:
        total, _ = tracer.self_sum(name)
        units = tracer.attr_sum(name, unit)
        return total / units * scale if units else 0.0

    cold = lambda span: span.attrs.get("cold")  # noqa: E731
    out = {
        "kernels.build_ms": per_call("kernels.build", 1e3, cold),
        "core.offload_ms": per_call("core.offload", 1e3, cold),
        "cpu.decode_us_per_instr": per_call("cpu.decode", 1e6),
        "cpu.run_ns_per_cycle.mmx": per_unit("cpu.run.mmx", "cycles", 1e9),
        "cpu.run_ns_per_cycle.spu": per_unit("cpu.run.spu", "cycles", 1e9),
        "runner.pool_start_ms": per_unit("runner.pool_start", "start", 1e3),
        "runner.journal_append_us": per_unit("runner.journal_append", "append", 1e6),
    }
    for name in ("core.cert_check", "cpu.machine_build", "kernels.verify",
                 "faults.inject", "faults.clean", "analysis.lint",
                 "analysis.certify", "analysis.replay", "obs.traceprof"):
        out[f"{name}_ms"] = per_call(name, 1e3)
    for field in SIM_FIELDS:
        out[f"sim.{field}"] = sum(span.attrs.get(field, 0) for span in scope
                                  if span.name.startswith("cpu.run.")) / passes
    return out


#: Widths the packed-op microbenchmark covers, and the ops timed at each.
SWAR_WIDTHS = (8, 16, 32)
SWAR_OPS = ("padd", "psub", "pcmpeq", "pcmpgt", "punpckl", "punpckh")
SWAR_PAIRS = 256
SWAR_ROUNDS = 5


def swar_ns_per_op(seed: int) -> dict[int, float]:
    """ns per packed op by lane width, on seeded words.

    Every op's result is checked against ``repro.simd.reference`` before
    timing, so a fast but wrong data path cannot report a number.
    """
    import repro.simd as simd
    import repro.simd.reference as reference

    rng = random.Random(seed)
    pairs = [(rng.getrandbits(64), rng.getrandbits(64))
             for _ in range(SWAR_PAIRS)]
    out: dict[int, float] = {}
    for width in SWAR_WIDTHS:
        ops = [getattr(simd, name) for name in SWAR_OPS]
        for name, op in zip(SWAR_OPS, ops):
            oracle = getattr(reference, name)
            for a, b in pairs[:16]:
                if op(a, b, width) != oracle(a, b, width):
                    raise RuntimeError(f"simd.{name} width {width} disagrees "
                                       "with the reference data path")
        rounds = []
        for _ in range(SWAR_ROUNDS):
            started = time.perf_counter()
            for op in ops:
                for a, b in pairs:
                    op(a, b, width)
            rounds.append(time.perf_counter() - started)
        out[width] = statistics.median(rounds) / (len(ops) * len(pairs)) * 1e9
    return out
