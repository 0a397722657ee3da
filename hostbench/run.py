"""Host-time benchmark of the repro simulator, its campaigns and its service.

Usage, from the root of a repository checkout::

    python3 hostbench/run.py --workload table-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics (half the time untraced,
half traced).  Metric names and units come from ``BENCHMARK.json``.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``hostbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import SETUP_REPS, p90_line, pin, run_segment, timed_setups  # noqa: E402
from probe import NOMINAL_PROBE_MS, HostClock  # noqa: E402

def _classes() -> dict:
    from fault_campaign import FaultCampaign
    from serve_roundtrip import ServeRoundtrip
    from static_audit import StaticAudit
    from table_sweep import TableSweep

    return {cls.name: cls for cls in (TableSweep, FaultCampaign,
                                      ServeRoundtrip, StaticAudit)}


def _consistent(*segments) -> bool:
    """No failed job, and every pass produced the same exact signature."""
    signatures = {sig for seg in segments for sig in seg.pass_signatures()}
    return all(seg.failed == 0 for seg in segments) and len(signatures) == 1


def end_to_end(workload, clock: HostClock, seconds: float) -> tuple[dict, list[str], bool, list]:
    setup_norm, setup_raw = timed_setups(workload, clock, SETUP_REPS)
    workload.prepare()
    seg = run_segment(workload, clock, seconds)
    busy = sum(r.norm_s for r in seg.records)
    values = {
        "setup_s": statistics.median(setup_norm),
        "jobs_per_s": seg.jobs_per_s(),
        "job_p50_ms": seg.p50_ms(),
        "sim_kcyc_per_s": seg.cycles() / busy / 1e3,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    lines = [
        f"jobs: {len(seg.records)} in {seg.passes} whole passes",
        f"raw setup_s: {statistics.median(setup_raw):.4f} s",
        f"raw jobs_per_s: {seg.jobs_per_s(normalized=False):.4f} 1/s",
        f"raw job_p50_ms: {seg.p50_ms(normalized=False):.3f} ms",
        f"population median: {statistics.median(seg.latencies_ms()):.3f} ms",
        f"host.probe_ms: {clock.median_ms():.4f} ms "
        f"(normalized to {NOMINAL_PROBE_MS} ms)",
        p90_line(seg.latencies_ms()),
    ]
    return values, lines, _consistent(seg), [seg]


def per_layer(workload, clock: HostClock, seconds: float,
              seed: int) -> tuple[dict, list[str], bool, list]:
    import layers
    from tracing import Tracer

    tracer = Tracer()
    layers.install(tracer)
    workload.tracer = tracer
    workload.setup()
    ref_begin = len(tracer.spans)
    workload.prepare()
    ref_end = len(tracer.spans)
    tracer.uninstall()
    workload.tracer = None
    plain = run_segment(workload, clock, seconds / 2)
    layers.install(tracer)
    workload.tracer = tracer
    jobs_begin = len(tracer.spans)
    seg = run_segment(workload, clock, seconds / 2, tracer)
    tracer.uninstall()

    values, sums_to_wall = layers.shares(tracer)
    if workload.sim_from == "jobs":
        scope, passes = tracer.spans[jobs_begin:], seg.passes
    else:
        scope, passes = tracer.spans[ref_begin:ref_end], 1
    values.update(layers.rates(tracer, scope, passes))
    for width, ns in layers.swar_ns_per_op(seed).items():
        values[f"simd.swar_ns_per_op.{width}"] = ns
    values["host.probe_ms"] = clock.median_ms()
    values["trace_overhead_frac"] = plain.jobs_per_s() / seg.jobs_per_s() - 1
    workload.tracer = tracer
    values.update(workload.layer_metrics(seg))
    workload.tracer = None
    # Figures of layers another workload owns: this one never reaches them.
    for cls in _classes().values():
        for name in cls.layer_names:
            values.setdefault(name, 0.0)

    lines = [
        f"untraced: {len(plain.records)} jobs in {plain.passes} passes; "
        f"traced: {len(seg.records)} jobs in {seg.passes} passes",
        "layer shares + unattributed_frac "
        + ("= 1" if sums_to_wall else "do not sum to 1"),
    ]
    return values, lines, _consistent(plain, seg) and sums_to_wall, [plain, seg]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(_classes()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"hostbench: no repro sources under {src}; run it from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    # Byte-compile once so every run, and every interpreter a run starts,
    # imports from the same warm bytecode cache.
    compileall.compile_dir(str(src), quiet=1)
    sys.path.insert(0, str(src))

    scratch = ROOT / ".hostbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    workload = _classes()[args.workload](ROOT, args.seed, workdir)
    pin(workload)
    try:
        with HostClock() as clock:
            if args.trace:
                values, lines, correct, segments = per_layer(
                    workload, clock, args.seconds, args.seed)
            else:
                values, lines, correct, segments = end_to_end(
                    workload, clock, args.seconds)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise SystemExit(f"hostbench: metrics do not match BENCHMARK.json "
                         f"(missing {missing}, unlisted {extra})")
    for line in lines:
        print(line)
    for name, unit in units.items():
        print(f"{name:32s} {values[name]:16.6f} {unit}")
    attempted = sum(len(seg.records) for seg in segments)
    failed = sum(seg.failed for seg in segments)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
