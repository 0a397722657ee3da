"""Command-line interface: ``python -m repro <command>``.

``python -m repro --help`` lists the commands and ``python -m repro
<command> --help`` their flags; docs/ holds the schemas and methods behind
them.  Every command that names kernels (``run``, ``offload``, ``profile``,
``top``, ``trace``, ``check``, ``lint``, ``certify``, ``bench``) resolves the
names forgivingly — ``dotprod`` finds ``DotProduct``: any case, or a unique
prefix — and reports a name it cannot resolve as ``repro <command>: error:
…`` with exit status 2.

Three jobs are written once here: :func:`_kernels` selects kernels,
:func:`_emit` writes every ``--json``, ``--jsonl``, ``--runner-json`` and
``--spans`` file, and :func:`_campaign` drives ``repro run`` sweeps and
``repro check`` (span tree, clean interrupts, fallback note, runner report).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import format_table, pct, ratio
from repro.core import get_config
from repro.errors import KernelError
from repro.experiments import EXPERIMENTS, ExperimentSuite
from repro.hw import spu_cost
from repro.kernels import ALL_KERNELS, make_kernel


# ---- shared front end ----------------------------------------------------------


def _kernels(args: argparse.Namespace) -> list[str]:
    """The registry names of the kernels a command names; all for ``--all``.

    Raises :class:`KernelError` (``repro <command>: error: …``, exit 2 via
    :func:`main`) on a name :func:`resolve_kernel_name` cannot resolve, and
    when a command that offers ``--all`` gets neither names nor ``--all``.
    """
    from repro.obs.export import resolve_kernel_name

    if getattr(args, "all", False):
        return sorted(ALL_KERNELS)
    if not args.kernel and hasattr(args, "all"):
        raise KernelError("name at least one kernel or pass --all")
    return [resolve_kernel_name(name) for name in args.kernel]


def _emit(path: str, document, detail: str = "", file=None) -> None:
    """Write *document* to *path* (``-``: stdout) and say where it went.

    A dict is one JSON document; anything else is a sequence of JSONL records.
    """
    from repro.obs.export import write_json, write_jsonl

    write = write_json if isinstance(document, dict) else write_jsonl
    target = write(path, document)
    if target is not None:
        print(f"wrote {target}{detail}", file=file)


def _campaign(args: argparse.Namespace, work, report, **attributes) -> int:
    """Drive a ``repro run`` sweep or a ``repro check`` campaign.

    ``work(tracer, root)`` runs the campaign and returns ``(result,
    runner)`` (``runner`` is None on the serial ``run_check`` path);
    ``report(result)`` prints the result and returns the exit status.
    Around them this owns the ``--spans`` tracer and its
    ``campaign:<command>`` root span (opened with *attributes*, closed only
    on success, so an interrupted campaign exports it as aborted); SIGINT,
    SIGTERM and ``--interrupt-after`` as exit 3 with the journal resumable;
    the span file, written on the interrupt path too; the pool-fallback
    note on stderr; and ``--runner-json``.
    """
    from repro.errors import RunnerInterrupted
    from repro.runner import clean_interrupts, runner_report

    tracer = root = None
    if args.spans is not None:
        from repro.obs.spans import SpanTracer

        tracer = SpanTracer()
        root = tracer.begin(f"campaign:{args.command}", **attributes)
    try:
        try:
            with clean_interrupts():
                result, runner = work(tracer, root)
        except RunnerInterrupted as exc:
            print(f"repro {args.command}: {exc}", file=sys.stderr)
            return 3
        if root is not None:
            tracer.end(root)
    finally:
        if tracer is not None:
            _emit(args.spans, tracer.jsonl(), f" ({len(tracer.spans)} spans)",
                  sys.stderr)
    code = report(result)
    if runner is not None and runner.fallback_reason:
        print(f"note: pool unavailable, ran serially "
              f"({runner.fallback_reason})", file=sys.stderr)
    if runner is not None and args.runner_json is not None:
        _emit(args.runner_json, runner_report(runner))
    return code


# ---- commands ------------------------------------------------------------------


def _cmd_table(args: argparse.Namespace) -> int:
    print(EXPERIMENTS[args.command](ExperimentSuite(fast=args.fast)).text)
    return 0


def _run_one_kernel(name: str, fast: bool) -> int:
    from repro.kernels import make_sized_kernel

    kernel = make_sized_kernel(name, fast)
    print(f"Verifying {kernel.name} ({kernel.description}) ...")
    try:
        comparison = kernel.verify()
    except KernelError as exc:
        print(f"  MISMATCH: {exc}")
        return 1
    print("  both variants match the fixed-point reference bit-exactly")
    mmx, spu = comparison.mmx, comparison.spu
    rows = [
        ["cycles", mmx.cycles, spu.cycles],
        ["instructions", mmx.instructions, spu.instructions],
        ["alignment instructions", mmx.alignment_candidates,
         spu.alignment_candidates],
        ["branches / mispredicts", f"{mmx.branches} / {mmx.mispredicts}",
         f"{spu.branches} / {spu.mispredicts}"],
        ["MMX busy", pct(mmx.mmx_busy_fraction, 1),
         pct(spu.mmx_busy_fraction, 1)],
    ]
    print(format_table(["metric", "MMX only", "MMX + SPU"], rows))
    print(f"speedup: {ratio(comparison.speedup)}x "
          f"({comparison.removed_permutes} static permutes off-loaded)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    names = _kernels(args)
    if len(names) == 1 and args.jobs <= 1 and args.resume is None:
        return _run_one_kernel(names[0], args.fast)

    # Sweep: one clean_check task per kernel on the campaign runner (the
    # tasks of `repro check`'s clean phase).
    from repro.faults.parallel import clean_tasks
    from repro.runner import Journal, Runner, RunnerConfig

    config = RunnerConfig(jobs=args.jobs, interrupt_after=args.interrupt_after)

    def work(tracer, root):
        journal = None
        if args.resume is not None:
            fingerprint = {"verb": "run", "kernels": names, "fast": args.fast}
            journal = Journal(args.resume, fingerprint,
                              fsync_every=config.fsync_every)
        runner = Runner(config, journal=journal, tracer=tracer,
                        span_parent=root,
                        progress=sys.stderr if args.progress else None)
        try:
            return runner.run(clean_tasks(tuple(names), args.fast)), runner
        finally:
            if journal is not None:
                journal.close()

    def report(results) -> int:
        rows = []
        failed = 0
        for name in names:
            result = results[f"clean:{name}"]
            if not result.ok:
                failed += 1
                rows.append([name, result.status.upper(), "-", "-", "-", "-",
                             result.failure or ""])
                continue
            variants = result.result["record"]["variants"]
            mmx, spu = variants["mmx"]["cycles"], variants["spu"]["cycles"]
            verified = all(variant["match"] for variant in variants.values())
            failed += 0 if verified else 1
            rows.append([
                name, "ok" if verified else "MISMATCH", mmx, spu,
                f"{ratio(mmx / spu if spu else 0.0)}x",
                result.result["removed_permutes"],
                "cached" if result.cached else f"{result.attempts} attempt(s)",
            ])
        print(format_table(
            ["kernel", "reference", "MMX cycles", "SPU cycles", "speedup",
             "permutes off-loaded", "runner"],
            rows, title=f"Kernel sweep ({args.jobs} job(s))",
        ))
        return 1 if failed else 0

    return _campaign(args, work, report, kernels=len(names), fast=args.fast,
                     jobs=config.jobs)


def _parse_tenant_weights(pairs: list[str]) -> dict[str, int]:
    weights: dict[str, int] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        try:
            weight = int(value)
        except ValueError:
            weight = 0
        if not sep or not name or weight < 1:
            print(f"repro serve: error: --tenant-weight wants NAME=W with "
                  f"W >= 1, got {pair!r}", file=sys.stderr)
            raise SystemExit(2)
        weights[name] = weight
    return weights


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeApp

    if args.compact:
        # Offline compaction: fold the journal in place and exit — no
        # server, no port.  The store constructor runs normal recovery
        # first, so a compacted journal is recovery-equivalent by the same
        # fold the live service uses.
        from repro.serve import ServeStore

        store = ServeStore(args.journal_dir)
        stats = store.compact(reason="cli")
        store.close()
        print(
            f"repro serve: compacted {args.journal_dir}: "
            f"{stats['records_before']} -> {stats['records_after']} records, "
            f"{stats['archived_terminals']} terminal(s) archived "
            f"({stats['kept_terminals']} kept)",
            file=sys.stderr,
        )
        return 0

    app = ServeApp(
        args.journal_dir,
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        max_tenants=args.max_tenants,
        workers=args.workers,
        jobs=args.jobs,
        weights=_parse_tenant_weights(args.tenant_weight),
        max_inflight=args.max_inflight,
        hang_timeout_s=args.hang_timeout,
        max_job_attempts=args.job_attempts,
        compact_every=args.compact_every,
    )
    print(
        f"repro serve: epoch {app.store.epoch} on journal dir "
        f"{args.journal_dir} ({len(app.store.recovered)} job(s) recovered, "
        f"{app.workers_n} worker(s) x {app.jobs_n} campaign job(s)); "
        "endpoint published to endpoint.json",
        file=sys.stderr,
    )
    try:
        return asyncio.run(app.run())
    except KeyboardInterrupt:  # pragma: no cover - loop signal handler
        # normally converts the signal into a drain first
        return 3


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [[name, cls().description] for name, cls in ALL_KERNELS.items()]
    print(format_table(["kernel", "workload"], rows))
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    config = get_config(args.config)
    cost = spu_cost(config, contexts=args.contexts)
    rows = [
        ["interconnect area (0.25um)", f"{cost.interconnect_area_mm2:.2f} mm2"],
        ["interconnect delay", f"{cost.interconnect_delay_ns:.2f} ns"],
        ["control memory", f"{cost.control_memory_mm2:.2f} mm2 "
         f"({cost.control_memory_bits} bits, {cost.state_bits}b/state)"],
        ["total (0.25um 2LM)", f"{cost.total_area_mm2:.2f} mm2"],
        ["scaled (0.18um 6LM)", f"{cost.scaled_area_mm2:.3f} mm2"],
        ["Pentium III die fraction", pct(cost.die_fraction)],
    ]
    print(format_table([f"SPU configuration {config.name}",
                        config.description], rows))
    return 0


def _cmd_offload(args: argparse.Namespace) -> int:
    [name] = _kernels(args)
    result = make_kernel(name).compile_result()
    for context, report in result.reports:
        cert = report.certificate
        assert cert is not None
        print(f"loop {cert.loop_label!r} (context {context}, {cert.iterations} "
              f"iterations): removed {report.removed_count} instruction(s):")
        for position in cert.removed:
            print(f"  - {cert.body[position]}")
        if report.kept:
            print("kept (with reasons):")
            for position, reason in sorted(report.kept.items()):
                print(f"  - {cert.body[position]}: {reason}")
        for title, regs in (("live out", cert.live_out), ("known zero", cert.known_zero)):
            if regs:
                print(f"{title}: {', '.join(f'mm{index}' for index in regs)}")
        print(f"SPU program: {report.spu_program.state_count()} states, "
              f"counters {report.spu_program.counter_init}")
    for label, reason in result.skipped.items():
        print(f"skipped loop {label!r}: {reason}")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core import offload_program, render_program
    from repro.isa import assemble

    source = Path(args.file).read_text()
    program = assemble(source, name=Path(args.file).stem)
    result = offload_program(program, get_config(args.config))
    if not result.accelerated:
        print("no loops accelerated")
        for label, reason in result.skipped.items():
            print(f"  {label}: {reason}")
        return 1
    print(f"; accelerated loops: {', '.join(result.accelerated)} "
          f"({result.removed} permutes removed)")
    for label, reason in result.skipped.items():
        print(f"; skipped {label}: {reason}")
    print(result.program)
    for context, spu_program in result.controller_programs:
        print(f"\n; --- controller context {context} ---")
        print("; " + render_program(spu_program).replace("\n", "\n; "))
    return 0


def _variants(args: argparse.Namespace) -> tuple[str, ...]:
    return ("mmx", "spu") if args.variant == "both" else (args.variant,)


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.export import kernel_profile_report

    [name] = _kernels(args)
    variants = _variants(args)
    report = kernel_profile_report(make_kernel(name), variants)
    if args.json is not None:
        _emit(args.json, report)
        return 0
    # Human-readable rendering of the same data.
    body = report["data"]
    print(f"{body['kernel']} ({body['description']}), config {body['config']}")
    for variant in variants:
        section = body["variants"][variant]
        stats = section["stats"]
        print(f"\n[{variant}] {stats['cycles']} cycles, "
              f"{stats['instructions']} instructions, ipc {stats['ipc']:.2f}")
        rows = [[category, cycles, pct(cycles / stats["cycles"] if stats["cycles"] else 0.0, 1)]
                for category, cycles in stats["cycle_attribution"].items()]
        print(format_table(["cycle attribution", "cycles", "share"], rows))
        mix = section["instruction_mix"]
        top = list(mix["by_opcode"].items())[:8]
        print(format_table(["top opcodes", "dynamic count"], [list(kv) for kv in top]))
        print(f"MMX fraction {pct(mix['mmx_fraction'], 1)}, "
              f"alignment/MMX {pct(mix['permute_fraction_of_mmx'], 1)}")
        uop = section.get("uop_cache")
        if uop:
            print(f"uop cache: {uop['hits']} hits / {uop['misses']} misses "
                  f"({pct(uop['hit_rate'], 1)} hit rate), "
                  f"{uop['rebuilds']} identity rebuilds, "
                  f"{uop['cached_entries']} entries resident")
        controller = section.get("controller")
        if controller:
            hottest = sorted(controller["state_occupancy"].items(),
                             key=lambda kv: -kv[1])[:6]
            print(f"SPU controller: {controller['steps']} steps, GO occupancy "
                  f"{pct(controller['go_occupancy'], 1)}, "
                  f"{controller['idle_entries']} idle entries")
            if "clean_idle_entries" in controller:
                print(f"  completions: {controller['clean_idle_entries']} clean"
                      f" idle entries, {controller['fault_parks']} fault parks,"
                      f" {controller['park_recoveries']} park recoveries")
            print(format_table(["state", "steps"], [list(kv) for kv in hottest]))
    comparison = body.get("comparison")
    if comparison:
        print(f"\nspeedup: {ratio(comparison['speedup'])}x "
              f"({comparison['removed_permutes']} static permutes off-loaded)")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.export import trace_profile_report

    [name] = _kernels(args)
    variants = _variants(args)
    report = trace_profile_report(make_kernel(name), variants)
    body = report["data"]
    # --fail-on uncertified is the soundness gate: a dynamically clean
    # trace whose fusion certificate was withheld.  --fail-on not-fusible
    # is the strict gate: any trace that is not certified fusible (which
    # includes structural prologue/epilogue traces, so it is only useful
    # for single-loop kernels).
    summaries = [body["variants"][variant]["summary"] for variant in variants]
    if args.fail_on == "uncertified":
        failed = any(s.get("uncertified_traces", 0) for s in summaries)
    else:
        failed = args.fail_on == "not-fusible" and any(
            s["traces"] > s["fusible_traces"] for s in summaries)
    if args.json is not None:
        _emit(args.json, report)
        return 1 if failed else 0
    print(f"{body['kernel']} ({body['description']}), config {body['config']}")
    for variant in variants:
        section = body["variants"][variant]
        total = section["cycles"]
        summary = section["summary"]
        print(f"\n[{variant}] {total} cycles over {summary['traces']} trace(s); "
              f"{summary['fusible_traces']} fusible covering "
              f"{pct(summary['fusible_share'], 1)} of cycles; "
              f"{summary.get('uncertified_traces', 0)} uncertified")
        uop = section["uop_cache"]
        print(f"uop cache: {uop['hits']} hits / {uop['misses']} misses "
              f"({pct(uop['hit_rate'], 1)} hit rate), "
              f"{uop['rebuilds']} identity rebuilds")
        shown = section["traces"][:args.limit]
        rows = []
        for record in shown:
            state = record["fusion"].get("state", "")
            if record["fusion"]["fusible"]:
                fusible_cell = "yes"
            elif state == "uncertified":
                fusible_cell = "uncert"
            else:
                fusible_cell = "-"
            rows.append([
                record["label"] or f"@{record['head']}",
                f"{record['head']}+{record['length']}",
                record["executions"],
                record["cycles"],
                pct(record["cycles"] / total if total else 0.0, 1),
                f"{record['cpi']:.2f}",
                pct(record["pair_fraction"], 1),
                record["stall_cycles"],
                fusible_cell,
            ])
        print(format_table(
            ["trace", "span", "execs", "cycles", "share", "cpi", "pair",
             "stalls", "fusible"],
            rows,
        ))
        for record in shown:
            reasons = record["fusion"]["reasons"]
            if reasons:
                label = record["label"] or f"@{record['head']}"
                print(f"  {label}: {reasons[0]}")
    return 1 if failed else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.cpu import trace_run
    from repro.obs.export import trace_header, trace_records

    [name] = _kernels(args)
    kernel = make_kernel(name)
    trace = trace_run(kernel.machine(args.variant), max_entries=args.max_entries)
    if args.jsonl is not None:
        records = [trace_header(kernel, args.variant), *trace_records(trace)]
        _emit(args.jsonl, records, f" ({len(trace)} records)")
        return 0
    print(trace.render(limit=args.limit))
    stats = trace.stats
    print(f"\n{stats.cycles} cycles, {stats.instructions} instructions, "
          f"{stats.spu_routed} SPU-routed")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.faults.report import check_report, render_check

    kernels = tuple(_kernels(args))
    # The serial run_check is the reference the pooled path is tested
    # against; any runner flag selects the runner.
    pooled = args.jobs > 1 or args.resume is not None or args.progress
    options = dict(kernels=kernels, faults=args.faults, seed=args.seed,
                   resilience=args.mode, fast=args.fast,
                   swar_check=args.swar_check)

    def work(tracer, root):
        if not pooled:
            from repro.faults import run_check

            return run_check(**options, tracer=tracer, root=root), None
        from repro.faults import run_check_parallel
        from repro.runner import RunnerConfig

        return run_check_parallel(
            **options, jobs=args.jobs, journal_path=args.resume,
            runner_config=RunnerConfig(jobs=args.jobs,
                                       interrupt_after=args.interrupt_after),
            tracer=tracer, root=root,
            progress=sys.stderr if args.progress else None,
        )

    def report(result) -> int:
        if args.json is not None:
            _emit(args.json, check_report(result))
        else:
            print(render_check(result))
        # Injection outcomes are data, not failures; only a broken clean
        # differential (simulator vs golden reference) fails the check.
        return 0 if result.clean_ok else 1

    attributes = dict(kernels=len(kernels or ALL_KERNELS), faults=args.faults,
                      seed=args.seed)
    if pooled:
        attributes["jobs"] = args.jobs
    return _campaign(args, work, report, **attributes)


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import exit_code, lint_kernel, lint_report, render_lint

    results = [lint_kernel(name) for name in _kernels(args)]
    if args.json is not None:
        _emit(args.json, lint_report(results))
    else:
        print(render_lint(results))
    return exit_code(results, args.fail_on)


def _cmd_certify(args: argparse.Namespace) -> int:
    from repro.analysis.absint import fusion_audit_report

    report = fusion_audit_report(_kernels(args))
    body = report["data"]
    summary = body["summary"]
    uncertified = summary["by_agreement"].get("static-diagnosed", 0)
    failed = summary["unexplained"] > 0 or (
        args.fail_on == "uncertified" and uncertified > 0
    )
    if args.json is not None:
        _emit(args.json, report)
        return 1 if failed else 0
    rows = [
        [
            row["kernel"],
            row["variant"],
            row["loop"],
            "yes" if row["certified"] else "-",
            row["trip"] if row["trip"] is not None else "-",
            row["dynamic"] or "-",
            row["agreement"],
        ]
        for row in body["regions"]
    ]
    print(format_table(
        ["kernel", "variant", "loop", "cert", "trip", "dynamic", "agreement"],
        rows,
    ))
    for row in body["regions"]:
        if row["agreement"] in ("static-diagnosed", "unexplained"):
            print(f"  {row['kernel']}/{row['variant']} {row['loop']}: "
                  f"{row['explanation']}")
    counts = ", ".join(
        f"{count} {label}"
        for label, count in sorted(summary["by_agreement"].items())
    )
    print(f"\n{summary['regions']} region(s): {counts}; "
          f"{summary['unexplained']} unexplained")
    return 1 if failed else 0


def _cmd_report(args: argparse.Namespace) -> int:
    import time

    from repro.experiments import write_report

    started = time.perf_counter()
    path = write_report(args.output, fast=args.fast)
    print(f"wrote {path} in {time.perf_counter() - started:.1f}s")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs.export import envelope
    from repro.perf import (
        SIMSPEED_KERNELS,
        measure_simspeed,
        render_simspeed,
        simspeed_report,
    )

    cases = SIMSPEED_KERNELS
    wanted = set(_kernels(args))
    if wanted:
        cases = tuple(case for case in SIMSPEED_KERNELS if case[0] in wanted)
        unknown = wanted - {case[0] for case in cases}
        if unknown:
            raise KernelError(
                f"no benchmark case for {sorted(unknown)}; choose from "
                f"{[case[0] for case in SIMSPEED_KERNELS]}"
            )
    results = measure_simspeed(rounds=args.rounds, cases=cases)
    if args.json is not None:
        _emit(args.json, envelope("benchmark",
                                  simspeed_report(results, args.rounds)))
        return 0
    print(render_simspeed(results, args.rounds))
    return 0


# ---- argument parser -----------------------------------------------------------


def _add_kernels(parser: argparse.ArgumentParser, what: str | None = None,
                 every: str | None = None) -> None:
    """The kernel positional: one name, or names (*what*) and ``--all``."""
    if what is None:
        parser.add_argument("kernel", nargs=1, help="kernel name (forgiving match)")
        return
    parser.add_argument("kernel", nargs="*", help=f"{what} (forgiving match)")
    if every is not None:
        parser.add_argument("--all", action="store_true", help=every)


def _add_output(parser: argparse.ArgumentParser, what: str,
                flag: str = "--json") -> None:
    parser.add_argument(flag, nargs="?", const="-", default=None,
                        metavar="PATH",
                        help=f"write {what} ('-' or no value: stdout)")


def _add_fast(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fast", action="store_true",
                        help="shrink FFT1024 for quick runs")


def _add_runner_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default: 1 = serial)")
    parser.add_argument(
        "--resume", default=None, metavar="PATH",
        help="crash-consistent journal; re-invoking with the same PATH "
        "skips already-completed tasks",
    )
    parser.add_argument(
        "--interrupt-after", dest="interrupt_after", type=int,
        default=None, metavar="N",
        help="stop (exit 3) after N completed tasks, leaving the "
        "journal resumable (test/ops hook)",
    )
    _add_output(parser, "the repro.runner/1 execution report", "--runner-json")
    parser.add_argument(
        "--spans", default=None, metavar="PATH",
        help="write an OTLP-flavored span JSONL timeline of the "
        "campaign (wall-clock only; the byte-stable report never "
        "carries it)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print live per-slice progress lines to stderr",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPU reproduction (Oliver/Akella/Chong, SPAA 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        target = sub.add_parser(name, help=help)
        target.set_defaults(func=func)
        return target

    for name in ("table1", "table2", "table3", "fig9"):
        _add_fast(command(name, _cmd_table, f"regenerate {name}"))

    run_parser = command(
        "run", _cmd_run, "verify and compare kernels (sweeps run on the "
        "resilient campaign runner)",
    )
    _add_kernels(run_parser, "kernel(s) to run",
                 every="run every registered kernel")
    _add_fast(run_parser)
    _add_runner_options(run_parser)

    serve_parser = command(
        "serve", _cmd_serve, "run the durable simulation job service "
        "(journalled jobs, crash recovery, admission control; see "
        "docs/robustness.md)",
    )
    serve_parser.add_argument(
        "--journal-dir", required=True,
        help="directory for the serve journal and job artifacts; restart "
        "with the same directory to resume unfinished jobs",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 binds an ephemeral port, published to "
        "<journal-dir>/endpoint.json)",
    )
    serve_parser.add_argument(
        "--queue-depth", type=int, default=8,
        help="max queued jobs per tenant before submissions get 429",
    )
    serve_parser.add_argument(
        "--max-tenants", type=int, default=16,
        help="max distinct tenants with live queues",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=1,
        help="supervised job worker processes (jobs running concurrently)",
    )
    serve_parser.add_argument(
        "--jobs", type=int, default=1,
        help="campaign runner pool size inside each job worker",
    )
    serve_parser.add_argument(
        "--tenant-weight", action="append", default=[], metavar="NAME=W",
        help="dispatch weight for a tenant (repeatable; unlisted tenants "
        "weigh 1; weighted round-robin with a provable starvation bound)",
    )
    serve_parser.add_argument(
        "--max-inflight", type=int, default=0,
        help="max concurrently running jobs per tenant (0 = uncapped)",
    )
    serve_parser.add_argument(
        "--hang-timeout", type=float, default=10.0,
        help="seconds without a heartbeat before a job worker is SIGKILLed "
        "and the job requeued",
    )
    serve_parser.add_argument(
        "--job-attempts", type=int, default=3,
        help="supervision attempts per job before it is failed terminally",
    )
    serve_parser.add_argument(
        "--compact", action="store_true",
        help="compact the serve journal offline (crash-safe snapshot-then-"
        "rename) and exit without starting the server",
    )
    serve_parser.add_argument(
        "--compact-every", type=int, default=0,
        help="compact the journal when idle once it exceeds this many "
        "records (0 = never)",
    )

    command("list", _cmd_list, "list kernels")

    cost_parser = command("cost", _cmd_cost, "SPU hardware cost summary")
    cost_parser.add_argument("--config", default="D", help="configuration A-D")
    cost_parser.add_argument("--contexts", type=int, default=1)

    _add_kernels(command("offload", _cmd_offload, "show the off-load transform"))

    compile_parser = command(
        "compile", _cmd_compile,
        "compile a plain .asm file into its SPU-accelerated form",
    )
    compile_parser.add_argument("file", help="assembly source file")
    compile_parser.add_argument("--config", default="D", help="configuration A-D")

    profile_parser = command(
        "profile", _cmd_profile,
        "instruction mix + cycle attribution + SPU occupancy",
    )
    _add_kernels(profile_parser)
    profile_parser.add_argument("--variant", choices=("mmx", "spu", "both"),
                                default="both")
    _add_output(profile_parser, "the schema-versioned JSON report")

    top_parser = command(
        "top", _cmd_top, "hot-trace profile: per-trace cycles, stalls and "
        "fusibility (the superop-compilation planning input)",
    )
    _add_kernels(top_parser)
    top_parser.add_argument("--variant", choices=("mmx", "spu", "both"),
                            default="both")
    top_parser.add_argument("--limit", type=int, default=10,
                            help="max traces listed (text mode; default: 10)")
    _add_output(top_parser, "the repro.obs/2 trace-profile JSON")
    top_parser.add_argument(
        "--fail-on", dest="fail_on",
        choices=("uncertified", "not-fusible"), default=None,
        help="uncertified: exit 1 when a dynamically fusible trace lacks "
        "a replay-checked certificate; not-fusible: exit 1 when any "
        "trace is not certified fusible (default: always exit 0)",
    )

    trace_parser = command(
        "trace", _cmd_trace, "issue-by-issue pipeline listing for one kernel"
    )
    _add_kernels(trace_parser)
    trace_parser.add_argument("--variant", choices=("mmx", "spu"), default="spu")
    trace_parser.add_argument("--limit", type=int, default=64,
                              help="max listing lines (text mode)")
    trace_parser.add_argument("--max-entries", type=int, default=100_000)
    _add_output(trace_parser, "one JSON record per issued instruction",
                "--jsonl")

    check_parser = command(
        "check", _cmd_check,
        "differential self-check + seeded fault-injection campaign",
    )
    _add_kernels(check_parser, "kernel(s) to check; default: all")
    check_parser.add_argument("--faults", type=int, default=0, metavar="N",
                              help="fault injections to run (default: none)")
    check_parser.add_argument("--seed", type=int, default=0,
                              help="campaign seed (default: 0)")
    check_parser.add_argument(
        "--mode", choices=("strict", "degrade", "halt"), default="degrade",
        help="resilience mode of the machines under test (default: degrade)",
    )
    _add_fast(check_parser)
    check_parser.add_argument(
        "--swar-check", dest="swar_check", action="store_true",
        help="also sample-diff the SWAR data path against the NumPy "
        "reference backend (adds summary.swar_mismatches to the report)",
    )
    _add_output(check_parser, "the fault-campaign JSON report")
    _add_runner_options(check_parser)

    lint_parser = command(
        "lint", _cmd_lint, "static verifier: microprograms, schedule "
        "agreement, off-load certificates, superop fusion legality",
    )
    _add_kernels(lint_parser, "kernel(s) to lint",
                 every="lint every registered kernel")
    _add_output(lint_parser, "the repro.analysis/1 JSON report")
    lint_parser.add_argument(
        "--fail-on", dest="fail_on", choices=("info", "warn", "error"),
        default="error",
        help="exit 1 when an unsuppressed finding reaches this severity "
        "(default: error)",
    )

    certify_parser = command(
        "certify", _cmd_certify, "superop legality cross-check: static "
        "certificates vs dynamic trace verdicts, per loop region",
    )
    _add_kernels(certify_parser, "kernel(s) to certify",
                 every="certify every registered kernel")
    _add_output(certify_parser, "the repro.analysis/2 fusion-audit JSON")
    certify_parser.add_argument(
        "--fail-on", dest="fail_on", choices=("unexplained", "uncertified"),
        default="unexplained",
        help="also exit 1 on static-diagnosed regions (default: only "
        "unexplained disagreements fail)",
    )

    report_parser = command(
        "report", _cmd_report, "run the full evaluation and write REPORT.md"
    )
    report_parser.add_argument("--output", default="REPORT.md")
    _add_fast(report_parser)

    bench_parser = command(
        "bench", _cmd_bench,
        "simulation throughput: SWAR data path vs the NumPy reference",
    )
    _add_kernels(bench_parser,
                 "benchmark kernel(s); default: DotProduct, FIR12, SAD")
    bench_parser.add_argument(
        "--rounds", type=int, default=5, metavar="N",
        help="timed rounds per kernel and backend; the median is reported "
        "(default: 5)",
    )
    _add_output(bench_parser, "the repro.simspeed/1 measurement")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KernelError as error:
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
