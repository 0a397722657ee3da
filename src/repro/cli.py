"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``table1`` / ``table2`` / ``table3`` / ``fig9``
    Regenerate the corresponding paper table/figure and print the
    measured-vs-published comparison (``--fast`` shrinks FFT1024).
``run KERNEL [KERNEL ...] | --all [--jobs N] [--resume PATH]``
    Verify kernels and print their MMX vs MMX+SPU comparisons.  One kernel
    runs in-process; several (or ``--all``) run ``repro check``'s clean-check
    tasks as a sweep on the resilient campaign runner — ``--jobs N``
    workers, per-task timeouts, retries, circuit breaker, and a
    crash-consistent ``--resume`` journal (docs/robustness.md, "Campaign
    orchestration").
``list``
    List the available kernels with their Table 2 descriptions.
``cost [--config X]``
    Print the SPU hardware cost summary (Table 1 row + die fraction).
``offload KERNEL``
    Show the off-load pass's transformation for a kernel's first loop.
``profile KERNEL [--json PATH]``
    VTune-style dynamic profile: instruction mix, per-stage cycle
    attribution and SPU controller occupancy (``--json -`` for stdout;
    schema in docs/observability.md).
``top KERNEL [--variant V] [--limit N] [--json PATH] [--fail-on STATE]``
    Hot-trace profile: dynamic traces between backward control transfers,
    ranked by cycles, with exact per-trace cycle/stall/pairing attribution
    and fusibility verdicts — ``fusible: true`` requires a replay-checked
    fusion certificate from the superop legality engine on top of the
    dynamic conditions (stable schedule + clean agreement analysis); a
    dynamically clean trace the certifier diagnosed reports state
    ``uncertified`` instead.  The planning input for trace-level superop
    compilation (ROADMAP item 1; schema ``repro.obs/2``).  ``--fail-on
    uncertified`` exits 1 when a dynamically fusible trace lacks a
    certificate; ``--fail-on not-fusible`` exits 1 when any trace is not
    certified (nonzero-exit parity with ``repro lint``).
``certify [KERNEL ...| --all] [--json PATH] [--fail-on CLASS]``
    Superop legality cross-check: certify every loop region of every
    kernel variant statically, reconcile against the dynamic trace
    profile, and report per-region agreement classes (byte-stable
    ``fusion-audit`` document, schema ``repro.analysis/2``).  Exits 1
    on ``unexplained`` disagreements (always) or, with ``--fail-on
    uncertified``, whenever a dynamically fusible loop lacks a
    certificate.
``trace KERNEL [--jsonl PATH]``
    Issue-by-issue pipeline listing; ``--jsonl`` exports one record per
    issued instruction behind a ``trace-header`` record naming the
    kernel, variant and config.
``check [KERNEL] [--faults N] [--seed S] [--json PATH] [--jobs N]
[--resume PATH]``
    Differential self-check: replay every kernel (or one) against the
    NumPy fixed-point reference, optionally under a seeded fault
    campaign classifying injections as masked/detected/silent
    (schema in docs/robustness.md).  ``--swar-check`` additionally
    sample-diffs the SWAR data path against the NumPy reference backend
    (``summary.swar_mismatches``; opt-in so default reports stay
    byte-stable).  ``--jobs N`` runs the campaign on
    the worker pool; ``--resume PATH`` journals progress there and skips
    already-completed tasks on re-invocation — the merged report is
    byte-identical to a serial run either way.  ``--spans PATH`` writes an
    OTLP-flavored span JSONL timeline (campaign → slice → task → run →
    phase; wall-clock lives only there, never in the campaign report) and
    ``--progress`` prints live per-slice progress lines to stderr.
``lint [KERNEL ...| --all] [--json PATH] [--fail-on SEV]``
    Static verifier: microprogram structure, kernel/controller schedule
    agreement and off-load soundness certificates (rule catalog in
    docs/static-analysis.md; schema ``repro.analysis/1``).  Exits 1 when
    any unsuppressed finding reaches the ``--fail-on`` severity.
``bench [KERNEL ...] [--rounds N] [--json PATH]``
    Simulation throughput (simulated cycles/sec and instructions/sec):
    the SWAR integer data path against the NumPy reference backend on
    the hot kernels (methodology and schema ``repro.simspeed/1`` in
    docs/performance.md; the tracked variant lives in
    ``benchmarks/bench_simspeed.py``).

``profile``, ``trace``, ``check``, ``lint`` and ``certify`` resolve kernel
names forgivingly (``dotprod`` → ``DotProduct``).
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


def _cmd_table(args: argparse.Namespace) -> int:
    print(EXPERIMENTS[args.command](ExperimentSuite(fast=args.fast)).text)
    return 0


def _run_one_kernel(name: str) -> int:
    kernel = make_kernel(name)
    print(f"Verifying {kernel.name} ({kernel.description}) ...")
    try:
        comparison = kernel.verify()
    except KernelError as exc:
        print(f"  MISMATCH: {exc}")
        return 1
    print("  both variants match the fixed-point reference bit-exactly")
    rows = [
        ["cycles", comparison.mmx.cycles, comparison.spu.cycles],
        ["instructions", comparison.mmx.instructions, comparison.spu.instructions],
        ["alignment instructions", comparison.mmx.alignment_candidates,
         comparison.spu.alignment_candidates],
        ["branches / mispredicts",
         f"{comparison.mmx.branches} / {comparison.mmx.mispredicts}",
         f"{comparison.spu.branches} / {comparison.spu.mispredicts}"],
        ["MMX busy", pct(comparison.mmx.mmx_busy_fraction, 1),
         pct(comparison.spu.mmx_busy_fraction, 1)],
    ]
    print(format_table(["metric", "MMX only", "MMX + SPU"], rows))
    print(f"speedup: {ratio(comparison.speedup)}x "
          f"({comparison.removed_permutes} static permutes off-loaded)")
    return 0


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


def _cmd_run(args: argparse.Namespace) -> int:
    names = list(args.kernel)
    if args.all:
        names = sorted(ALL_KERNELS)
    if not names:
        print("repro run: name at least one kernel or pass --all",
              file=sys.stderr)
        raise SystemExit(2)
    unknown = [name for name in names if name not in ALL_KERNELS]
    if unknown:
        print(f"repro run: error: invalid choice: {unknown} "
              f"(choose from {sorted(ALL_KERNELS)})", file=sys.stderr)
        raise SystemExit(2)
    if len(names) == 1 and args.jobs <= 1 and args.resume is None:
        return _run_one_kernel(names[0])

    # Sweep: one clean_check task per kernel on the campaign runner (the
    # tasks of `repro check`'s clean phase).
    from repro.errors import RunnerInterrupted
    from repro.faults.parallel import clean_tasks
    from repro.runner import (
        Journal, Runner, RunnerConfig, clean_interrupts, runner_report,
    )
    from repro.obs.export import write_json

    config = RunnerConfig(jobs=args.jobs,
                          interrupt_after=args.interrupt_after)
    journal = None
    if args.resume is not None:
        fingerprint = {"verb": "run", "kernels": names, "fast": args.fast}
        journal = Journal(args.resume, fingerprint,
                          fsync_every=config.fsync_every)
    tracer = root = None
    if args.spans is not None:
        from repro.obs.spans import SpanTracer

        tracer = SpanTracer()
        root = tracer.begin("campaign:run", kernels=len(names),
                            fast=args.fast, jobs=config.jobs)
    runner = Runner(config, journal=journal, tracer=tracer, span_parent=root,
                    progress=sys.stderr if args.progress else None)
    try:
        try:
            # SIGINT/SIGTERM take the same clean path as --interrupt-after:
            # journal flushed, spans exported as aborted, exit 3, resumable.
            with clean_interrupts():
                results = runner.run(clean_tasks(tuple(names), args.fast))
        except RunnerInterrupted as exc:
            print(f"repro run: {exc}", file=sys.stderr)
            return 3
        finally:
            if journal is not None:
                journal.close()
        # Success only: an interrupt leaves the root open (exported aborted).
        if root is not None:
            tracer.end(root)
    finally:
        if tracer is not None:
            target = tracer.write(args.spans)
            if target is not None:
                print(f"wrote {target} ({len(tracer.spans)} spans)",
                      file=sys.stderr)
    rows = []
    failed = 0
    for name in names:
        result = results[f"clean:{name}"]
        if result.ok:
            variants = result.result["record"]["variants"]
            mmx, spu = variants["mmx"]["cycles"], variants["spu"]["cycles"]
            verified = all(variant["match"] for variant in variants.values())
            failed += 0 if verified else 1
            rows.append([
                name,
                "ok" if verified else "MISMATCH",
                mmx,
                spu,
                f"{ratio(mmx / spu if spu else 0.0)}x",
                result.result["removed_permutes"],
                "cached" if result.cached else f"{result.attempts} attempt(s)",
            ])
        else:
            failed += 1
            rows.append([name, result.status.upper(), "-", "-", "-", "-",
                         result.failure or ""])
    print(format_table(
        ["kernel", "reference", "MMX cycles", "SPU cycles", "speedup",
         "permutes off-loaded", "runner"],
        rows,
        title=f"Kernel sweep ({args.jobs} job(s))",
    ))
    if runner.fallback_reason:
        print(f"note: pool unavailable, ran serially "
              f"({runner.fallback_reason})")
    if args.runner_json is not None:
        target = write_json(args.runner_json, runner_report(runner))
        if target is not None:
            print(f"wrote {target}")
    return 1 if failed else 0


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
    result = make_kernel(args.kernel).compile_result()
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


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.export import kernel_profile_report, resolve_kernel_name, write_json

    name = resolve_kernel_name(args.kernel)
    kernel = make_kernel(name)
    variants = ("mmx", "spu") if args.variant == "both" else (args.variant,)
    report = kernel_profile_report(kernel, variants)
    if args.json is not None:
        target = write_json(args.json, report)
        if target is not None:
            print(f"wrote {target}")
        return 0
    # Human-readable rendering of the same data.
    body = report["data"]
    print(f"{body['kernel']} ({body['description']}), config {body['config']}")
    for variant in variants:
        section = body["variants"][variant]
        stats = section["stats"]
        attribution = section["cycle_attribution"]
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
        del attribution
    comparison = body.get("comparison")
    if comparison:
        print(f"\nspeedup: {ratio(comparison['speedup'])}x "
              f"({comparison['removed_permutes']} static permutes off-loaded)")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.export import resolve_kernel_name, trace_profile_report, write_json

    name = resolve_kernel_name(args.kernel)
    kernel = make_kernel(name)
    variants = ("mmx", "spu") if args.variant == "both" else (args.variant,)
    report = trace_profile_report(kernel, variants)
    body = report["data"]
    # --fail-on uncertified is the soundness gate: a dynamically clean
    # trace whose fusion certificate was withheld.  --fail-on not-fusible
    # is the strict gate: any trace that is not certified fusible (which
    # includes structural prologue/epilogue traces, so it is only useful
    # for single-loop kernels).
    failed = False
    for variant in variants:
        summary = body["variants"][variant]["summary"]
        uncertified = summary.get("uncertified_traces", 0)
        not_fusible = summary["traces"] - summary["fusible_traces"]
        if args.fail_on == "uncertified" and uncertified:
            failed = True
        elif args.fail_on == "not-fusible" and not_fusible:
            failed = True
    if args.json is not None:
        target = write_json(args.json, report)
        if target is not None:
            print(f"wrote {target}")
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
    from itertools import chain

    from repro.cpu import trace_run
    from repro.obs.export import (
        resolve_kernel_name,
        trace_header,
        trace_records,
        write_jsonl,
    )

    name = resolve_kernel_name(args.kernel)
    kernel = make_kernel(name)
    machine = kernel.machine(args.variant)
    trace = trace_run(machine, max_entries=args.max_entries)
    if args.jsonl is not None:
        records = chain([trace_header(kernel, args.variant)], trace_records(trace))
        target = write_jsonl(args.jsonl, records)
        if target is not None:
            print(f"wrote {target} ({len(trace)} records)")
        return 0
    print(trace.render(limit=args.limit))
    stats = trace.stats
    print(f"\n{stats.cycles} cycles, {stats.instructions} instructions, "
          f"{stats.spu_routed} SPU-routed")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.errors import RunnerInterrupted
    from repro.faults import run_check
    from repro.faults.report import check_report, render_check
    from repro.obs.export import resolve_kernel_name, write_json
    from repro.runner import clean_interrupts

    kernels = tuple(resolve_kernel_name(name) for name in args.kernel)
    tracer = None
    if args.spans is not None:
        from repro.obs.spans import SpanTracer

        tracer = SpanTracer()
    progress = sys.stderr if args.progress else None
    runner = None
    try:
        try:
            # SIGINT/SIGTERM take the same clean path as --interrupt-after:
            # journal flushed, spans exported as aborted, exit 3, resumable.
            with clean_interrupts():
                if args.jobs > 1 or args.resume is not None:
                    from repro.faults import run_check_parallel
                    from repro.runner import RunnerConfig

                    config = RunnerConfig(
                        jobs=args.jobs, interrupt_after=args.interrupt_after)
                    result, runner = run_check_parallel(
                        kernels=kernels,
                        faults=args.faults,
                        seed=args.seed,
                        resilience=args.mode,
                        fast=args.fast,
                        swar_check=args.swar_check,
                        jobs=args.jobs,
                        journal_path=args.resume,
                        runner_config=config,
                        tracer=tracer,
                        progress=progress,
                    )
                else:
                    result = run_check(
                        kernels=kernels,
                        faults=args.faults,
                        seed=args.seed,
                        resilience=args.mode,
                        fast=args.fast,
                        swar_check=args.swar_check,
                        tracer=tracer,
                    )
        except RunnerInterrupted as exc:
            print(f"repro check: {exc}", file=sys.stderr)
            return 3
    finally:
        # Runs on the interrupt path too: an aborted campaign still writes
        # its spans (open ones export with an aborted status).
        if tracer is not None:
            target = tracer.write(args.spans)
            if target is not None:
                print(f"wrote {target} ({len(tracer.spans)} spans)",
                      file=sys.stderr)
    if args.json is not None:
        target = write_json(args.json, check_report(result))
        if target is not None:
            print(f"wrote {target}")
    else:
        print(render_check(result))
    if runner is not None:
        if runner.fallback_reason:
            print(f"note: pool unavailable, ran serially "
                  f"({runner.fallback_reason})", file=sys.stderr)
        if args.runner_json is not None:
            from repro.runner import runner_report

            target = write_json(args.runner_json, runner_report(runner))
            if target is not None:
                print(f"wrote {target}")
    # Injection outcomes are data, not failures; only a broken clean
    # differential (simulator vs golden reference) fails the check.
    return 0 if result.clean_ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import exit_code, lint_all, lint_kernel, lint_report, render_lint
    from repro.obs.export import resolve_kernel_name, write_json

    if args.all:
        results = lint_all()
    elif args.kernel:
        results = [
            lint_kernel(resolve_kernel_name(name)) for name in args.kernel
        ]
    else:
        print("repro lint: name at least one kernel or pass --all",
              file=sys.stderr)
        return 2
    if args.json is not None:
        target = write_json(args.json, lint_report(results))
        if target is not None:
            print(f"wrote {target}")
    else:
        print(render_lint(results))
    return exit_code(results, args.fail_on)


def _cmd_certify(args: argparse.Namespace) -> int:
    from repro.analysis.absint import fusion_audit_report
    from repro.obs.export import resolve_kernel_name, write_json

    if args.all:
        names = None
    elif args.kernel:
        names = [resolve_kernel_name(name) for name in args.kernel]
    else:
        print("repro certify: name at least one kernel or pass --all",
              file=sys.stderr)
        return 2
    report = fusion_audit_report(names)
    body = report["data"]
    summary = body["summary"]
    uncertified = summary["by_agreement"].get("static-diagnosed", 0)
    failed = summary["unexplained"] > 0 or (
        args.fail_on == "uncertified" and uncertified > 0
    )
    if args.json is not None:
        target = write_json(args.json, report)
        if target is not None:
            print(f"wrote {target}")
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
    from repro.obs.export import envelope, write_json
    from repro.perf import (
        SIMSPEED_KERNELS,
        measure_simspeed,
        render_simspeed,
        simspeed_report,
    )

    cases = SIMSPEED_KERNELS
    if args.kernel:
        wanted = {name.lower() for name in args.kernel}
        cases = tuple(
            case for case in SIMSPEED_KERNELS if case[0].lower() in wanted
        )
        unknown = wanted - {case[0].lower() for case in cases}
        if unknown:
            choices = ", ".join(case[0] for case in SIMSPEED_KERNELS)
            print(f"repro bench: error: invalid choice: {sorted(unknown)} "
                  f"(choose from {choices})", file=sys.stderr)
            return 2
    results = measure_simspeed(rounds=args.rounds, cases=cases)
    if args.json is not None:
        payload = envelope("benchmark", simspeed_report(results, args.rounds))
        target = write_json(args.json, payload)
        if target is not None:
            print(f"wrote {target}")
        return 0
    print(render_simspeed(results, args.rounds))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPU reproduction (Oliver/Akella/Chong, SPAA 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("table1", "table2", "table3", "fig9"):
        table_parser = sub.add_parser(name, help=f"regenerate {name}")
        table_parser.add_argument("--fast", action="store_true",
                                  help="shrink FFT1024 for quick runs")
        table_parser.set_defaults(func=_cmd_table)

    def add_runner_options(target: argparse.ArgumentParser) -> None:
        target.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="worker processes (default: 1 = serial)")
        target.add_argument(
            "--resume", default=None, metavar="PATH",
            help="crash-consistent journal; re-invoking with the same PATH "
            "skips already-completed tasks",
        )
        target.add_argument(
            "--interrupt-after", dest="interrupt_after", type=int,
            default=None, metavar="N",
            help="stop (exit 3) after N completed tasks, leaving the "
            "journal resumable (test/ops hook)",
        )
        target.add_argument(
            "--runner-json", dest="runner_json", nargs="?", const="-",
            default=None, metavar="PATH",
            help="write the repro.runner/1 execution report ('-': stdout)",
        )
        target.add_argument(
            "--spans", default=None, metavar="PATH",
            help="write an OTLP-flavored span JSONL timeline of the "
            "campaign (wall-clock only; the byte-stable report never "
            "carries it)",
        )
        target.add_argument(
            "--progress", action="store_true",
            help="print live per-slice progress lines to stderr",
        )

    run_parser = sub.add_parser(
        "run", help="verify and compare kernels (sweeps run on the "
        "resilient campaign runner)",
    )
    run_parser.add_argument(
        "kernel", nargs="*",
        help=f"kernel(s) to run (choose from {', '.join(sorted(ALL_KERNELS))})",
    )
    run_parser.add_argument("--all", action="store_true",
                            help="run every registered kernel")
    run_parser.add_argument("--fast", action="store_true",
                            help="shrink FFT1024 for quick runs")
    add_runner_options(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    serve_parser = sub.add_parser(
        "serve", help="run the durable simulation job service (journalled "
        "jobs, crash recovery, admission control; see docs/robustness.md)",
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
    serve_parser.set_defaults(func=_cmd_serve)

    list_parser = sub.add_parser("list", help="list kernels")
    list_parser.set_defaults(func=_cmd_list)

    cost_parser = sub.add_parser("cost", help="SPU hardware cost summary")
    cost_parser.add_argument("--config", default="D", help="configuration A-D")
    cost_parser.add_argument("--contexts", type=int, default=1)
    cost_parser.set_defaults(func=_cmd_cost)

    offload_parser = sub.add_parser("offload", help="show the off-load transform")
    offload_parser.add_argument("kernel", choices=sorted(ALL_KERNELS))
    offload_parser.set_defaults(func=_cmd_offload)

    compile_parser = sub.add_parser(
        "compile", help="compile a plain .asm file into its SPU-accelerated form"
    )
    compile_parser.add_argument("file", help="assembly source file")
    compile_parser.add_argument("--config", default="D", help="configuration A-D")
    compile_parser.set_defaults(func=_cmd_compile)

    profile_parser = sub.add_parser(
        "profile", help="instruction mix + cycle attribution + SPU occupancy"
    )
    profile_parser.add_argument("kernel", help="kernel name (forgiving match)")
    profile_parser.add_argument("--variant", choices=("mmx", "spu", "both"),
                                default="both")
    profile_parser.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="write the schema-versioned JSON report ('-' or no value: stdout)",
    )
    profile_parser.set_defaults(func=_cmd_profile)

    top_parser = sub.add_parser(
        "top",
        help="hot-trace profile: per-trace cycles, stalls and fusibility "
        "(the superop-compilation planning input)",
    )
    top_parser.add_argument("kernel", help="kernel name (forgiving match)")
    top_parser.add_argument("--variant", choices=("mmx", "spu", "both"),
                            default="both")
    top_parser.add_argument("--limit", type=int, default=10,
                            help="max traces listed (text mode; default: 10)")
    top_parser.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="write the repro.obs/2 trace-profile JSON ('-' or no value: "
        "stdout)",
    )
    top_parser.add_argument(
        "--fail-on", dest="fail_on",
        choices=("uncertified", "not-fusible"), default=None,
        help="uncertified: exit 1 when a dynamically fusible trace lacks "
        "a replay-checked certificate; not-fusible: exit 1 when any "
        "trace is not certified fusible (default: always exit 0)",
    )
    top_parser.set_defaults(func=_cmd_top)

    trace_parser = sub.add_parser(
        "trace", help="issue-by-issue pipeline listing for one kernel"
    )
    trace_parser.add_argument("kernel", help="kernel name (forgiving match)")
    trace_parser.add_argument("--variant", choices=("mmx", "spu"), default="spu")
    trace_parser.add_argument("--limit", type=int, default=64,
                              help="max listing lines (text mode)")
    trace_parser.add_argument("--max-entries", type=int, default=100_000)
    trace_parser.add_argument(
        "--jsonl", nargs="?", const="-", default=None, metavar="PATH",
        help="write one JSON record per issued instruction ('-': stdout)",
    )
    trace_parser.set_defaults(func=_cmd_trace)

    check_parser = sub.add_parser(
        "check",
        help="differential self-check + seeded fault-injection campaign",
    )
    check_parser.add_argument(
        "kernel", nargs="*",
        help="kernel(s) to check (forgiving match; default: all)",
    )
    check_parser.add_argument("--faults", type=int, default=0, metavar="N",
                              help="fault injections to run (default: none)")
    check_parser.add_argument("--seed", type=int, default=0,
                              help="campaign seed (default: 0)")
    check_parser.add_argument(
        "--mode", choices=("strict", "degrade", "halt"), default="degrade",
        help="resilience mode of the machines under test (default: degrade)",
    )
    check_parser.add_argument("--fast", action="store_true",
                              help="shrink FFT1024 for quick runs")
    check_parser.add_argument(
        "--swar-check", dest="swar_check", action="store_true",
        help="also sample-diff the SWAR data path against the NumPy "
        "reference backend (adds summary.swar_mismatches to the report)",
    )
    check_parser.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="write the fault-campaign JSON report ('-' or no value: stdout)",
    )
    add_runner_options(check_parser)
    check_parser.set_defaults(func=_cmd_check)

    lint_parser = sub.add_parser(
        "lint",
        help="static verifier: microprograms, schedule agreement, "
        "off-load certificates, superop fusion legality",
    )
    lint_parser.add_argument(
        "kernel", nargs="*",
        help="kernel(s) to lint (forgiving match)",
    )
    lint_parser.add_argument("--all", action="store_true",
                             help="lint every registered kernel")
    lint_parser.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="write the repro.analysis/1 JSON report ('-': stdout)",
    )
    lint_parser.add_argument(
        "--fail-on", dest="fail_on", choices=("info", "warn", "error"),
        default="error",
        help="exit 1 when an unsuppressed finding reaches this severity "
        "(default: error)",
    )
    lint_parser.set_defaults(func=_cmd_lint)

    certify_parser = sub.add_parser(
        "certify",
        help="superop legality cross-check: static certificates vs "
        "dynamic trace verdicts, per loop region",
    )
    certify_parser.add_argument(
        "kernel", nargs="*",
        help="kernel(s) to certify (forgiving match)",
    )
    certify_parser.add_argument("--all", action="store_true",
                                help="certify every registered kernel")
    certify_parser.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="write the repro.analysis/2 fusion-audit JSON ('-': stdout)",
    )
    certify_parser.add_argument(
        "--fail-on", dest="fail_on", choices=("unexplained", "uncertified"),
        default="unexplained",
        help="also exit 1 on static-diagnosed regions (default: only "
        "unexplained disagreements fail)",
    )
    certify_parser.set_defaults(func=_cmd_certify)

    report_parser = sub.add_parser(
        "report", help="run the full evaluation and write REPORT.md"
    )
    report_parser.add_argument("--output", default="REPORT.md")
    report_parser.add_argument("--fast", action="store_true")
    report_parser.set_defaults(func=_cmd_report)

    bench_parser = sub.add_parser(
        "bench",
        help="simulation throughput: SWAR data path vs the NumPy reference",
    )
    bench_parser.add_argument(
        "kernel", nargs="*",
        help="benchmark kernel(s) (default: DotProduct, FIR12, SAD)",
    )
    bench_parser.add_argument(
        "--rounds", type=int, default=5, metavar="N",
        help="timed rounds per kernel and backend; the median is reported "
        "(default: 5)",
    )
    bench_parser.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="write the repro.simspeed/1 measurement ('-' or no value: "
        "stdout)",
    )
    bench_parser.set_defaults(func=_cmd_bench)
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
