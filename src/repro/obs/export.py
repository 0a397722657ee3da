"""Machine-readable exporters: schema-versioned JSON and JSONL.

Every exported document is wrapped in an :func:`envelope`::

    {"schema": "repro.obs/1", "kind": "<document kind>", "data": {...}}

so consumers can dispatch on ``kind`` and detect format drift via ``schema``.
The documented kinds are:

``kernel-profile``
    :func:`kernel_profile_report` — per-variant instruction mix, cycle
    attribution and SPU controller occupancy for one kernel (the payload of
    ``repro profile <kernel> --json``).
``trace``
    One JSONL record per issued instruction (``repro trace --jsonl``).
``benchmark``
    Structured benchmark results (``benchmarks/results/BENCH_*.json``).
``metrics``
    A flat :class:`repro.obs.metrics.MetricsRegistry` dump.
``fault-campaign``
    Differential self-check plus fault-injection results
    (:func:`repro.faults.check_report`, the payload of
    ``repro check --json``; see docs/robustness.md).
``runner``
    Campaign-runner execution report — per-task attempts, durations,
    retry/timeout/hang/crash counters and circuit-breaker state
    (:func:`repro.runner.runner_report`, schema ``repro.runner/1``;
    see docs/robustness.md).  Unlike the ``fault-campaign`` document it
    deliberately carries wall-clock data, so it is *not* byte-stable
    across runs.
``trace-header``
    Leading record of a ``repro trace --jsonl`` stream (schema, kernel,
    variant, config, seed) so consumers can validate a stream without
    out-of-band context.
``trace-profile``
    Hot-trace profile (schema ``repro.obs/2``): per-trace dynamic cycle /
    instruction / pairing / stall attribution with fusibility verdicts —
    the ``repro top`` payload and the planning input for trace-level
    superop compilation (ROADMAP item 1).
``span-header``
    Leading record of an OTLP-flavored span JSONL stream (schema
    ``repro.obs/2``; :class:`repro.obs.spans.SpanTracer`).

See ``docs/observability.md`` for the field-level schema.

Imports from the simulator packages happen inside functions: the pipeline
imports :mod:`repro.obs.events`, so this module must not import
``repro.kernels``/``repro.analysis`` at import time.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Iterable, Iterator

SCHEMA_VERSION = "repro.obs/1"

#: Schema tag for the level-2 observability documents introduced with the
#: hot-trace profiler: ``trace-profile``, ``trace-header`` and span streams.
SCHEMA_VERSION_2 = "repro.obs/2"

#: Schema tag for static-analysis documents (``repro lint --json``).
ANALYSIS_SCHEMA_VERSION = "repro.analysis/1"

#: Schema tag for the level-2 static-analysis documents introduced with the
#: superop legality engine: the ``fusion-audit`` cross-check export
#: (``repro certify --json``; see docs/static-analysis.md).
ANALYSIS_SCHEMA_VERSION_2 = "repro.analysis/2"

#: Schema tag for campaign-runner documents (journal header + runner report).
RUNNER_SCHEMA_VERSION = "repro.runner/1"

#: Schema tag for the simulation-service API: every ``repro serve`` response
#: envelope, its journal records and the ``serve-status`` document.
SERVE_SCHEMA_VERSION = "repro.serve/1"


def envelope(kind: str, data: dict, schema: str = SCHEMA_VERSION, **extra) -> dict:
    """Wrap *data* in the versioned export envelope."""
    return {"schema": schema, "kind": kind, **extra, "data": data}


def write_json(path: str | Path, payload: dict, indent: int = 2) -> Path | None:
    """Serialize *payload* to *path* (``"-"`` writes to stdout; returns None)."""
    text = json.dumps(payload, indent=indent, sort_keys=False, default=str)
    if str(path) == "-":
        sys.stdout.write(text + "\n")
        return None
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text + "\n")
    return target


def write_jsonl(path: str | Path, records: Iterable[dict]) -> Path | None:
    """One compact JSON document per line (``"-"`` streams to stdout)."""
    lines = (json.dumps(record, separators=(",", ":"), default=str) for record in records)
    if str(path) == "-":
        for line in lines:
            sys.stdout.write(line + "\n")
        return None
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w") as fp:
        for line in lines:
            fp.write(line + "\n")
    return target


# ---- kernel name resolution ---------------------------------------------------


def resolve_kernel_name(text: str) -> str:
    """Resolve a forgiving kernel spelling to its registry name.

    Accepts the exact registry name, any case-insensitive form, or a unique
    case-insensitive prefix — so ``repro profile dotprod`` finds
    ``DotProduct``.
    """
    from repro.errors import KernelError
    from repro.kernels import ALL_KERNELS

    if text in ALL_KERNELS:
        return text
    folded = text.casefold()
    matches = [name for name in ALL_KERNELS if name.casefold() == folded]
    if not matches:
        matches = [name for name in ALL_KERNELS if name.casefold().startswith(folded)]
    if len(matches) == 1:
        return matches[0]
    if matches:
        raise KernelError(f"kernel {text!r} is ambiguous: {sorted(matches)}")
    raise KernelError(
        f"unknown kernel {text!r}; choose from {sorted(ALL_KERNELS)}"
    )


# ---- kernel profile reports ---------------------------------------------------


def variant_report(kernel, variant: str) -> dict:
    """Profile one kernel variant (``"mmx"`` or ``"spu"``) end to end.

    Runs the variant once with an instruction profiler, the cycle-attribution
    timeline and (for the SPU variant) the controller tracer all reading the
    same recorder (:mod:`repro.obs.recorder`), so the run still enters
    translated blocks.
    """
    from repro.analysis.profiler import profile
    from repro.cpu.executor import uop_cache_stats
    from repro.obs.attribution import CycleAttribution
    from repro.obs.spu import ControllerTrace

    machine = kernel.machine(variant)
    timeline = CycleAttribution().attach(machine)
    controller_trace = ControllerTrace().attach(machine) if variant == "spu" else None
    uops_before = uop_cache_stats(machine.program)
    prof = profile(machine)
    uops_after = uop_cache_stats(machine.program)
    stats = prof.stats

    report = {
        "variant": variant,
        "stats": stats.as_dict(),
        "instruction_mix": prof.as_dict(),
        "cycle_attribution": {
            **stats.attribution(),
            "total_cycles": stats.cycles,
            "attributed_cycles": stats.attributed_cycles,
            "timeline": {
                "totals": timeline.totals(),
                "segments": len(timeline.segments),
                "truncated": timeline.truncated,
            },
        },
    }
    report["uop_cache"] = _uop_cache_delta(uops_before, uops_after, stats.instructions)
    if controller_trace is not None:
        report["controller"] = controller_trace.as_dict()
    timeline.detach()
    if controller_trace is not None:
        controller_trace.detach()
    return report


def kernel_profile_report(kernel, variants: tuple[str, ...] = ("mmx", "spu")) -> dict:
    """The full ``kernel-profile`` document body for one kernel."""
    body: dict = {
        "kernel": kernel.name,
        "description": kernel.description,
        "config": kernel.config.name,
        "variants": {variant: variant_report(kernel, variant) for variant in variants},
    }
    if {"mmx", "spu"} <= set(variants):
        mmx = body["variants"]["mmx"]["stats"]
        spu = body["variants"]["spu"]["stats"]
        body["comparison"] = {
            "speedup": mmx["cycles"] / spu["cycles"] if spu["cycles"] else 0.0,
            "cycles_saved": mmx["cycles"] - spu["cycles"],
            "instructions_saved": mmx["instructions"] - spu["instructions"],
            "removed_permutes": kernel.removed_permutes,
        }
    return envelope("kernel-profile", body)


# ---- hot-trace profile (repro top) --------------------------------------------

#: Traces exported per variant; the long tail aggregates under ``omitted``.
TRACE_EXPORT_LIMIT = 32


def _uop_cache_delta(before: dict, after: dict, instructions: int) -> dict:
    """Decoded-uop-cache behaviour of one run, from stat snapshots.

    ``misses`` counts cold decodes plus identity-revalidation rebuilds during
    the run; every other issue replayed a cached micro-op.
    """
    decodes = after["decodes"] - before["decodes"]
    rebuilds = after["rebuilds"] - before["rebuilds"]
    misses = decodes + rebuilds
    hits = max(0, instructions - misses)
    return {
        "hits": hits,
        "misses": misses,
        "rebuilds": rebuilds,
        "hit_rate": round(hits / instructions, 4) if instructions else 0.0,
        "cached_entries": after["cached_entries"],
    }


def trace_variant_profile(kernel, variant: str) -> dict:
    """Hot-trace profile of one kernel variant: the ``repro top`` body.

    Runs the variant once under a :class:`~repro.obs.traceprof.TraceProfiler`,
    then judges every trace with :func:`repro.analysis.fusion.fusion_verdict`
    against the static loop regions, the superop legality engine's
    certification of every loop (``fusible: true`` requires a replay-checked
    :class:`~repro.analysis.absint.FusionCertificate`) and — for the SPU
    variant — the PR 3 schedule-agreement analyzer.  Everything here derives
    from the simulation alone (no wall clock), so the document is byte-stable
    across reruns.
    """
    from repro.analysis.absint import certify_program
    from repro.analysis.fusion import find_loop_regions, fusion_verdict, schedule_blockers
    from repro.cpu.executor import uop_cache_stats
    from repro.obs.traceprof import TraceProfiler

    machine = kernel.machine(variant)
    profiler = TraceProfiler().attach(machine)
    uops_before = uop_cache_stats(machine.program)
    stats = machine.run()
    uops_after = uop_cache_stats(machine.program)
    profiler.detach()

    regions = find_loop_regions(machine.program)
    blockers = schedule_blockers(kernel) if variant == "spu" else None
    certification = certify_program(
        machine.program, subject=f"{kernel.name}/{variant}"
    )
    certified = certification.certified_map()
    labels = {start: label for label, start in machine.program.labels.items()}
    stable = profiler.stable_heads()

    records = []
    fusible_cycles = 0
    fusible_traces = 0
    uncertified_traces = 0
    for trace in profiler.sorted_traces():
        verdict = fusion_verdict(trace, regions, stable, blockers, certified)
        if verdict.fusible:
            fusible_cycles += trace.cycles
            fusible_traces += 1
        elif verdict.state == "uncertified":
            uncertified_traces += 1
        record = trace.as_dict()
        record["label"] = labels.get(trace.head)
        record["stable"] = trace.head in stable
        record["fusion"] = verdict.as_dict()
        records.append(record)

    exported = records[:TRACE_EXPORT_LIMIT]
    omitted = records[TRACE_EXPORT_LIMIT:]
    total_cycles = stats.cycles
    body: dict = {
        "variant": variant,
        "cycles": total_cycles,
        "instructions": stats.instructions,
        "attributed_cycles": profiler.attributed_cycles(),
        "uop_cache": _uop_cache_delta(uops_before, uops_after, stats.instructions),
        "loop_regions": [
            {"label": region.label, "start": region.start, "end": region.end}
            for region in regions
        ],
        "stable_heads": sorted(stable),
        "summary": {
            "traces": len(records),
            "fusible_traces": fusible_traces,
            "fusible_cycles": fusible_cycles,
            "fusible_share": (
                round(fusible_cycles / total_cycles, 4) if total_cycles else 0.0
            ),
            "certified_loops": sum(1 for rules in certified.values() if not rules),
            "uncertified_traces": uncertified_traces,
            "dominant_head": records[0]["head"] if records else None,
            "dominant_label": records[0]["label"] if records else None,
        },
        "certification": {
            label: certified[label] for label in sorted(certified)
        },
        "certificates": [
            cert.as_dict() for cert in certification.certificates()
        ],
        "traces": exported,
    }
    if blockers is not None:
        body["schedule_blockers"] = blockers
    if omitted:
        body["omitted"] = {
            "traces": len(omitted),
            "cycles": sum(record["cycles"] for record in omitted),
        }
    return body


def trace_profile_report(kernel, variants: tuple[str, ...] = ("mmx", "spu")) -> dict:
    """The full ``trace-profile`` document for one kernel (``repro top``)."""
    body = {
        "kernel": kernel.name,
        "description": kernel.description,
        "config": kernel.config.name,
        "variants": {
            variant: trace_variant_profile(kernel, variant) for variant in variants
        },
    }
    return envelope("trace-profile", body, schema=SCHEMA_VERSION_2)


# ---- trace export -------------------------------------------------------------


def trace_header(kernel, variant: str) -> dict:
    """Leading ``repro trace --jsonl`` record: stream provenance up front."""
    return {
        "schema": SCHEMA_VERSION_2,
        "kind": "trace-header",
        "kernel": kernel.name,
        "variant": variant,
        "config": kernel.config.name,
        "seed": getattr(kernel, "seed", None),
    }


def trace_records(trace) -> Iterator[dict]:
    """Per-issue JSONL records for a :class:`repro.cpu.trace.Trace`."""
    for entry in trace.entries:
        yield {
            "seq": entry.seq,
            "cycle": entry.cycle,
            "pc": entry.pc,
            "pipe": entry.pipe,
            "text": entry.text,
            "is_mmx": entry.is_mmx,
            "routed": entry.routed,
        }
