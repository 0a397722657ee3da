"""The differential self-check harness behind ``repro check``.

Two layers:

- the *clean check* replays every registered kernel's MMX and MMX+SPU
  variants against the NumPy fixed-point reference (exact equality, same
  bar as :meth:`repro.kernels.Kernel.verify`), and
- the *fault campaign* re-runs the SPU variant once per injection with a
  :class:`~repro.faults.injector.FaultInjector` armed, then classifies the
  outcome as ``masked`` (output still exact), ``detected`` (an exception,
  a counted fault or a fail-stop flagged the corruption) or ``silent``
  (wrong output with no detection — the dangerous quadrant).

Determinism: kernels run in sorted registry order, injection *i* targets
kernel ``kernels[i % len(kernels)]`` with spec stream ``Random(f"{seed}:{i}")``,
and reports carry no wall-clock data, so the same campaign is bit-identical
across runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError, RunnerInterrupted
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultCampaign, generate_spec
from repro.obs.spans import maybe_span
from repro.resilience import ResilienceMode
from repro.simd import full_validation

#: Injection outcomes, from benign to dangerous.
OUTCOMES = ("masked", "detected", "silent")


@dataclass
class CheckResult:
    """Everything ``repro check`` measured, pre-report."""

    #: Kernel names in run order.
    kernels: tuple[str, ...]
    #: Per-kernel clean differential results (dicts keyed by variant).
    clean: list[dict] = field(default_factory=list)
    #: Per-injection records, in injection order.
    injections: list[dict] = field(default_factory=list)
    #: The campaign that was run, or None for a clean-only check.
    campaign: FaultCampaign | None = None
    #: Opt-in SWAR-vs-reference sample diff (``--swar-check``), or None.
    #: When None the report carries no trace of it, keeping default
    #: exports byte-identical to pre-SWAR baselines.
    swar_check: dict | None = None

    @property
    def clean_ok(self) -> bool:
        """Every variant of every kernel matched the golden reference."""
        return all(
            entry["variants"][variant]["match"]
            for entry in self.clean
            for variant in entry["variants"]
        )

    def outcome_counts(self) -> dict[str, int]:
        counts = {outcome: 0 for outcome in OUTCOMES}
        for record in self.injections:
            # "skipped" (circuit-breaker degraded slice, parallel runs only)
            # and any future outcome count too, without disturbing the
            # canonical masked/detected/silent key order of healthy runs.
            counts[record["outcome"]] = counts.get(record["outcome"], 0) + 1
        return counts

    def injection_durations(self) -> dict[int, float]:
        """Per-injection wall-clock seconds, by injection index.

        Surfaced for the campaign runner's timeout calibration; deliberately
        absent from :func:`repro.faults.check_report`, which must stay a
        pure function of (kernels, seed, faults, mode).
        """
        return {
            record["index"]: record["duration_s"]
            for record in self.injections
            if record.get("duration_s") is not None
        }


def classify_injection(stats, error, output_matches, event_counts) -> str:
    """Sort one injection into the masked/detected/silent taxonomy.

    An injection is *detected* when anything flagged it: an exception
    escaped, a fault was counted (degrade-mode absorption still detects),
    or the run fail-stopped short of ``halt``.  Otherwise the
    output decides: exact match → *masked*, mismatch → *silent*.
    """
    if error is not None:
        return "detected"
    if event_counts.get("fault", 0) > 0:
        return "detected"
    if stats is None or not stats.finished:
        return "detected"
    return "masked" if output_matches else "silent"


def _event_counts(machine, stats, error) -> dict[str, int]:
    """The run's fault, degrade and recovery counts, from component stats.

    A fault is an absorbed or fail-stopped issue (``RunStats.faults``), a
    serialized crossbar operand, a controller park or raise, or a
    watchdog/runaway abort (the only raise that carries partial stats).
    Each absorbed fault is also one degradation; a GO that re-arms a parked
    context is a recovery.
    """
    controller = machine.spu.controller.stats
    serialized = machine.spu.stats.serialized_operands
    faults = degraded = 0
    if stats is not None:
        faults, degraded = stats.faults, stats.degraded_issues
    aborted = int(error is not None and stats is not None)
    return {
        "fault": (faults + serialized + controller.fault_parks
                  + controller.fault_raises + aborted),
        "degrade": degraded + serialized + controller.fault_parks,
        "recovery": controller.park_recoveries,
    }


def _clean_check(kernel, reference, tracer=None, parent=None) -> dict:
    """Run both variants clean; returns the per-kernel clean record.

    *tracer*/*parent* add ``run:<variant>`` and ``phase:compare`` spans
    (serial ``--spans`` path; the record itself carries no wall-clock).
    """
    from repro.kernels import mismatching_elements

    variants: dict[str, dict] = {}
    for variant in ("mmx", "spu"):
        machine = kernel.machine(variant)
        with maybe_span(tracer, f"run:{variant}", parent=parent,
                        kernel=kernel.name):
            stats = machine.run()
        with maybe_span(tracer, "phase:compare", parent=parent,
                        kernel=kernel.name, variant=variant):
            mismatches = mismatching_elements(kernel.extract(machine),
                                              reference)
        variants[variant] = {
            "match": mismatches == 0,
            "mismatching_elements": mismatches,
            "cycles": stats.cycles,
            "instructions": stats.instructions,
        }
    return {"kernel": kernel.name, "config": kernel.config.name,
            "variants": variants}


def run_one_injection(
    campaign: FaultCampaign,
    index: int,
    kernel,
    reference,
    spu_clean: dict,
) -> dict:
    """Execute injection *index* of *campaign* against *kernel*.

    The record is a deterministic function of (campaign, index, kernel) —
    plus a ``duration_s`` wall-clock field, which exists for the parallel
    runner's timeout calibration and is stripped from the byte-stable
    campaign report.  This is the unit of work the campaign runner ships to
    worker processes; the serial loop calls it too, so both paths produce
    identical records by construction.

    *spu_clean* is the kernel's clean SPU-variant record: ``instructions``
    scales the trigger window, ``cycles`` the per-run watchdog.
    """
    started = time.perf_counter()
    _, controller_programs = kernel.spu_programs()
    spec = generate_spec(
        campaign.rng(index),
        campaign.kinds,
        spu_clean["instructions"],
        controller_programs,
        kernel.config,
    )

    machine = kernel.machine("spu", resilience=campaign.resilience)
    injector = FaultInjector(machine, spec)
    watchdog = (
        spu_clean["cycles"] * campaign.watchdog_factor
        + campaign.watchdog_slack
    )
    stats = None
    error: BaseException | None = None
    # Faulty runs execute under full per-op word validation (the hot path
    # skips it, see repro.simd.swar): a corrupted word can then never
    # propagate silently through the data-path model.  All injected words
    # are valid 64-bit values, so this cannot change any outcome — records
    # stay byte-identical to the committed baselines.
    try:
        with full_validation():
            stats = machine.run(max_cycles=watchdog)
    except RunnerInterrupted:
        # Campaign-level stop (signal/cancel), not a simulated fault —
        # recording it would make the outcome depend on signal timing.
        raise
    except ReproError as exc:
        error = exc
        stats = getattr(exc, "stats", None)
    finally:
        injector.detach()

    output_matches = None
    mismatches = None
    if error is None and stats is not None and stats.finished:
        from repro.kernels import mismatching_elements

        mismatches = mismatching_elements(kernel.extract(machine), reference)
        output_matches = mismatches == 0
    event_counts = _event_counts(machine, stats, error)
    outcome = classify_injection(stats, error, output_matches, event_counts)

    # Static cross-check (lazy import: repro.analysis imports the kernel
    # registry, which must not load when the faults package does): would
    # `repro lint` have flagged this corruption, or does a documented
    # known-silent suppression cover it?
    from repro.analysis.verdict import injection_verdict

    verdict = injection_verdict(kernel, spec)

    controller = machine.spu.controller
    return {
        "index": index,
        "kernel": kernel.name,
        "spec": spec.as_dict(),
        "fired": injector.fired,
        "applied": injector.applied,
        "inject_error": (
            f"{type(injector.apply_error).__name__}: {injector.apply_error}"
            if injector.apply_error is not None else None
        ),
        "outcome": outcome,
        "analysis": verdict,
        "output_matches": output_matches,
        "mismatching_elements": mismatches,
        "events": event_counts,
        "finished": bool(stats.finished) if stats is not None else False,
        "cycles": stats.cycles if stats is not None else None,
        "machine_faults": stats.faults if stats is not None else None,
        "degraded_issues": (
            stats.degraded_issues if stats is not None else None
        ),
        "fault_parks": controller.stats.fault_parks,
        "serialized_operands": machine.spu.stats.serialized_operands,
        "error": f"{type(error).__name__}: {error}" if error else None,
        "duration_s": time.perf_counter() - started,
    }


def run_campaign(
    campaign: FaultCampaign,
    kernels: dict,
    references: dict,
    clean_spu: dict,
    tracer=None,
    slices: dict | None = None,
) -> list[dict]:
    """Execute every injection of *campaign*; returns per-injection records.

    *kernels* maps name → prepared :class:`~repro.kernels.Kernel`,
    *references* maps name → golden output, *clean_spu* maps name → the
    clean SPU-variant record (its ``instructions`` scales the trigger
    window, its ``cycles`` the per-run watchdog).  *slices* maps name →
    open slice span; each injection then gets a ``task:inject:<i>`` span
    under its kernel's slice.
    """
    names = sorted(kernels)
    slices = slices or {}
    records: list[dict] = []
    for index in range(campaign.faults):
        name = names[index % len(names)]
        with maybe_span(tracer, f"task:inject:{index}",
                        parent=slices.get(name), kernel=name, index=index):
            records.append(run_one_injection(
                campaign, index, kernels[name], references[name],
                clean_spu[name]
            ))
    return records


def run_check(
    kernels: tuple[str, ...] = (),
    faults: int = 0,
    seed: int = 0,
    resilience: ResilienceMode | str = ResilienceMode.DEGRADE,
    fast: bool = False,
    kinds: tuple[str, ...] | None = None,
    watchdog_factor: int | None = None,
    watchdog_slack: int | None = None,
    swar_check: bool = False,
    tracer=None,
    root=None,
) -> CheckResult:
    """The full ``repro check`` measurement: clean differential + campaign.

    *swar_check* additionally sample-diffs the SWAR data path against the
    NumPy reference backend (:func:`repro.simd.selftest.sample_diff`, seeded
    from *seed*) and surfaces the mismatch count in the report summary.

    *tracer* (a :class:`repro.obs.spans.SpanTracer`) records the serial
    campaign as a ``campaign → slice → task → run → phase`` span tree.
    Slice spans stay open across both phases — a kernel's injections nest
    under the same slice as its clean check.  *root*, an open span of
    *tracer*, takes the place of the ``campaign:check`` root (its owner
    closes it).  The tracer only observes; the returned
    :class:`CheckResult` is identical with or without it.
    """
    from repro.kernels import ALL_KERNELS, make_sized_kernel

    names = tuple(kernels) if kernels else tuple(sorted(ALL_KERNELS))
    instances = {name: make_sized_kernel(name, fast) for name in names}
    references = {
        name: np.asarray(instances[name].reference()) for name in names
    }

    own_root = tracer is not None and root is None
    if own_root:
        root = tracer.begin("campaign:check", kernels=len(names),
                            faults=faults, seed=seed)
    slices: dict = {}
    if tracer is not None:
        slices = {
            name: tracer.begin(f"slice:{name}", parent=root, kernel=name)
            for name in names
        }

    clean = []
    for name in names:
        with maybe_span(tracer, f"task:clean:{name}",
                        parent=slices.get(name), kernel=name) as task:
            clean.append(_clean_check(
                instances[name], references[name], tracer=tracer, parent=task,
            ))

    result = CheckResult(kernels=names, clean=clean)
    if faults > 0:
        campaign = FaultCampaign(
            seed=seed,
            faults=faults,
            kernels=names,
            resilience=resilience,
            **({"kinds": tuple(kinds)} if kinds else {}),
            **({"watchdog_factor": watchdog_factor}
               if watchdog_factor is not None else {}),
            **({"watchdog_slack": watchdog_slack}
               if watchdog_slack is not None else {}),
        )
        clean_spu = {entry["kernel"]: entry["variants"]["spu"] for entry in clean}
        result.campaign = campaign
        result.injections = run_campaign(
            campaign, instances, references, clean_spu,
            tracer=tracer, slices=slices,
        )
    if swar_check:
        from repro.simd.selftest import sample_diff

        with maybe_span(tracer, "phase:swar-check", parent=root, seed=seed):
            result.swar_check = sample_diff(seed=seed)
    # Closed only on success: an exception leaves the spans open, so an
    # aborted campaign exports them with an aborted status instead of a
    # fabricated clean one.
    if tracer is not None:
        for span in slices.values():
            tracer.end(span)
    if own_root:
        tracer.end(root)
    return result
