"""Parallel fault campaigns on the :mod:`repro.runner` worker pool.

The serial harness (:func:`repro.faults.run_check`) is a loop; this module
re-expresses it as independent tasks — one ``clean_check`` per kernel, one
``campaign_injection`` per injection — and drives them with a
:class:`~repro.runner.Runner`.  Determinism survives the decomposition
because every task is a pure function of campaign parameters: injection *i*
rebuilds its kernel and draws its spec from ``Random(f"{seed}:{i}")`` inside
the worker, so the record is identical no matter which worker runs it, in
what order, or after how many interruptions.  The merge is keyed by task id
and emitted in serial order, which is what makes a resumed ``--jobs 4`` run
byte-identical to an uninterrupted ``--jobs 1`` run.

Timeout calibration: injection tasks get a wall-clock budget derived from
the kernel's measured clean-run duration (``clean_duration * factor +
slack``), the orchestration-level analogue of the in-simulation cycle
watchdog ``clean_cycles * 4 + 10000``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import RunnerError
from repro.faults.campaign import CheckResult, _clean_check, run_one_injection
from repro.faults.spec import FAULT_KINDS, FaultCampaign
from repro.resilience import ResilienceMode
from repro.runner import Journal, Runner, RunnerConfig, TaskSpec
from repro.runner.policy import calibrated_timeout_s

#: Wall-clock budget for one injection: clean seconds * factor + slack
#: (:func:`repro.runner.policy.calibrated_timeout_s`, shared with the serve
#: layer's per-job supervision budgets).
TIMEOUT_FACTOR = 25.0
TIMEOUT_SLACK_S = 10.0

#: Floor for clean-check tasks (no calibration data exists yet).
CLEAN_TIMEOUT_S = 300.0


# ---- task executors (run inside workers) -------------------------------------


def run_clean_task(payload: dict) -> dict:
    """Executor for ``clean_check`` tasks: one kernel, both variants.

    Besides the byte-stable clean *record*, the result carries the static
    ``removed_permutes`` count for the ``repro run`` sweep table.
    """
    from repro.kernels import make_sized_kernel

    started = time.perf_counter()
    kernel = make_sized_kernel(payload["kernel"], payload["fast"])
    reference = np.asarray(kernel.reference())
    record = _clean_check(kernel, reference)
    return {"record": record, "removed_permutes": kernel.removed_permutes,
            "duration_s": time.perf_counter() - started}


def run_injection_task(payload: dict) -> dict:
    """Executor for ``campaign_injection`` tasks: one injection record."""
    from repro.kernels import make_sized_kernel

    campaign = FaultCampaign(
        seed=payload["seed"],
        faults=payload["faults"],
        kernels=tuple(payload["kernels"]),
        resilience=payload["resilience"],
        kinds=tuple(payload["kinds"]),
        watchdog_factor=payload["watchdog_factor"],
        watchdog_slack=payload["watchdog_slack"],
    )
    kernel = make_sized_kernel(payload["kernel"], payload["fast"])
    reference = np.asarray(kernel.reference())
    spu_clean = {
        "instructions": payload["clean_instructions"],
        "cycles": payload["clean_cycles"],
    }
    return run_one_injection(
        campaign, payload["index"], kernel, reference, spu_clean
    )


# ---- orchestration (runs in the parent) --------------------------------------


def clean_tasks(names: tuple[str, ...], fast: bool) -> list[TaskSpec]:
    """One ``clean_check`` task per kernel, ids ``clean:<name>``.

    Phase 1 of :func:`run_check_parallel` and the whole ``repro run``
    sweep.
    """
    from repro.kernels import make_sized_kernel

    return [
        TaskSpec(
            id=f"clean:{name}",
            kind="clean_check",
            payload={"kernel": name, "fast": fast},
            slice=f"{name}/{make_sized_kernel(name, fast).config.name}",
            timeout_s=CLEAN_TIMEOUT_S,
        )
        for name in names
    ]


def _skipped_injection_record(index: int, kernel: str, failure: str) -> dict:
    """Terminal placeholder for an injection the runner could not execute.

    Shaped like a real record so reports and render paths need no special
    cases beyond "spec/analysis may be absent"; the outcome ``skipped``
    keeps the no-lost-tasks invariant — every injection index appears in the
    merged report exactly once.
    """
    return {
        "index": index,
        "kernel": kernel,
        "spec": None,
        "fired": False,
        "applied": False,
        "inject_error": None,
        "outcome": "skipped",
        "analysis": None,
        "output_matches": None,
        "mismatching_elements": None,
        "events": {},
        "finished": False,
        "cycles": None,
        "machine_faults": None,
        "degraded_issues": None,
        "fault_parks": None,
        "serialized_operands": None,
        "error": failure,
    }


def check_fingerprint(
    names: tuple[str, ...], faults: int, seed: int,
    resilience: ResilienceMode, fast: bool, kinds: tuple[str, ...],
    watchdog_factor: int, watchdog_slack: int,
) -> dict:
    """The resume-journal identity of one ``repro check`` invocation."""
    return {
        "verb": "check",
        "kernels": list(names),
        "faults": faults,
        "seed": seed,
        "resilience": resilience.value,
        "fast": fast,
        "kinds": list(kinds),
        "watchdog_factor": watchdog_factor,
        "watchdog_slack": watchdog_slack,
    }


def run_check_parallel(
    kernels: tuple[str, ...] = (),
    faults: int = 0,
    seed: int = 0,
    resilience: ResilienceMode | str = ResilienceMode.DEGRADE,
    fast: bool = False,
    kinds: tuple[str, ...] | None = None,
    watchdog_factor: int | None = None,
    watchdog_slack: int | None = None,
    swar_check: bool = False,
    jobs: int = 2,
    journal_path=None,
    runner_config: RunnerConfig | None = None,
    tracer=None,
    root=None,
    progress=None,
) -> tuple[CheckResult, Runner]:
    """``repro check`` on the worker pool; merges to serial-identical results.

    Returns ``(result, runner)`` — the merged :class:`CheckResult` plus the
    runner for orchestration telemetry (``repro.runner/1`` report, breaker
    state, fallback reason).  Raises
    :class:`~repro.errors.RunnerInterrupted` when the runner's
    ``interrupt_after`` budget stops the run early (journal stays
    resumable), and :class:`~repro.errors.RunnerError` when a *clean* task
    terminally fails — without clean references there is no campaign to
    calibrate or classify against.

    *tracer* opens a ``campaign:check`` root span and hands it to the
    runner as the parent of its per-slice and per-task spans; *progress*
    (a file-like) gets the runner's live per-slice progress lines.  *root*,
    an open span of *tracer*, takes the place of that root span (its owner
    closes it).  The root span closes only on success — an interrupted
    campaign exports it (and any in-flight task spans) with an aborted
    status.  Neither observer touches task payloads, so the merged report
    stays byte-identical to a serial run.
    """
    from repro.kernels import ALL_KERNELS

    names = tuple(kernels) if kernels else tuple(sorted(ALL_KERNELS))
    mode = ResilienceMode.parse(resilience)
    use_kinds = tuple(kinds) if kinds else FAULT_KINDS
    factor = watchdog_factor if watchdog_factor is not None else 4
    slack = watchdog_slack if watchdog_slack is not None else 10_000

    fingerprint = check_fingerprint(
        names, faults, seed, mode, fast, use_kinds, factor, slack
    )
    config = runner_config or RunnerConfig(jobs=jobs)
    journal = (
        Journal(journal_path, fingerprint, fsync_every=config.fsync_every)
        if journal_path is not None else None
    )
    own_root = tracer is not None and root is None
    if own_root:
        root = tracer.begin("campaign:check", kernels=len(names),
                            faults=faults, seed=seed, jobs=config.jobs)
    runner = Runner(config, journal=journal,
                    tracer=tracer, span_parent=root, progress=progress)

    try:
        # Phase 1: clean differential checks (also the calibration data).
        tasks = clean_tasks(names, fast)
        slices = {task.payload["kernel"]: task.slice for task in tasks}
        clean_results = runner.run(tasks)
        broken = [r for r in clean_results.values() if not r.ok]
        if broken:
            details = ", ".join(
                f"{r.task} ({r.status}: {r.failure})" for r in sorted(
                    broken, key=lambda r: r.task)
            )
            raise RunnerError(
                f"clean differential check unrunnable for: {details}"
            )
        clean = [clean_results[f"clean:{name}"].result["record"]
                 for name in names]

        result = CheckResult(kernels=names, clean=clean)
        if faults > 0:
            campaign = FaultCampaign(
                seed=seed, faults=faults, kernels=names, resilience=mode,
                kinds=use_kinds, watchdog_factor=factor, watchdog_slack=slack,
            )
            result.campaign = campaign
            clean_spu = {entry["kernel"]: entry["variants"]["spu"]
                         for entry in clean}
            durations = {name: clean_results[f"clean:{name}"].result["duration_s"]
                         for name in names}
            ordered = sorted(names)
            injection_tasks = []
            for index in range(faults):
                name = ordered[index % len(ordered)]
                injection_tasks.append(TaskSpec(
                    id=f"inject:{index}",
                    kind="campaign_injection",
                    payload={
                        "kernel": name,
                        "fast": fast,
                        "index": index,
                        "seed": seed,
                        "faults": faults,
                        "kernels": list(names),
                        "resilience": mode.value,
                        "kinds": list(use_kinds),
                        "watchdog_factor": factor,
                        "watchdog_slack": slack,
                        "clean_instructions":
                            clean_spu[name]["instructions"],
                        "clean_cycles": clean_spu[name]["cycles"],
                    },
                    slice=slices[name],
                    timeout_s=calibrated_timeout_s(
                        durations[name], TIMEOUT_FACTOR, TIMEOUT_SLACK_S
                    ),
                ))
            injection_results = runner.run(injection_tasks)

            # Deterministic merge: serial injection order, keyed by task id.
            for index in range(faults):
                task_result = injection_results[f"inject:{index}"]
                if task_result.ok:
                    result.injections.append(task_result.result)
                else:
                    result.injections.append(_skipped_injection_record(
                        index, ordered[index % len(ordered)],
                        task_result.failure or task_result.status,
                    ))
        if swar_check:
            # Deterministic and kernel-independent, so it runs in the
            # parent: the merged report matches a serial --swar-check run.
            from repro.simd.selftest import sample_diff

            result.swar_check = sample_diff(seed=seed)
        if own_root:
            tracer.end(root)
        return result, runner
    finally:
        if journal is not None:
            journal.close()
