"""Experiment suite: run each benchmark once, derive every table from it.

Tables 2, 3, Figure 9 and the ablations at the paper's design point all
consume the same pair of runs per kernel (MMX-only and MMX+SPU), so the
suite runs and caches them.  ``fast=True`` shrinks the slowest workload
(FFT1024 → FFT256) for quick runs; ``repro report`` and the tier-1 report
test run the paper-faithful sizes.

:meth:`ExperimentSuite.prefetch` computes the cells on the resilient
campaign runner (:mod:`repro.runner`) instead of serially: one
``suite_cell`` task per kernel, each verifying both variants against the
golden reference and returning the comparison as JSON-friendly data.  A
crashed or hung worker costs a retry, not the suite; a journal makes a long
sweep resumable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.cpu import RunStats
from repro.kernels import TABLE2_KERNELS, FFTKernel, Kernel, KernelComparison, make_kernel


def comparison_record(comparison: KernelComparison) -> dict:
    """JSON-friendly form of one comparison (journal/worker payload)."""
    return {
        "name": comparison.name,
        "mmx": comparison.mmx.as_dict(),
        "spu": comparison.spu.as_dict(),
        "removed_permutes": comparison.removed_permutes,
        "mmx_dynamic_permutes": comparison.mmx_dynamic_permutes,
    }


def comparison_from_record(record: dict) -> KernelComparison:
    """Rebuild a :class:`KernelComparison` from :func:`comparison_record`."""
    return KernelComparison(
        name=record["name"],
        mmx=RunStats.from_dict(record["mmx"]),
        spu=RunStats.from_dict(record["spu"]),
        removed_permutes=record["removed_permutes"],
        mmx_dynamic_permutes=record["mmx_dynamic_permutes"],
    )


def run_suite_cell(payload: dict) -> dict:
    """Executor for ``suite_cell`` tasks: verify + compare one kernel.

    Runs each variant once, checks both outputs exactly against the NumPy
    fixed-point reference (the ``repro run`` verification bar) and returns
    the comparison record; ``verified`` is False on any mismatch.
    """
    import numpy as np

    started = time.perf_counter()
    suite = ExperimentSuite(fast=payload.get("fast", False))
    kernel = suite.kernel(payload["kernel"])
    reference = np.asarray(kernel.reference())
    mmx_stats, mmx_out = kernel.run_mmx()
    spu_stats, spu_out = kernel.run_spu()
    verified = all(
        np.asarray(out).shape == reference.shape
        and np.array_equal(np.asarray(out), reference)
        for out in (mmx_out, spu_out)
    )
    comparison = KernelComparison(
        name=kernel.name,
        mmx=mmx_stats,
        spu=spu_stats,
        removed_permutes=kernel.removed_permutes,
        mmx_dynamic_permutes=mmx_stats.permutes,
    )
    record = comparison_record(comparison)
    record["verified"] = verified
    record["duration_s"] = time.perf_counter() - started
    return record


@dataclass
class ExperimentSuite:
    """Cached kernel comparisons for the evaluation experiments."""

    fast: bool = False
    kernel_names: tuple[str, ...] = tuple(TABLE2_KERNELS)
    _kernels: dict[str, Kernel] = field(default_factory=dict)
    _comparisons: dict[str, KernelComparison] = field(default_factory=dict)

    def kernel(self, name: str) -> Kernel:
        if name not in self._kernels:
            if self.fast and name == "FFT1024":
                # keep the FFT1024 row present but at a test-friendly size
                kernel = FFTKernel(n=256)
                kernel.name = "FFT1024"
                self._kernels[name] = kernel
            else:
                self._kernels[name] = make_kernel(name)
        return self._kernels[name]

    def comparison(self, name: str) -> KernelComparison:
        if name not in self._comparisons:
            self._comparisons[name] = self.kernel(name).compare()
        return self._comparisons[name]

    def comparisons(self) -> dict[str, KernelComparison]:
        return {name: self.comparison(name) for name in self.kernel_names}

    def prefetch(self, jobs: int = 1, journal_path=None, runner_config=None,
                 tracer=None, progress=None):
        """Warm the comparison cache on the campaign runner; returns it.

        One ``suite_cell`` task per not-yet-cached kernel; with ``jobs >= 2``
        the cells run on the worker pool (timeouts, retries, breaker,
        replacement — see docs/robustness.md), with ``jobs 1`` or an
        unstartable pool they run serially in-process.  *journal_path*
        makes the sweep resumable.  Cells that terminally fail or are
        breaker-skipped stay uncached — a later :meth:`comparison` computes
        them serially — so the suite degrades instead of raising.

        *tracer* records the sweep as a ``campaign:suite`` span tree and
        *progress* gets the runner's live per-slice lines (``repro run
        --spans/--progress``); neither affects the cached comparisons.
        """
        from repro.runner import Journal, Runner, RunnerConfig, TaskSpec

        pending = [name for name in self.kernel_names
                   if name not in self._comparisons]
        config = runner_config or RunnerConfig(jobs=jobs)
        journal = None
        if journal_path is not None:
            fingerprint = {"verb": "suite", "kernels": list(self.kernel_names),
                           "fast": self.fast}
            journal = Journal(journal_path, fingerprint,
                              fsync_every=config.fsync_every)
        root = None
        if tracer is not None:
            root = tracer.begin("campaign:suite", kernels=len(pending),
                                fast=self.fast, jobs=config.jobs)
        runner = Runner(config, journal=journal,
                        tracer=tracer, span_parent=root, progress=progress)
        try:
            results = runner.run([
                TaskSpec(
                    id=f"cell:{name}",
                    kind="suite_cell",
                    payload={"kernel": name, "fast": self.fast},
                    slice=f"{name}/{self.kernel(name).config.name}",
                )
                for name in pending
            ])
        finally:
            if journal is not None:
                journal.close()
        for name in pending:
            result = results[f"cell:{name}"]
            if result.ok:
                self._comparisons[name] = comparison_from_record(result.result)
        # Success only: an interrupt leaves the root open (exports aborted).
        if root is not None:
            tracer.end(root)
        return runner, results

    def verify_all(self) -> None:
        """Bit-exact verification of every kernel in the suite."""
        for name in self.kernel_names:
            self.kernel(name).verify()

    # ---- observability ------------------------------------------------------

    def profile(self, name: str, variants: tuple[str, ...] = ("mmx", "spu")):
        """Schema-versioned profile report for one suite kernel.

        Same document as ``repro profile <name> --json`` (kind
        ``kernel-profile``): instruction mix, cycle attribution and SPU
        controller occupancy per variant.
        """
        from repro.obs.export import kernel_profile_report

        return kernel_profile_report(self.kernel(name), variants)

    def metrics(self, namespace: str = "suite"):
        """Flatten every cached comparison into a :class:`MetricsRegistry`.

        Exports ``<namespace>.<kernel>.{mmx,spu}.*`` counters plus the
        derived speedup, ready for ``envelope("metrics", ...)`` export.
        """
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry(namespace=namespace)
        for name, comparison in self.comparisons().items():
            registry.observe_stats(f"{name}.mmx", comparison.mmx)
            registry.observe_stats(f"{name}.spu", comparison.spu)
            registry.set(f"{name}.speedup", comparison.speedup, unit="x",
                         help="MMX cycles / MMX+SPU cycles")
            registry.set(f"{name}.removed_permutes", comparison.removed_permutes,
                         help="static permutes off-loaded to the SPU")
        return registry
