"""Experiment suite: run each benchmark once, derive every table from it.

Tables 2, 3, Figure 9, the start-up and energy estimates and the ablations
at the paper's design point all consume the same pair of runs per kernel
(MMX-only and MMX+SPU), so the suite runs, checks and caches them.
``fast=True`` shrinks the slowest workload (FFT1024 → FFT256) for quick
runs; ``repro report`` and the tier-1 report test run the paper-faithful
sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernels import TABLE2_KERNELS, Kernel, KernelComparison, make_sized_kernel


@dataclass
class ExperimentSuite:
    """Cached kernel comparisons for the evaluation experiments."""

    fast: bool = False
    kernel_names: tuple[str, ...] = tuple(TABLE2_KERNELS)
    _kernels: dict[str, Kernel] = field(default_factory=dict)
    _comparisons: dict[str, KernelComparison] = field(default_factory=dict)

    def kernel(self, name: str) -> Kernel:
        if name not in self._kernels:
            self._kernels[name] = make_sized_kernel(name, self.fast)
        return self._kernels[name]

    def comparison(self, name: str) -> KernelComparison:
        """*name*'s checked default-pipeline comparison, run once.

        Raises :class:`~repro.errors.KernelError` when an output differs
        from the reference, so no table number comes from a wrong run.
        """
        if name not in self._comparisons:
            self._comparisons[name] = self.kernel(name).verify()
        return self._comparisons[name]

    def comparisons(self) -> dict[str, KernelComparison]:
        return {name: self.comparison(name) for name in self.kernel_names}

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
