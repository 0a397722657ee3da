"""Tracked sim-speed benchmark: how fast the simulator simulates.

Reports simulated cycles/sec and instructions/sec (median of
:data:`ROUNDS` rounds, methodology in :mod:`repro.perf`) for the hot
kernels, under two comparisons:

* **SWAR vs reference** — the integer data path against the NumPy oracle
  backend, both on the current decoded micro-op engine.  Reproducible on
  any machine from the tree alone, so this ratio is the **regression
  gate**: each kernel must stay within 2x of its committed speedup (and
  above the absolute :data:`MIN_SPEEDUP` floor).
* **vs pre-PR** — against :data:`PRE_PR_CYCLES_PER_S`, the throughput of
  the pre-rewrite engine (NumPy lane kernels, no micro-op cache, commit
  ``5284192``), recorded once with this same median-of-5 methodology on
  the same machine as the committed results.  This captures the full
  rewrite (micro-op cache *and* SWAR); the in-tree reference backend
  understates it because the oracle also rides the new engine.  The
  ratio is only meaningful where the live numbers come from comparable
  hardware, so it is reported, not asserted.
* **translated vs per-uop** — the SWAR runs above enter translated blocks
  (``repro.cpu.blocks``); the same kernels are timed once more, same
  method, with translation forced off, and the ratio is reported.
* **SPU variant** — the MMX+SPU machines (``kernel.machine("spu")``) of
  the same kernels, same method, translated (controller stepped inline,
  operands gathered by word plans) and per-uop, with their ratio.
  Reported, not asserted.
"""

import json
import statistics
import time

from conftest import RESULTS_DIR, emit

from repro.analysis import format_table
from repro.kernels import make_kernel
from repro.perf import (
    DEFAULT_ROUNDS,
    geomean_speedup,
    measure_simspeed,
    simspeed_report,
    simspeed_table,
)

ROUNDS = DEFAULT_ROUNDS

#: Pre-rewrite engine throughput (simulated cycles/sec, median of 5) at the
#: benchmark sizes, measured from a worktree of commit ``5284192`` on the
#: machine that produced the committed BENCH_simspeed.json.
PRE_PR_COMMIT = "5284192"
PRE_PR_CYCLES_PER_S = {
    "DotProduct": 53_689.5,
    "FIR12": 94_581.8,
    "SAD": 55_241.1,
}

#: Absolute floor on the in-tree SWAR-vs-reference speedup: whatever the
#: committed baseline says, SWAR must still clearly beat the NumPy oracle.
MIN_SPEEDUP = 1.2


def _median_seconds(name: str, params: dict[str, int], rounds: int,
                    variant: str = "mmx", translate: bool = True) -> tuple[float, int]:
    """Median seconds per SWAR run of *variant*, and its simulated cycles.

    The methodology of ``repro.perf``: one untimed warm-up run, then
    *rounds* timed runs on fresh machines.  ``translate=False`` keeps every
    run out of translated blocks.
    """
    kernel = make_kernel(name, **params)

    def machine():
        built = kernel.machine(variant)
        built._translate = translate
        return built

    cycles = machine().run().cycles
    times = []
    for _ in range(rounds):
        built = machine()
        start = time.perf_counter()
        built.run()
        times.append(time.perf_counter() - start)
    return statistics.median(times), cycles


def _committed_speedups() -> dict[str, float]:
    """Per-kernel SWAR-vs-reference speedups from the committed results."""
    path = RESULTS_DIR / "BENCH_simspeed.json"
    if not path.exists():
        return {}
    document = json.loads(path.read_text())
    return {
        entry["kernel"]: entry["speedup"]
        for entry in document.get("data", {}).get("kernels", ())
    }


def test_simspeed(benchmark):
    committed = _committed_speedups()  # read before emit() overwrites it
    results = benchmark.pedantic(
        lambda: measure_simspeed(rounds=ROUNDS), rounds=1, iterations=1
    )

    report = simspeed_report(results, ROUNDS)
    for speed, entry in zip(results, report["kernels"]):
        recorded = PRE_PR_CYCLES_PER_S[speed.name]
        entry["pre_pr_cycles_per_s"] = recorded
        entry["speedup_vs_pre_pr"] = round(
            speed.swar_cycles_per_s / recorded, 2
        )
    for speed, entry in zip(results, report["kernels"]):
        per_uop_s, _ = _median_seconds(speed.name, speed.params, ROUNDS, translate=False)
        entry["per_uop_s"] = round(per_uop_s, 6)
        entry["per_uop_cycles_per_s"] = round(speed.cycles / per_uop_s, 1)
        entry["translated_speedup"] = round(per_uop_s / speed.swar_s, 2)
        spu_s, spu_cycles = _median_seconds(speed.name, speed.params, ROUNDS, "spu")
        spu_per_uop_s, _ = _median_seconds(speed.name, speed.params, ROUNDS, "spu",
                                           translate=False)
        entry["spu"] = {
            "cycles": spu_cycles,
            "translated_s": round(spu_s, 6),
            "translated_cycles_per_s": round(spu_cycles / spu_s, 1),
            "per_uop_s": round(spu_per_uop_s, 6),
            "per_uop_cycles_per_s": round(spu_cycles / spu_per_uop_s, 1),
            "translated_speedup": round(spu_per_uop_s / spu_s, 2),
        }
    report["pre_pr"] = {
        "commit": PRE_PR_COMMIT,
        "min_speedup_vs_pre_pr": min(
            entry["speedup_vs_pre_pr"] for entry in report["kernels"]
        ),
    }

    headers, rows = simspeed_table(results)
    headers += ["vs pre-PR", "vs per-uop"]
    for row, entry in zip(rows, report["kernels"]):
        row.append(f"{entry['speedup_vs_pre_pr']:.2f}x")
        row.append(f"{entry['translated_speedup']:.2f}x")
    table = format_table(
        headers, rows,
        title=(
            f"Simulation throughput, SWAR vs NumPy reference "
            f"(median of {ROUNDS} rounds)"
        ),
    )
    spu_headers = ["kernel", "spu sim cycles", "translated cyc/s", "per-uop cyc/s",
                   "vs per-uop"]
    spu_rows = [
        [speed.label, entry["spu"]["cycles"],
         f"{entry['spu']['translated_cycles_per_s']:,.0f}",
         f"{entry['spu']['per_uop_cycles_per_s']:,.0f}",
         f"{entry['spu']['translated_speedup']:.2f}x"]
        for speed, entry in zip(results, report["kernels"])
    ]
    spu_table = format_table(
        spu_headers, spu_rows,
        title=f"MMX+SPU variant, translated vs per-uop (SWAR, median of {ROUNDS} rounds)",
    )
    text = (
        f"{table}\n"
        f"min in-tree speedup {report['min_speedup']:.2f}x "
        f"(geomean {geomean_speedup(results):.2f}x); "
        f"min vs pre-PR engine "
        f"{report['pre_pr']['min_speedup_vs_pre_pr']:.2f}x; "
        f"min translated vs per-uop "
        f"{min(entry['translated_speedup'] for entry in report['kernels']):.2f}x\n\n"
        f"{spu_table}\n"
        f"min SPU translated vs per-uop "
        f"{min(entry['spu']['translated_speedup'] for entry in report['kernels']):.2f}x"
    )
    emit("simspeed", text, headers=headers, rows=rows, data=report)

    # The gate: each kernel keeps at least half its committed SWAR-vs-
    # reference speedup, and always beats the oracle by MIN_SPEEDUP.
    for speed in results:
        floor = max(MIN_SPEEDUP, committed.get(speed.name, 0.0) / 2)
        assert speed.speedup >= floor, (
            f"{speed.label}: SWAR-vs-reference speedup {speed.speedup:.2f}x "
            f"fell below the regression floor {floor:.2f}x "
            f"(committed {committed.get(speed.name, 'n/a')}x)"
        )
