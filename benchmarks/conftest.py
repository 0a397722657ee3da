"""Shared helper for the host-time benchmarks.

The paper's tables and the ablations are generated by ``repro report``
(REPORT.md); the benches here time the simulator itself: simulated
cycles/s (``bench_simspeed``), the cost of unobserved telemetry
(``bench_obs_overhead``) and the ``repro serve`` job round trip
(``bench_serve``).  :func:`emit` persists each result twice: the rendered
text under ``benchmarks/results/<name>.txt`` (for humans and git diffs) and
a schema-versioned, machine-readable document under
``benchmarks/results/BENCH_<name>.json`` (``kind: "benchmark"``, see
``docs/observability.md``).  Pass ``headers``/``rows`` so downstream
tooling gets structured values rather than re-parsing tables.
"""

from __future__ import annotations

import pathlib

from repro.obs.export import envelope, write_json

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(
    name: str,
    text: str,
    headers: list | None = None,
    rows: list | None = None,
    data: dict | None = None,
) -> None:
    """Print a benchmark's table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    body: dict = {"name": name, "text": text}
    if headers is not None:
        body["headers"] = list(headers)
    if rows is not None:
        body["rows"] = [list(row) for row in rows]
    if data:
        body.update(data)
    write_json(RESULTS_DIR / f"BENCH_{name}.json", envelope("benchmark", body))
    print("\n" + text)
