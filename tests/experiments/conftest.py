"""Session-wide, full-size experiment suite (FFT1024 at its real length).

The report tests and the shape tests share it, so each kernel comparison the
suite caches runs once per session; ``experiment(name)`` runs one entry of
:data:`repro.experiments.EXPERIMENTS` on it, once, and ``report`` is the
whole REPORT.md rendered from it, once.
"""

import pytest

from repro.experiments import EXPERIMENTS, ExperimentSuite, generate_report


@pytest.fixture(scope="session")
def full_suite():
    return ExperimentSuite(fast=False)


@pytest.fixture(scope="session")
def experiment(full_suite):
    results = {}

    def run(name):
        if name not in results:
            results[name] = EXPERIMENTS[name](full_suite)
        return results[name]

    return run


@pytest.fixture(scope="session")
def report(full_suite):
    return generate_report(suite=full_suite)
