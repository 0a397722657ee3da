"""Experiment harness: paper data, cached suite, table/figure runners."""

from repro.experiments import paper_data
from repro.experiments.suite import ExperimentSuite
from repro.experiments.tables import Experiment, fig9, table1, table2, table3
from repro.experiments.report import EXPERIMENTS, SECTIONS, generate_report, write_report

__all__ = [
    "paper_data",
    "ExperimentSuite",
    "Experiment",
    "fig9",
    "table1",
    "table2",
    "table3",
    "EXPERIMENTS",
    "SECTIONS",
    "generate_report",
    "write_report",
]
