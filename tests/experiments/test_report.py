"""REPORT.md is generated, not edited: a fresh run equals the committed copy."""

from pathlib import Path

from repro.experiments import EXPERIMENTS, SECTIONS

REPORT = Path(__file__).resolve().parents[2] / "REPORT.md"


def test_report_matches_committed_copy(report):
    assert report == REPORT.read_text()


def test_every_listed_experiment_is_rendered(experiment):
    report = REPORT.read_text()
    for name in EXPERIMENTS:
        assert experiment(name).text in report, name


def test_sections_name_their_experiments(experiment):
    assert set(EXPERIMENTS) >= {"table1", "table2", "table3", "fig9"}
    assert len(EXPERIMENTS) == sum(1 for section in SECTIONS if section.run)
    for name in EXPERIMENTS:
        assert experiment(name).name == name
