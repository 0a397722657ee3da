"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.errors import RunnerError
from repro.kernels import DotProductKernel, make_kernel


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "FIR12" in out and "MatrixTranspose" in out

    def test_cost_default(self, capsys):
        assert main(["cost"]) == 0
        out = capsys.readouterr().out
        assert "2.36 mm2" in out and "0.91%" in out

    def test_cost_config_a(self, capsys):
        assert main(["cost", "--config", "A"]) == 0
        assert "8.14 mm2" in capsys.readouterr().out

    def test_cost_contexts(self, capsys):
        assert main(["cost", "--contexts", "2"]) == 0
        assert "20224 bits" in capsys.readouterr().out

    def test_run_kernel(self, capsys):
        assert main(["run", "DotProduct"]) == 0
        out = capsys.readouterr().out
        assert "bit-exactly" in out and "speedup" in out

    def test_run_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "Sobel"])

    def test_offload(self, capsys):
        assert main(["offload", "DotProduct"]) == 0
        out = capsys.readouterr().out
        assert "punpcklwd" in out and "SPU program" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_fig9_fast(self, capsys):
        assert main(["fig9", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out and "MatrixTranspose" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


def sweep_rows(out: str) -> dict[str, list[str]]:
    """The `repro run` sweep table's cells, by kernel."""
    rows = {}
    for line in out.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) == 7 and cells[0] != "kernel":
            rows[cells[0]] = cells[1:]
    return rows


@pytest.fixture
def corrupted_dotproduct(monkeypatch):
    extract = DotProductKernel.extract
    monkeypatch.setattr(DotProductKernel, "extract",
                        lambda self, machine: extract(self, machine) + 1)


class TestRunSweep:
    """Several kernels run as clean_check tasks on the campaign runner."""

    def test_rows_match_compare(self, capsys):
        assert main(["run", "DotProduct", "FIR12"]) == 0
        rows = sweep_rows(capsys.readouterr().out)
        assert list(rows) == ["DotProduct", "FIR12"]
        for name, row in rows.items():
            comparison = make_kernel(name).compare()
            assert row[:3] == ["ok", str(comparison.mmx.cycles),
                               str(comparison.spu.cycles)], name
            assert row[4:] == [str(comparison.removed_permutes),
                               "1 attempt(s)"], name

    def test_mismatch_row_exits_1(self, capsys, corrupted_dotproduct):
        assert main(["run", "DotProduct", "FIR12"]) == 1
        rows = sweep_rows(capsys.readouterr().out)
        assert rows["DotProduct"][0] == "MISMATCH"
        assert rows["FIR12"][0] == "ok"

    def test_single_kernel_mismatch_exits_1(self, capsys, corrupted_dotproduct):
        # `run K` alone runs in process, not as a sweep task, and fails alike.
        assert main(["run", "DotProduct"]) == 1
        assert "MISMATCH: DotProduct: MMX output diverges" in capsys.readouterr().out

    def test_resume_reads_the_journal(self, capsys, tmp_path):
        argv = ["run", "DotProduct", "FIR12", "--resume", str(tmp_path / "j")]
        assert main(argv) == 0
        first = sweep_rows(capsys.readouterr().out)
        assert main(argv) == 0
        second = sweep_rows(capsys.readouterr().out)
        for name in first:
            assert second[name][-1] == "cached", name
            assert second[name][:-1] == first[name][:-1], name

    def test_journal_of_another_verb_is_rejected(self, tmp_path):
        from repro.runner import Journal

        path = tmp_path / "j"
        Journal(path, {"verb": "suite", "kernels": ["DotProduct", "FIR12"],
                       "fast": False}).close()
        with pytest.raises(RunnerError, match="different campaign"):
            main(["run", "DotProduct", "FIR12", "--resume", str(path)])


class TestCompileCommand:
    def test_compile_file(self, capsys, tmp_path):
        source = tmp_path / "demo.asm"
        source.write_text(
            "mov r0, 4\nloop:\nmovq mm1, mm0\npunpcklwd mm1, mm0\n"
            "movq [r2], mm1\nadd r2, 8\nloop r0, loop\nhalt\n"
        )
        assert main(["compile", str(source)]) == 0
        out = capsys.readouterr().out
        assert "accelerated loops: loop" in out
        assert "controller context 0" in out
        assert "punpcklwd" not in out.split("; ---")[0].split("accelerated")[1]

    def test_compile_nothing_to_do(self, capsys, tmp_path):
        source = tmp_path / "plain.asm"
        source.write_text("mov r0, 2\ntop: paddw mm0, mm1\nloop r0, top\nhalt\n")
        assert main(["compile", str(source)]) == 1
        assert "no loops accelerated" in capsys.readouterr().out
