"""End-to-end: ``repro top``, campaign span export and uop-cache surfacing."""

import json

from repro.cli import main
from repro.obs import SCHEMA_VERSION_2


class TestTopCommand:
    def test_json_document(self, capsys):
        assert main(["top", "dotprod", "--json", "-"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == SCHEMA_VERSION_2
        assert document["kind"] == "trace-profile"
        body = document["data"]
        assert body["kernel"] == "DotProduct"
        for variant in ("mmx", "spu"):
            section = body["variants"][variant]
            # The per-trace cycles attribute the run exactly.
            assert section["attributed_cycles"] == section["cycles"]
            assert sum(t["cycles"] for t in section["traces"]) == section["cycles"]
            # The dominant trace is the kernel's labeled loop, and it is
            # fusible: stable schedule, exact loop pass, no sa-* blockers.
            top = section["traces"][0]
            assert top["label"] == "loop"
            assert top["fusion"]["fusible"] and not top["fusion"]["reasons"]
            assert top["stable"]
            assert section["summary"]["dominant_label"] == "loop"
            assert section["summary"]["fusible_traces"] >= 1
            assert 0.0 < section["summary"]["fusible_share"] <= 1.0
            uop = section["uop_cache"]
            assert uop["hits"] + uop["misses"] == section["instructions"]
            assert 0.0 < uop["hit_rate"] <= 1.0

    def test_json_is_byte_stable(self, capsys):
        assert main(["top", "SAD", "--json", "-"]) == 0
        first = capsys.readouterr().out
        assert main(["top", "SAD", "--json", "-"]) == 0
        assert capsys.readouterr().out == first

    def test_human_output(self, capsys):
        assert main(["top", "dotprod", "--variant", "spu"]) == 0
        out = capsys.readouterr().out
        assert "fusible" in out
        assert "uop cache" in out
        assert "loop" in out

    def test_unknown_kernel(self, capsys):
        assert main(["top", "sobel"]) == 2
        assert "unknown kernel" in capsys.readouterr().err


class TestCheckSpans:
    def test_serial_check_writes_span_tree(self, tmp_path, capsys):
        spans_path = tmp_path / "spans.jsonl"
        assert main(["check", "dotprod", "--faults", "2",
                     "--spans", str(spans_path)]) == 0
        header, *spans = [
            json.loads(line) for line in spans_path.read_text().splitlines()
        ]
        assert header["schema"] == SCHEMA_VERSION_2
        assert header["kind"] == "span-header"
        assert header["spans"] == len(spans)
        names = [span["name"] for span in spans]
        assert names[0] == "campaign:check"
        assert "slice:DotProduct" in names
        assert "task:clean:DotProduct" in names
        assert "task:inject:0" in names and "task:inject:1" in names
        assert "run:mmx" in names and "run:spu" in names
        assert "phase:compare" in names
        # Every parent id resolves and every span closed ok.
        by_id = {span["spanId"]: span for span in spans}
        for span in spans:
            parent = span["parentSpanId"]
            assert parent is None or parent in by_id
            assert span["status"] == {"code": "STATUS_CODE_OK"}
        roots = [span for span in spans if span["parentSpanId"] is None]
        assert [root["name"] for root in roots] == ["campaign:check"]
        # Runs and compares nest under their clean task, not the slice.
        [task] = [span for span in spans
                  if span["name"] == "task:clean:DotProduct"]
        nested = [span for span in spans
                  if span["name"] in ("run:mmx", "run:spu", "phase:compare")]
        assert len(nested) == 4
        assert {span["parentSpanId"] for span in nested} == {task["spanId"]}

    def test_spans_never_touch_the_campaign_report(self, tmp_path, capsys):
        plain = tmp_path / "plain.json"
        spanned = tmp_path / "spanned.json"
        assert main(["check", "dotprod", "--faults", "2",
                     "--json", str(plain)]) == 0
        assert main(["check", "dotprod", "--faults", "2",
                     "--json", str(spanned),
                     "--spans", str(tmp_path / "s.jsonl")]) == 0
        assert plain.read_bytes() == spanned.read_bytes()

    def test_runner_check_spans_and_progress(self, tmp_path, capsys):
        spans_path = tmp_path / "spans.jsonl"
        # jobs=1 with a journal still routes through the Runner.
        assert main(["check", "dotprod", "--faults", "2", "--jobs", "1",
                     "--resume", str(tmp_path / "journal.jsonl"),
                     "--spans", str(spans_path), "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[DotProduct/D]" in err and "clean:DotProduct: ok" in err
        spans = [json.loads(line)
                 for line in spans_path.read_text().splitlines()][1:]
        names = [span["name"] for span in spans]
        assert names[0] == "campaign:check"
        assert "slice:DotProduct/D" in names
        assert "task:clean:DotProduct" in names
