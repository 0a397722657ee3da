"""Durable job state: journal fold on restart, atomic artifacts, epochs."""

import json
import os

import pytest

from repro.errors import ServeError
from repro.serve import JobPaths, JobSpec, ServeStore


def spec(n: int, verb: str = "check") -> JobSpec:
    return JobSpec(job=f"job-{n:06d}", tenant="default", verb=verb,
                   params={"faults": n}, seq=n)


class TestRecovery:
    def test_fresh_store_is_epoch_one(self, tmp_path):
        store = ServeStore(tmp_path)
        assert store.epoch == 1
        assert store.recovered == []
        assert store.next_seq == 1
        store.close()

    def test_pending_jobs_recover_in_admission_order(self, tmp_path):
        store = ServeStore(tmp_path)
        for n in (1, 2, 3):
            store.record_job(spec(n))
        store.record_done("job-000002", "done")
        store.close()

        reopened = ServeStore(tmp_path)
        assert reopened.epoch == 2
        assert [s.job for s in reopened.recovered] == ["job-000001", "job-000003"]
        assert reopened.terminal == {"job-000002": "done"}
        assert reopened.next_seq == 4
        reopened.close()

    def test_params_survive_the_round_trip(self, tmp_path):
        store = ServeStore(tmp_path)
        original = spec(1)
        store.record_job(original)
        store.close()
        reopened = ServeStore(tmp_path)
        assert reopened.recovered[0] == original
        reopened.close()

    def test_span_roots_recover(self, tmp_path):
        store = ServeStore(tmp_path)
        store.record_job(spec(1))
        store.record_span_root("job-000001", "t" * 32, "s" * 16)
        store.close()
        reopened = ServeStore(tmp_path)
        assert reopened.span_roots["job-000001"] == ("t" * 32, "s" * 16)
        # Epoch 2 allocates span ids from a disjoint block.
        assert reopened.span_id_base() > 0
        reopened.close()

    def test_truncated_serve_journal_tail_is_tolerated(self, tmp_path):
        store = ServeStore(tmp_path)
        store.record_job(spec(1))
        store.close()
        with open(tmp_path / "serve.jsonl", "ab") as fp:
            fp.write(b'deadbeef {"type":"job","job":"job-0')  # torn append
        reopened = ServeStore(tmp_path)
        assert [s.job for s in reopened.recovered] == ["job-000001"]
        reopened.close()

    def test_corrupt_mid_file_record_is_skipped_and_counted(self, tmp_path):
        store = ServeStore(tmp_path)
        store.record_job(spec(1))
        store.record_job(spec(2))
        store.close()
        raw = (tmp_path / "serve.jsonl").read_bytes().splitlines()
        # Flip a byte inside job-000001's admission record (line 2 after
        # header + epoch), keeping later records intact.
        target = 2
        raw[target] = raw[target][:-5] + b"X" + raw[target][-4:]
        (tmp_path / "serve.jsonl").write_bytes(b"\n".join(raw) + b"\n")
        with pytest.warns(RuntimeWarning):
            reopened = ServeStore(tmp_path)
        assert reopened.corrupt_records == 1
        assert [s.job for s in reopened.recovered] == ["job-000002"]
        reopened.close()

    def test_malformed_job_record_raises_serve_error(self):
        with pytest.raises(ServeError):
            JobSpec.from_record({"type": "job", "job": "x"})


class TestCompaction:
    @staticmethod
    def admit(store, verb="check"):
        seq = store.claim_seq()
        admitted = spec(seq, verb)
        store.record_job(admitted)
        return admitted

    def test_pending_state_survives_compaction_exactly(self, tmp_path):
        store = ServeStore(tmp_path)
        first = self.admit(store)
        done = self.admit(store)
        pending = self.admit(store)
        store.record_done(done.job, "done")
        store.record_attempt(pending.job, 2, "hang")
        store.record_span_root(pending.job, "t" * 32, "s" * 16)
        stats = store.compact(reason="test")
        assert stats["reason"] == "test"
        assert stats["records_after"] <= stats["records_before"]
        assert stats["archived_terminals"] == 0  # default keep covers it
        store.close()

        reopened = ServeStore(tmp_path)
        assert [s.job for s in reopened.recovered] == [first.job, pending.job]
        assert reopened.recovered[1] == pending  # params intact
        assert reopened.terminal == {done.job: "done"}
        assert reopened.attempts[pending.job] == 2
        assert reopened.span_roots[pending.job] == ("t" * 32, "s" * 16)
        assert reopened.next_seq == 4
        reopened.close()

    def test_pruned_terminals_never_reissue_job_ids(self, tmp_path):
        store = ServeStore(tmp_path)
        jobs = [self.admit(store) for _ in range(3)]
        for admitted in jobs:
            store.write_report(admitted.job, {
                "schema": "repro.obs/1", "kind": "t",
                "data": {"job": admitted.job},
            })
            store.record_done(admitted.job, "done")
        stats = store.compact(keep_terminal=0)
        assert stats["archived_terminals"] == 3
        assert stats["kept_terminals"] == 0
        store.close()

        reopened = ServeStore(tmp_path)
        # The terminal records are gone, but the seq counter rode the
        # snapshot: new admissions cannot collide with archived reports...
        assert reopened.terminal == {}
        assert reopened.archived_terminals == 3
        assert reopened.next_seq == 4
        assert reopened.claim_seq() == 4
        # ...and the report artifacts themselves are forever.
        for admitted in jobs:
            assert reopened.read_report(admitted.job) is not None
        reopened.close()

    def test_keep_terminal_retains_the_newest_records(self, tmp_path):
        store = ServeStore(tmp_path)
        jobs = [self.admit(store) for _ in range(4)]
        for admitted in jobs:
            store.record_done(admitted.job, "done")
        stats = store.compact(keep_terminal=2)
        assert stats["archived_terminals"] == 2
        assert stats["kept_terminals"] == 2
        assert sorted(store.terminal) == [jobs[2].job, jobs[3].job]
        # A second pass with nothing new archives nothing further but the
        # cumulative counter holds.
        stats = store.compact(keep_terminal=2)
        assert stats["archived_terminals"] == 0
        store.close()
        reopened = ServeStore(tmp_path)
        assert reopened.archived_terminals == 2
        reopened.close()

    def test_terminal_runner_journals_are_deleted_pending_kept(self, tmp_path):
        store = ServeStore(tmp_path)
        done = self.admit(store)
        pending = self.admit(store)
        store.job_journal(done.job).write_bytes(b"dead weight\n")
        store.job_journal(pending.job).write_bytes(b"resume state\n")
        store.record_done(done.job, "done")
        store.compact()
        assert not store.job_journal(done.job).exists()
        assert store.job_journal(pending.job).read_bytes() == b"resume state\n"
        store.close()

    def test_stale_compact_tmp_is_dropped_on_open(self, tmp_path):
        store = ServeStore(tmp_path)
        admitted = self.admit(store)
        store.close()
        # A crash at the compact-snapshot kill point leaves the tmp file;
        # it was never the live journal and must not shadow it.
        stale = tmp_path / "serve.jsonl.compact"
        stale.write_bytes(b"deadbeef not a journal\n")
        reopened = ServeStore(tmp_path)
        assert not stale.exists()
        assert [s.job for s in reopened.recovered] == [admitted.job]
        reopened.close()

    def test_degraded_flag_rides_through_compaction(self, tmp_path):
        store = ServeStore(tmp_path)
        admitted = self.admit(store)
        store.record_done(admitted.job, "done", detail="breaker", degraded=True)
        store.compact()
        assert store.terminal_records[admitted.job]["degraded"] is True
        store.close()
        reopened = ServeStore(tmp_path)
        assert reopened.terminal_records[admitted.job]["degraded"] is True
        reopened.close()


class TestArtifacts:
    def test_report_write_is_atomic_and_byte_stable_format(self, tmp_path):
        from repro.obs.export import write_json

        store = ServeStore(tmp_path)
        payload = {"schema": "repro.obs/1", "kind": "t", "data": {"a": 1}}
        store.write_report("job-000001", payload)
        stored = store.read_report("job-000001")
        reference = tmp_path / "ref.json"
        write_json(reference, payload)
        assert stored == reference.read_bytes()
        assert not any(
            name.endswith(".tmp") for name in os.listdir(store.jobs_dir)
        )
        store.close()

    def test_report_write_is_durable_before_it_returns(self, tmp_path,
                                                        monkeypatch):
        # The parent journals a job's done record right after the worker's
        # report write returns, so the rename itself must be durable: file
        # fsync, then replace, then an fsync of the containing directory.
        import stat

        store = JobPaths(tmp_path)
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            calls.append(f"fsync {kind}")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        store.write_report("job-000001", {"data": {"a": 1}})
        assert calls == ["fsync file", "replace", "fsync dir"]

    def test_missing_artifacts_read_as_none(self, tmp_path):
        store = ServeStore(tmp_path)
        assert store.read_report("job-000009") is None
        assert store.read_runner("job-000009") is None
        store.close()

    def test_epoch_records_accumulate(self, tmp_path):
        for expected in (1, 2, 3):
            store = ServeStore(tmp_path)
            assert store.epoch == expected
            store.close()
        lines = (tmp_path / "serve.jsonl").read_bytes().splitlines()
        epochs = [
            json.loads(line[9:]) for line in lines
            if b'"type":"epoch"' in line
        ]
        assert [r["epoch"] for r in epochs] == [1, 2, 3]
