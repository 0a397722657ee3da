"""Durable job state for the simulation service.

Everything the service must not lose lives in one directory::

    <journal-dir>/
        serve.jsonl               service journal (admissions, terminals,
                                  attempts, epochs, span roots) — fsync per
                                  record
        jobs/<id>.journal.jsonl   per-job campaign runner journal
        jobs/<id>.report.json     final report (durable: tmp, fsync,
                                  replace, directory fsync)
        jobs/<id>.runner.json     runner execution report
        jobs/<id>.spans.<N>.jsonl span export of epoch N's execution

The serve journal reuses the hardened :class:`repro.runner.Journal`
(CRC-per-record, O_APPEND atomic lines, truncated-tail tolerance) with
``fsync_every=1``: a job is admitted only once its record is on stable
storage, so an admission the client saw acknowledged survives any crash.

Restart recovery is a pure fold over the journal: admissions minus
terminals, in admission order, are the pending jobs of the new epoch.
Reports are written to a separate file per job through one durable writer
(:func:`_durable_write`: tmp, fsync, atomic replace, directory fsync), so a
reader can never observe a half-written report, a crash mid-write leaves
the previous state intact, and a report is on stable storage before the
parent journals the job's ``done`` record.

Path mechanics live in :class:`JobPaths`, a journal-less base the job
*workers* construct: a worker writes reports and runner journals under the
same layout without ever opening ``serve.jsonl`` — the parent's
``fsync_every=1`` append stream stays single-writer.

**Compaction** (:meth:`ServeStore.compact`) bounds the journal: an
append-only log grows with every admission forever, so a long-lived
service folds its history into an equivalent snapshot — header, a
``snapshot`` record carrying ``next_seq`` (job ids must never be reissued,
even for pruned admissions) and the cumulative archive count, the current
epoch, the most recent terminal records (self-contained: tenant/verb/seq
ride on ``job_done`` so status endpoints answer without the pruned
admission), and every pending job's admission + attempt + span-root
records.  The swap is the same durable writer, so it is crash-safe by
construction: write ``serve.jsonl.compact``, fsync it, atomically rename
over ``serve.jsonl``, fsync the directory.  A crash before the rename
leaves the old journal; a crash after leaves the new one; both fold to the
same pending set.  The chaos kill points ``compact-snapshot`` and
``compact-commit`` sit at exactly those two instants so the
recovery-equivalence tests can die there on purpose.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.obs.export import RUNNER_SCHEMA_VERSION
from repro.runner.chaos import kill_point
from repro.runner.journal import Journal, _encode_record, load_journal
from repro.serve.jobs import JobSpec

__all__ = ["JobPaths", "ServeStore"]

#: Fingerprint of every serve journal — a journal dir belongs to the
#: service, not to any single campaign.
SERVE_FINGERPRINT = {"verb": "serve"}

#: Span-id block reserved per epoch: epoch N's tracers allocate ids from
#: ``N * SPAN_ID_STRIDE``, so span files from different epochs of the same
#: job merge without id collisions.
SPAN_ID_STRIDE = 1_000_000

#: Terminal records a compaction keeps by default: enough recent history
#: for status queries, while the journal stays bounded no matter how many
#: jobs the service has ever finished.
DEFAULT_KEEP_TERMINAL = 64


def _durable_write(target: Path, data: bytes, tmp: Path | None = None,
                   kill_at: str | None = None) -> None:
    """Replace *target* with *data* so readers see the old file or the new
    one, and the new one survives power loss once this returns.

    Write ``tmp`` (default ``<target>.tmp``), fsync it, rename it over
    *target*, fsync the directory: until the directory is fsynced the
    rename itself is not durable.  *kill_at* names the chaos kill point
    between the file fsync and the rename.
    """
    tmp = tmp or target.with_suffix(target.suffix + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    if kill_at is not None:
        kill_point(kill_at)
    os.replace(tmp, target)
    dir_fd = os.open(target.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class JobPaths:
    """The artifact layout of a journal dir, without the journal itself.

    Job workers construct this (cheap, no fd, no recovery fold) to read
    specs and write reports; only the parent's :class:`ServeStore`
    owns the ``serve.jsonl`` append stream.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)

    # ---- artifact paths ------------------------------------------------------

    def job_journal(self, job: str) -> Path:
        return self.jobs_dir / f"{job}.journal.jsonl"

    def report_path(self, job: str) -> Path:
        return self.jobs_dir / f"{job}.report.json"

    def runner_path(self, job: str) -> Path:
        return self.jobs_dir / f"{job}.runner.json"

    def spans_path(self, job: str, epoch: int) -> Path:
        return self.jobs_dir / f"{job}.spans.{epoch}.jsonl"

    # ---- durable artifact writes ---------------------------------------------

    def _render_json(self, payload: dict) -> str:
        # Byte-for-byte the repro.obs.export.write_json format, so a serve
        # report diffs clean against the same campaign's CLI --json output.
        return json.dumps(payload, indent=2, sort_keys=False, default=str) + "\n"

    def write_report(self, job: str, payload: dict) -> None:
        _durable_write(self.report_path(job),
                       self._render_json(payload).encode())

    def write_runner(self, job: str, payload: dict) -> None:
        _durable_write(self.runner_path(job),
                       self._render_json(payload).encode())

    def read_report(self, job: str) -> bytes | None:
        path = self.report_path(job)
        return path.read_bytes() if path.exists() else None

    def read_runner(self, job: str) -> bytes | None:
        path = self.runner_path(job)
        return path.read_bytes() if path.exists() else None


class ServeStore(JobPaths):
    """The service's journal, artifact paths and restart recovery."""

    def __init__(self, root: str | Path) -> None:
        super().__init__(root)
        # A crash between writing the compaction snapshot and renaming it
        # leaves a stale temp file; it was never the live journal, drop it.
        self._compact_tmp.unlink(missing_ok=True)

        # Scan before Journal construction appends anything: the full record
        # list (not just completed tasks) is what recovery folds over.
        load = load_journal(self.root / "serve.jsonl")
        self.corrupt_records = load.corrupt

        self.epoch = 0
        self.next_seq = 1
        #: Terminal job_done records pruned by past compactions (cumulative).
        self.archived_terminals = 0
        done: dict[str, dict] = {}
        admitted: list[JobSpec] = []
        admitted_ids: set[str] = set()
        span_roots: dict[str, tuple[str, str]] = {}
        attempts: dict[str, int] = {}
        for record in load.records:
            kind = record.get("type")
            if kind == "epoch":
                self.epoch = max(self.epoch, int(record.get("epoch", 0)))
            elif kind == "snapshot":
                # A compaction pruned records before this point; the counter
                # state they carried rides on the snapshot instead.
                self.next_seq = max(self.next_seq, int(record.get("next_seq", 1)))
                self.archived_terminals = int(record.get("archived_terminals", 0))
            elif kind == "job":
                spec = JobSpec.from_record(record)
                admitted.append(spec)
                admitted_ids.add(spec.job)
                self.next_seq = max(self.next_seq, spec.seq + 1)
            elif kind == "job_done":
                job = record.get("job", "")
                done[job] = record
                if job and job not in admitted_ids:
                    # Compaction pruned this job's admission record; the
                    # terminal record is self-contained, rebuild from it.
                    admitted.append(JobSpec(
                        job=job,
                        tenant=record.get("tenant", ""),
                        verb=record.get("verb", ""),
                        params={},
                        seq=int(record.get("seq", 0)),
                    ))
                    admitted_ids.add(job)
            elif kind == "job_attempt":
                attempts[record.get("job", "")] = int(record.get("attempt", 0))
            elif kind == "job_span":
                span_roots[record.get("job", "")] = (
                    record.get("trace", ""), record.get("span", ""),
                )

        #: Jobs admitted by earlier epochs that never reached a terminal
        #: record — the new epoch re-enqueues them in admission order.
        self.recovered: list[JobSpec] = [
            spec for spec in admitted if spec.job not in done
        ]
        #: Terminal status by job id (``done``/``failed``), across epochs.
        self.terminal: dict[str, str] = {
            job: record.get("status", "done") for job, record in done.items()
        }
        #: Full terminal records (detail, degraded flag...) for status
        #: endpoints and for rewriting terminals through a compaction.
        self.terminal_records: dict[str, dict] = done
        #: All admissions ever, by id (status endpoints answer for old jobs).
        self.admitted: dict[str, JobSpec] = {spec.job: spec for spec in admitted}
        #: Root span ``(trace_id, span_id)`` recorded at each job's first
        #: execution — later epochs parent their spans under it.
        self.span_roots: dict[str, tuple[str, str]] = span_roots
        #: Supervision attempt counters that survive restarts: a job that
        #: hung twice before a crash has two strikes after it, too.
        self.attempts: dict[str, int] = attempts
        #: Live journal records (compaction-policy input; headers excluded).
        self.record_count = len(load.records)

        self.epoch += 1
        self.journal = Journal(
            self.root / "serve.jsonl", SERVE_FINGERPRINT, fsync_every=1
        )
        self.journal.append({"type": "epoch", "epoch": self.epoch})
        self.record_count += 1

    # ---- journal records -----------------------------------------------------

    def record_job(self, spec: JobSpec) -> None:
        """Persist an admission (durable before the client sees 202)."""
        self.journal.append(spec.as_record())
        self.record_count += 1
        self.admitted[spec.job] = spec

    def record_done(self, job: str, status: str, detail: str = "",
                    degraded: bool = False) -> None:
        """Persist a terminal state, self-contained enough to outlive a
        compaction of the job's admission record."""
        spec = self.admitted.get(job)
        record = {
            "type": "job_done", "job": job, "status": status,
            "detail": detail, "epoch": self.epoch,
            "tenant": spec.tenant if spec else "",
            "verb": spec.verb if spec else "",
            "seq": spec.seq if spec else 0,
            "degraded": degraded,
        }
        self.journal.append(record)
        self.record_count += 1
        self.terminal[job] = status
        self.terminal_records[job] = record

    def record_attempt(self, job: str, attempt: int, reason: str) -> None:
        """Persist a supervision strike (hang kill, crash) against *job*."""
        self.journal.append({
            "type": "job_attempt", "job": job, "attempt": attempt,
            "reason": reason, "epoch": self.epoch,
        })
        self.record_count += 1
        self.attempts[job] = attempt

    def record_span_root(self, job: str, trace_id: str, span_id: str) -> None:
        """Remember a job's root span so restarts keep span parentage."""
        self.journal.append({
            "type": "job_span", "job": job, "trace": trace_id, "span": span_id,
        })
        self.record_count += 1
        self.span_roots[job] = (trace_id, span_id)

    def claim_seq(self) -> int:
        seq = self.next_seq
        self.next_seq += 1
        return seq

    def span_id_base(self) -> int:
        """Start of this epoch's span-id block (0 on the first epoch)."""
        return (self.epoch - 1) * SPAN_ID_STRIDE

    def spans_path(self, job: str, epoch: int | None = None) -> Path:
        return super().spans_path(job, epoch or self.epoch)

    def close(self) -> None:
        self.journal.close()

    # ---- compaction ----------------------------------------------------------

    @property
    def _compact_tmp(self) -> Path:
        return self.root / "serve.jsonl.compact"

    def compact(self, keep_terminal: int | None = None,
                reason: str = "idle") -> dict:
        """Fold the journal into an equivalent bounded snapshot.

        Caller contract: no job may be mid-execution (idle service, or the
        offline ``repro serve --compact`` path) — the journal fd is closed
        for the swap and reopened after.

        Returns compaction stats (records before/after, terminals archived
        this pass, the policy *reason*) for the ``serve_compact`` event and
        the CLI summary.
        """
        keep = DEFAULT_KEEP_TERMINAL if keep_terminal is None else max(0, keep_terminal)
        records_before = self.record_count
        self.journal.close()

        def seq_of(job: str) -> int:
            spec = self.admitted.get(job)
            return spec.seq if spec else 0

        terminal_jobs = sorted(self.terminal, key=seq_of)
        kept = terminal_jobs[len(terminal_jobs) - keep:] if keep else []
        pruned = terminal_jobs[:len(terminal_jobs) - len(kept)]
        self.archived_terminals += len(pruned)

        records: list[dict] = [
            {
                "type": "header",
                "schema": RUNNER_SCHEMA_VERSION,
                "fingerprint": SERVE_FINGERPRINT,
            },
            {
                # next_seq must survive the pruned admissions: job ids are
                # never reissued, or archived reports would collide.
                "type": "snapshot",
                "next_seq": self.next_seq,
                "archived_terminals": self.archived_terminals,
            },
            {"type": "epoch", "epoch": self.epoch},
        ]
        for job in kept:
            records.append(dict(self.terminal_records[job]))
        pending = sorted(
            (spec for spec in self.admitted.values()
             if spec.job not in self.terminal),
            key=lambda spec: spec.seq,
        )
        for spec in pending:
            records.append(spec.as_record())
            if self.attempts.get(spec.job):
                records.append({
                    "type": "job_attempt", "job": spec.job,
                    "attempt": self.attempts[spec.job],
                    "reason": "compacted", "epoch": self.epoch,
                })
            if spec.job in self.span_roots:
                trace_id, span_id = self.span_roots[spec.job]
                records.append({
                    "type": "job_span", "job": spec.job,
                    "trace": trace_id, "span": span_id,
                })

        # At compact-snapshot the snapshot is durable and the old journal
        # still live: a crash there recovers from the uncompacted journal,
        # identically.
        _durable_write(
            self.root / "serve.jsonl",
            b"".join(_encode_record(record) for record in records),
            tmp=self._compact_tmp, kill_at="compact-snapshot",
        )
        # Rename durable: a crash here recovers from the compacted journal —
        # same pending set, same terminals, same next_seq.
        kill_point("compact-commit")

        # Terminal jobs never re-execute; their campaign resume journals and
        # span exports are dead weight once the report files are final.
        for job in terminal_jobs:
            self.job_journal(job).unlink(missing_ok=True)
        for job in pruned:
            self.admitted.pop(job, None)
            self.terminal.pop(job, None)
            self.terminal_records.pop(job, None)
            self.attempts.pop(job, None)
            self.span_roots.pop(job, None)

        self.journal = Journal(
            self.root / "serve.jsonl", SERVE_FINGERPRINT, fsync_every=1
        )
        self.record_count = len(records) - 1  # header excluded
        return {
            "records_before": records_before,
            "records_after": self.record_count,
            "archived_terminals": len(pruned),
            "kept_terminals": len(kept),
            "reason": reason,
        }

    # ---- drain ---------------------------------------------------------------

    def flush_for_drain(self) -> None:
        """Final durability barrier of a graceful drain (mid-drain chaos
        kill point sits here: after the decision to stop, before the journal
        is guaranteed flushed)."""
        kill_point("mid-drain")
        self.journal.flush()
