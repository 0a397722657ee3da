"""The :class:`FusionCertificate`: machine-checkable superop legality evidence.

A certificate is *pure data* — body text, concrete entry constants, closed
forms and classifications — never live IR objects, so it survives a JSON
round trip (committed audit baselines replay-check against the current
program) and so the replay checker (:mod:`repro.core.replay`) can only ever
trust the program it is handed, not analyzer intermediates.

Every recorded fact is independently re-derivable from the instruction
stream plus the entry constants by concrete replay:

- ``body`` — textual form of each body instruction (drift → stale),
- ``trip`` — counter register and count, checked by stepping the closing
  branch to its exact exhaustion point,
- ``memory`` — per access ``first + k * stride`` closed forms, checked
  against the concrete address of every one of the ``trip`` iterations,
- ``reads`` / ``writes`` — register footprints from operand decoding,
- ``carried`` — per-register dependence class (induction step re-verified
  numerically; reduction/opaque structurally),
- ``swar`` — one record per packed op with its sem-derived wrap status,
- ``overflow`` — modular packed accumulators (recorded, not blocking),
- ``mem_carried`` — loop-carried store→load byte overlaps with iteration
  distance (recorded, not blocking).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.replay import FUSION_CERT_SCHEMA


@dataclass(frozen=True)
class FusionCertificate:
    """Proof obligations discharged for one loop region of one program."""

    program: str
    loop: str
    start: int
    end: int
    body: tuple[str, ...]
    #: ``{"kind": "loop"|"dec-jnz", "counter": "r0", "count": N}``
    trip: dict[str, Any]
    #: Concrete loop-entry values of every symbol the closed forms use.
    entry: dict[str, int]
    #: ``{"scalar": [...], "mmx": [...]}`` register names read in the body.
    reads: dict[str, list[str]]
    writes: dict[str, list[str]]
    #: ``{"register", "class", "step"?}`` per loop-carried register.
    carried: tuple[dict[str, Any], ...] = ()
    #: ``{"position", "access", "size", "first", "stride"}`` per body access.
    memory: tuple[dict[str, Any], ...] = ()
    #: ``{"position", "op", "width", "status"}`` per packed op.
    swar: tuple[dict[str, Any], ...] = ()
    #: ``{"position", "register"}`` modular packed accumulators.
    overflow: tuple[dict[str, Any], ...] = ()
    #: ``{"store", "load", "distance"}`` carried memory dependences.
    mem_carried: tuple[dict[str, Any], ...] = ()
    schema: str = field(default=FUSION_CERT_SCHEMA)

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "program": self.program,
            "loop": self.loop,
            "start": self.start,
            "end": self.end,
            "body": list(self.body),
            "trip": dict(self.trip),
            "entry": dict(self.entry),
            "reads": {key: list(val) for key, val in self.reads.items()},
            "writes": {key: list(val) for key, val in self.writes.items()},
            "carried": [dict(rec) for rec in self.carried],
            "memory": [dict(rec) for rec in self.memory],
            "swar": [dict(rec) for rec in self.swar],
            "overflow": [dict(rec) for rec in self.overflow],
            "mem_carried": [dict(rec) for rec in self.mem_carried],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FusionCertificate":
        """Rehydrate a certificate from its JSON form (audit baselines)."""
        return cls(
            schema=str(data.get("schema", "")),
            program=str(data["program"]),
            loop=str(data["loop"]),
            start=int(data["start"]),
            end=int(data["end"]),
            body=tuple(str(line) for line in data["body"]),
            trip=dict(data["trip"]),
            entry={str(k): int(v) for k, v in data["entry"].items()},
            reads={k: [str(r) for r in v] for k, v in data["reads"].items()},
            writes={k: [str(r) for r in v] for k, v in data["writes"].items()},
            carried=tuple(dict(rec) for rec in data.get("carried", [])),
            memory=tuple(dict(rec) for rec in data.get("memory", [])),
            swar=tuple(dict(rec) for rec in data.get("swar", [])),
            overflow=tuple(dict(rec) for rec in data.get("overflow", [])),
            mem_carried=tuple(dict(rec) for rec in data.get("mem_carried", [])),
        )
