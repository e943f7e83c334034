"""Structured check outcomes and their deterministic serialization.

A ``CheckReport`` is the unit every verification emits: pass for a
defining relation that holds, fail for one that does not, mismatch for a
disagreement with a catalogued closed-form expression (mismatches are
informative, not fatal).  Records serialize as JSON lines with a fixed
field order and no timing data, so a fixed seed reproduces report files
byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

PASS = "pass"
FAIL = "fail"
MISMATCH = "mismatch"


@dataclass
class CheckReport:
    model: str
    check: str
    status: str
    detail: str
    witness: str | None = None

    def to_record(self) -> str:
        payload = {
            "model": self.model,
            "check": self.check,
            "status": self.status,
            "detail": self.detail,
            "witness": self.witness,
        }
        return json.dumps(payload, ensure_ascii=True, separators=(",", ":"))


def render_records(reports: Iterable[CheckReport]) -> str:
    return "".join(r.to_record() + "\n" for r in reports)


def render_table(reports: list[CheckReport]) -> str:
    """Human summary: one line per report plus a tally of the check reports (the manifest left out)."""
    lines = []
    width_model = max([len(r.model) for r in reports] + [5])
    width_check = max([len(r.check) for r in reports] + [5])
    for r in reports:
        lines.append(f"{r.status.upper():8} {r.model:{width_model}} {r.check:{width_check}} {r.detail}")
    tally = {PASS: 0, FAIL: 0, MISMATCH: 0}
    for r in reports:
        if r.check != "manifest":
            tally[r.status] = tally.get(r.status, 0) + 1
    lines.append(
        f"summary: {tally[PASS]} pass, {tally[FAIL]} fail, {tally[MISMATCH]} mismatch"
    )
    return "\n".join(lines) + "\n"


def exit_code(reports: Iterable[CheckReport]) -> int:
    return 1 if any(r.status == FAIL for r in reports) else 0
