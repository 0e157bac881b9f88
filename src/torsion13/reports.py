"""Machine-readable verification reports: one JSON object per check.

status is "pass" or "fail" for decidable checks and "evidence" for checks
that support a claim without proving it (fingerprints, mod-p sieves).
Any "fail" must surface as a nonzero process exit code.  elapsed_ms is the
only field excluded from the byte-for-byte determinism guarantee.

This module alone writes JSON, through one json.dumps default hook: a
rational is the exact string "num/den" (denominator 1 included), a
polynomial the list of its coefficients (constant term first), a model
point on the infinity chart has u = "inf", an enum is its value and any
Record its fields by name.
"""

from __future__ import annotations

import json
import os
import sys
import time
from enum import Enum
from fractions import Fraction

from .hyperelliptic import ModelPoint
from .polynomials import Polynomial, Record

PASS = "pass"
FAIL = "fail"
EVIDENCE = "evidence"


class VerificationReport(Record):
    """One check's outcome; details is a dict or a Record."""

    __slots__ = ("check_id", "status", "claim_ref", "details", "elapsed_ms")


def _wire(value):
    """The JSON form of a value that json does not know; json.dumps recurses into it."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Polynomial):
        return [Fraction(c) for c in value.coeffs]
    if isinstance(value, ModelPoint) and value.chart == "infinity":
        return {"u": "inf", "v": value.v, "chart": value.chart}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Record):
        return {name: getattr(value, name) for name in value.__slots__}
    raise TypeError(f"{type(value).__name__} has no JSON form")


class ReportSink:
    """Collects reports, mirrors them as JSON lines, and tracks failure.

    `claims` maps each check id to the claim it checks, in words.  JSON
    lines go to sys.stdout and the human summary to sys.stderr, looked up
    at each print."""

    def __init__(self, claims: dict, json_only: bool = False):
        self.claims = claims
        self.json_only = json_only
        self.reports: list[VerificationReport] = []
        self.start = time.monotonic()

    def emit(self, report: VerificationReport):
        self.reports.append(report)
        print(json.dumps(report, sort_keys=True, default=_wire))
        if not self.json_only:
            print(f"[{report.status.upper():8s}] {report.check_id}: {report.claim_ref}",
                  file=sys.stderr)

    @staticmethod
    def emit_raw(payload):
        """A non-report JSON line, e.g. one object per found search point."""
        print(json.dumps(payload, sort_keys=True, default=_wire))

    def run_check(self, check_id: str, fn):
        """Time a check returning (status, details) and emit the report.

        Lines that `fn` emits with `emit_raw` come before its report.  An
        exception is a failing report whose details give the error and the
        file:line of the innermost frame it was raised from."""
        start = time.monotonic()
        try:
            status, details = fn()
        except Exception as exc:  # surfaced as a failing report, not a crash
            tb = exc.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            status, details = FAIL, {
                "error": f"{type(exc).__name__}: {exc}",
                "where": f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}",
            }
        elapsed = int((time.monotonic() - start) * 1000)
        report = VerificationReport(check_id, status, self.claims[check_id],
                                    details, elapsed)
        self.emit(report)
        return report

    @property
    def failed(self) -> bool:
        return any(r.status == FAIL for r in self.reports)

    def summary_line(self) -> str:
        """Counts by status and the time since the sink was created."""
        counts = {PASS: 0, FAIL: 0, EVIDENCE: 0}
        for r in self.reports:
            counts[r.status] = counts.get(r.status, 0) + 1
        total = int((time.monotonic() - self.start) * 1000)
        return (f"{len(self.reports)} checks: {counts[PASS]} pass, "
                f"{counts[FAIL]} fail, {counts[EVIDENCE]} evidence in {total} ms")
