"""Structured verification outcomes.

A Report is a named list of checks plus free-form structured data.  Every
verification entry point in the library returns one; the CLI serializes them
to text or JSON and maps them onto exit codes.
"""

from __future__ import annotations

import time


class Check:
    def __init__(self, name: str, passed: bool, detail: str = "",
                 witness: dict | None = None):
        self.name = name
        self.passed = passed
        self.detail = detail
        self.witness = witness

    def __eq__(self, other):
        if not isinstance(other, Check):
            return NotImplemented
        return ((self.name, self.passed, self.detail, self.witness)
                == (other.name, other.passed, other.detail, other.witness))

    def to_dict(self) -> dict:
        d = {"name": self.name, "passed": self.passed}
        if self.detail:
            d["detail"] = self.detail
        if self.witness is not None:
            d["witness"] = self.witness
        return d


class Report:
    def __init__(self, title: str, checks: list[Check] | None = None,
                 data: dict | None = None, seconds: float = 0.0):
        self.title = title
        self.checks = [] if checks is None else checks
        self.data = {} if data is None else data
        self.seconds = seconds

    def add(self, name: str, passed: bool, detail: str = "",
            witness: dict | None = None) -> Check:
        check = Check(name, bool(passed), detail, witness)
        self.checks.append(check)
        return check

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_checks(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
            "data": self.data,
            "seconds": round(self.seconds, 6),
        }

    def render_text(self) -> str:
        lines = [f"== {self.title} =="]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"[{status}] {c.name}"
            if c.detail:
                line += f": {c.detail}"
            lines.append(line)
            if c.witness:
                for key, value in c.witness.items():
                    lines.append(f"         {key} = {value}")
        for key, value in self.data.items():
            lines.append(f"{key}: {value}")
        lines.append(f"result: {'ok' if self.ok else 'FAILED'} ({self.seconds:.3f}s)")
        return "\n".join(lines)


class Stopwatch:
    """Context manager writing its elapsed time into a report."""

    def __init__(self, report: Report):
        self.report = report

    def __enter__(self):
        self._start = time.perf_counter()
        return self.report

    def __exit__(self, *exc):
        self.report.seconds = time.perf_counter() - self._start
        return False
