"""Check reports shared by the verification suites and the CLI.

A report is a list of named checks, each pass/fail/inconclusive with a
details mapping.  Aggregation: fail dominates, then inconclusive, then
pass.  Serialization is deterministic (sorted keys); wall-clock timing is
carried in a separate field so byte-level comparisons can drop it.

A report is also the only stopwatch: each check is timed from the check
added before it, or from the creation of the report, so a check's time
includes the work that led up to it, and the report's time is the sum.
"""

from __future__ import annotations

import time
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


class Check(NamedTuple):
    name: str
    status: str
    details: dict
    timing_s: float  # seconds since the check before it in its report

    def to_dict(self) -> dict:
        return self._asdict()


class Report:
    def __init__(self, title: str):
        self.title = title
        self.checks: list = []
        self.config: dict = {}
        self._lap = time.monotonic()

    def _split(self) -> float:
        now = time.monotonic()
        elapsed, self._lap = now - self._lap, now
        return elapsed

    def add(self, name: str, ok, details: dict | None = None) -> Check:
        if isinstance(ok, str):
            status = ok
        else:
            status = PASS if ok else FAIL
        check = Check(name, status, details or {}, self._split())
        self.checks.append(check)
        return check

    def extend(self, other: "Report") -> None:
        """Append another report's checks with their own times; the next
        check here is timed from now."""
        self.checks.extend(other.checks)
        self._split()

    @property
    def timing_s(self) -> float:
        return sum(c.timing_s for c in self.checks)

    @property
    def overall(self) -> str:
        statuses = [c.status for c in self.checks]
        if FAIL in statuses:
            return FAIL
        if INCONCLUSIVE in statuses:
            return INCONCLUSIVE
        return PASS

    def to_dict(self, include_timing: bool = True) -> dict:
        checks = [c.to_dict() for c in self.checks]
        if not include_timing:
            for c in checks:
                c.pop("timing_s", None)
        out = {
            "title": self.title,
            "config": self.config,
            "checks": checks,
            "overall": self.overall,
        }
        if include_timing:
            out["timing_s"] = self.timing_s
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return dumps(self.to_dict(include_timing))

    def to_text(self) -> str:
        lines = [f"== {self.title} =="]
        for c in self.checks:
            lines.append(f"[{c.status.upper():^12}] {c.name}")
            for k in sorted(c.details):
                lines.append(f"    {k}: {c.details[k]}")
        lines.append(f"overall: {self.overall}")
        return "\n".join(lines)

    def failed_checks(self) -> list:
        return [c for c in self.checks if c.status == FAIL]


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dumps(value) -> str:
    """The bytes of ``json.dumps(value, sort_keys=True, indent=2)``: ASCII
    escapes, two spaces a level, ``float.__repr__`` and ``NaN``/``Infinity``
    for floats.  A key that is not a ``str``, or a value JSON cannot hold,
    raises ``TypeError``.  ``json`` builds the same text through a chain of
    Python generators whenever ``indent`` is set; one recursive writer that
    appends to a list and joins once does less."""
    out: list = []
    _write(value, out, "\n")
    return "".join(out)


def _write(value, out: list, newline: str) -> None:
    """Append the pieces of ``value`` to ``out``, at the indentation
    ``newline`` starts."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        out.append(_NONFINITE.get(text, text))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write(value[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
