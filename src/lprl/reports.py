"""Verification report containers shared across the checking suites."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    """A single verified inequality or identity."""

    label: str
    ok: bool
    lhs: object = None
    rhs: object = None
    note: str = ""

    def __str__(self):
        status = "ok" if self.ok else "VIOLATION"
        body = f"{self.label}: {status}"
        if self.lhs is not None or self.rhs is not None:
            body += f" (lhs={self.lhs!r}, rhs={self.rhs!r})"
        if self.note:
            body += f" [{self.note}]"
        return body


def tally(counts):
    """``Counter(counts)`` for a dict ``counts``, made by ``dict.update``
    alone: a Counter keeps no state beyond its items."""
    out = Counter.__new__(Counter)
    dict.update(out, counts)
    return out


@dataclass
class CheckReport:
    """Accumulates check instances per labelled family.

    Passing instances are always counted; the Check objects themselves are
    stored only for violations unless ``keep_passing`` is set (useful for
    small reports where the computed values are the point).
    """

    title: str
    keep_passing: bool = False
    counts: Counter = field(default_factory=Counter)
    checks: list = field(default_factory=list)

    def add(self, label, ok, lhs=None, rhs=None, note=""):
        self.counts[label] += 1
        if not ok or self.keep_passing:
            self.checks.append(Check(label, ok, lhs, rhs, note))
        return ok

    def count(self, label, n):
        """Count n instances of label at once; a caller that counts this way
        appends its violations to ``checks`` itself."""
        if n:
            self.counts[label] += n

    @property
    def violations(self):
        return [c for c in self.checks if not c.ok]

    @property
    def ok(self):
        return not self.violations

    @property
    def instances(self):
        return sum(self.counts.values())

    def to_dict(self):
        return {
            "title": self.title,
            "ok": self.ok,
            "instances": dict(self.counts),
            "violations": [
                {"label": c.label, "lhs": repr(c.lhs), "rhs": repr(c.rhs), "note": c.note}
                for c in self.violations
            ],
        }

    def summary(self):
        bad = self.violations
        lines = [f"[{'FAIL' if bad else 'PASS'}] {self.title}: "
                 f"{self.instances} instances, {len(bad)} violations"]
        lines += ("  " + str(c) for c in bad)
        return "\n".join(lines)
