"""Check reports: the common result type for every sampled verification.

A checker samples a finite set of witnesses, evaluates one inequality per
witness, and reports every violation it saw.  ``verdict`` is ``"fail"``
exactly when the violation list is nonempty; everything else about the run
(worst margin, sample count, auxiliary observations) rides along as data so
callers can render or serialize it without re-running the check.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat
from operator import add, attrgetter, gt, sub
from typing import Any, Callable, NamedTuple, Sequence

#: Hard cap on recorded violations; the totals stay exact even when the
#: list is truncated, and the worst offender is always retained (so even a
#: cap of 0 keeps one).
MAX_RECORDED_VIOLATIONS = 100_000


class Violation(NamedTuple):
    """One failed inequality: ``lhs <= rhs + tol`` did not hold.

    ``witness`` is a tuple of plain values (floats, labels, tags) that lets
    the reader re-evaluate both sides independently.  ``residual`` is
    ``lhs - rhs``.
    """

    witness: tuple
    lhs: float
    rhs: float
    residual: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "witness": list(self.witness),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
        }


@dataclass
class CheckReport:
    """Outcome of one sampled hypothesis check."""

    property_name: str
    samples_tested: int
    violations: list[Violation]
    max_margin: float | None
    verdict: str
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"

    @property
    def violation_count(self) -> int:
        """Every violation seen, including those dropped from the list."""
        return len(self.violations) + int(self.details.get("violations_dropped", 0))

    def to_dict(self, keep: int | None = None) -> dict[str, Any]:
        """The report as plain data.  With ``keep``, only the ``keep`` worst
        violations are listed, largest residual first and ties in recorded
        order; ``violation_count`` stays exact."""
        listed = self.violations
        if keep is not None:
            listed = heapq.nlargest(keep, listed, key=attrgetter("residual"))
        return {
            "property_name": self.property_name,
            "samples_tested": self.samples_tested,
            "violations": [v.to_dict() for v in listed],
            "violation_count": self.violation_count,
            "max_margin": self.max_margin,
            "verdict": self.verdict,
            "details": self.details,
        }


class ReportBuilder:
    """Accumulates violations and margins while a checker scans its samples.

    Keeps the running minimum of ``rhs - lhs`` over every sample (violating
    or not), truncates the stored violation list at
    ``MAX_RECORDED_VIOLATIONS`` without losing the count, and guarantees the
    worst violation survives truncation.
    """

    def __init__(self, property_name: str, tol: float):
        self.property_name = property_name
        self.tol = tol
        self.samples = 0
        self.min_margin: float | None = None
        self._violations: list[Violation] = []
        self._dropped = 0
        self._worst: Violation | None = None

    def observe(self, lhs: float, rhs: float, witness: tuple) -> bool:
        """Record one inequality evaluation, ``lhs <= rhs + tol`` with margin
        ``rhs - lhs``; return True if it violated."""
        return self.observe_all((lhs,), (rhs,), lambda k: witness)

    def observe_all(self, lhs: Sequence[float], rhs: Sequence[float],
                    witness: Callable[[int], tuple]) -> bool:
        """``observe(lhs[k], rhs[k], witness(k))`` for each k in order, in one
        call that builds witnesses for violations only; True if any violated.

        ``low`` is the first of the smallest non-NaN margins, where a running
        minimum ends.  With ``tol >= 0``, ``lhs > rhs + tol`` implies
        ``rhs - lhs < 0``: adding tol rounds to at least rhs, and a float
        difference has the exact sign.
        """
        if not lhs:
            return False
        margins = list(map(sub, rhs, lhs))
        low = min(chain((math.inf,), margins))
        if self.min_margin is None:
            self.min_margin = margins[0]  # a NaN stays, as it does one by one
        if low < self.min_margin:
            self.min_margin = low
        self.samples += len(margins)
        if not (low < 0 or self.tol < 0):
            return False
        hits = list(compress(count(), map(gt, lhs, map(add, rhs, repeat(self.tol)))))
        self._record([witness(k) for k in hits], [lhs[k] for k in hits], [rhs[k] for k in hits])
        return bool(hits)

    def add_violation(self, witness: tuple, lhs: float, rhs: float) -> None:
        """Record a violation found by a non-inequality test (e.g. membership)."""
        self.add_violations((witness,), (lhs,), (rhs,))

    def add_violations(self, witnesses: Sequence[tuple], lhs: Sequence[float],
                       rhs: Sequence[float]) -> None:
        """``add_violation`` for each (witness, lhs, rhs) in order, in one call."""
        self.samples += len(lhs)
        self._record(witnesses, lhs, rhs)

    def count_sample(self, margin: float | None = None) -> None:
        """Record a passing sample that has no natural lhs/rhs pair."""
        self.samples += 1
        if margin is not None and (self.min_margin is None or margin < self.min_margin):
            self.min_margin = margin

    def _record(self, witnesses: Sequence[tuple], lhs: Sequence[float],
                rhs: Sequence[float]) -> None:
        if not lhs:
            return
        # tuple.__new__ builds each Violation without a Python-level call
        fields = zip(witnesses, lhs, rhs, map(sub, lhs, rhs))
        batch = list(map(tuple.__new__, repeat(Violation), fields))
        # max keeps its first item and moves only to a strictly larger
        # residual, exactly as one comparison per violation in order does
        seen = batch if self._worst is None else chain((self._worst,), batch)
        self._worst = max(seen, key=attrgetter("residual"))
        # one slot is always there, for the worst violation
        kept = batch[:max(MAX_RECORDED_VIOLATIONS, 1) - len(self._violations)]
        self._violations.extend(kept)
        self._dropped += len(batch) - len(kept)

    def build(self, details: dict[str, Any] | None = None) -> CheckReport:
        details = dict(details or {})
        if self._dropped:
            details["violations_dropped"] = self._dropped
            if self._worst is not None and self._worst not in self._violations:
                self._violations[-1] = self._worst
        verdict = "fail" if self._violations else "pass"
        return CheckReport(
            property_name=self.property_name,
            samples_tested=self.samples,
            violations=self._violations,
            max_margin=self.min_margin,
            verdict=verdict,
            details=details,
        )

