"""Check reports: the common result type for every sampled verification.

A checker samples a finite set of witnesses, evaluates one inequality per
witness, and reports every violation it saw.  ``verdict`` is ``"fail"``
exactly when the violation list is nonempty; everything else about the run
(worst margin, sample count, auxiliary observations) rides along as data so
callers can render or serialize it without re-running the check.

A failing check may record tens of thousands of violations of which a
reader shows a handful, so the list is kept as a ``ViolationLog``: one key,
lhs, rhs and residual per violation in parallel columns, floats in
``array('d')``.  A check whose witness is a function of an integer key (the
contraction kernel's quadruple index) stores the keys in ``array('q')`` and
builds each witness tuple only when its violation is read; the others store
the witness tuples as their own keys.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat
from operator import add, gt, sub
from typing import Any, Callable, NamedTuple, Optional

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


class ViolationLog(Sequence):
    """The recorded violations of a check, read-only, in recorded order.

    It stands for a list of ``Violation``: it has the list's length,
    indexing, slicing (a slice is a list), iteration, ``==`` and ``repr``,
    and builds each ``Violation`` as it is read.  ``witness`` maps a key to
    its witness tuple; None means each key is its own witness.  ``_worst``,
    set where the log is built, is the position ``largest(1)`` reads.
    """

    __slots__ = ("_keys", "_lhs", "_rhs", "_res", "_witness", "_worst")

    def __init__(self, keys: Sequence, lhs: Sequence[float], rhs: Sequence[float],
                 res: Sequence[float], witness: Optional[Callable[[Any], tuple]] = None):
        self._keys, self._lhs, self._rhs, self._res = keys, lhs, rhs, res
        self._witness = witness
        self._worst: Optional[int] = None

    @classmethod
    def of(cls, violations: Sequence[Violation]) -> "ViolationLog":
        """A log of the given violations, holding the same objects."""
        log = cls(*([list(col) for col in zip(*violations)] or [[], [], [], []]))
        if violations:
            log._worst = max(range(len(log)), key=log._res.__getitem__)
        return log

    def __len__(self) -> int:
        return len(self._res)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[m] for m in range(*k.indices(len(self)))]
        key = self._keys[k]
        return Violation(key if self._witness is None else self._witness(key),
                         self._lhs[k], self._rhs[k], self._res[k])

    def __iter__(self):
        keys = self._keys if self._witness is None else map(self._witness, self._keys)
        # tuple.__new__ builds each Violation without a Python-level call
        return map(tuple.__new__, repeat(Violation), zip(keys, self._lhs, self._rhs, self._res))

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, ViolationLog)):
            return self is other or list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))

    def largest(self, n: int) -> list[Violation]:
        """``heapq.nlargest(n, self, key=residual)``: the n largest
        residuals first, ties and NaNs placed as there, read from the
        residual column so that only those n are built.  The one largest is
        ``max``'s pick, which the log's builder has found already."""
        if n == 1 and self._worst is not None:
            return [self[self._worst]]
        return [self[k] for k in heapq.nlargest(n, range(len(self)), key=self._res.__getitem__)]


@dataclass
class CheckReport:
    """Outcome of one sampled hypothesis check.  A list of violations
    passed in is kept as a ``ViolationLog`` of the same objects."""

    property_name: str
    samples_tested: int
    violations: ViolationLog
    max_margin: float | None
    verdict: str
    details: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.violations, ViolationLog):
            self.violations = ViolationLog.of(self.violations)

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
        listed = self.violations if keep is None else self.violations.largest(keep)
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
    or not), truncates the stored violation log at
    ``MAX_RECORDED_VIOLATIONS`` without losing the count, and guarantees the
    worst violation survives truncation.  With ``witness``, violations are
    recorded under integer keys that it turns into witness tuples when they
    are read; without, each key is the witness tuple itself.
    """

    def __init__(self, property_name: str, tol: float,
                 witness: Optional[Callable[[int], tuple]] = None):
        self.property_name = property_name
        self.tol = tol
        self.samples = 0
        self.min_margin: float | None = None
        self._witness = witness
        self._keys = [] if witness is None else array("q")
        self._lhs, self._rhs, self._res = array("d"), array("d"), array("d")
        self._seen = 0  # violations recorded, kept or dropped
        self._worst: tuple | None = None  # (ordinal, key, lhs, rhs, residual)

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

    def add_violations(self, keys: Sequence, lhs: Sequence[float],
                       rhs: Sequence[float]) -> None:
        """``add_violation`` for each (key, lhs, rhs) in order, in one call."""
        self.samples += len(lhs)
        self._record(keys, lhs, rhs)

    def count_sample(self, margin: float | None = None) -> None:
        """Record a passing sample that has no natural lhs/rhs pair."""
        self.samples += 1
        if margin is not None and (self.min_margin is None or margin < self.min_margin):
            self.min_margin = margin

    def _record(self, keys: Sequence, lhs: Sequence[float], rhs: Sequence[float]) -> None:
        n = len(lhs)
        if not n:
            return
        if isinstance(self._res, array) and not {*map(type, lhs), *map(type, rhs)} <= {float}:
            # an array would turn a value of another type into a float
            self._lhs, self._rhs, self._res = list(self._lhs), list(self._rhs), list(self._res)
        res = list(map(sub, lhs, rhs))
        # max keeps its first item and moves only to a strictly larger
        # residual, exactly as one comparison per violation in order does
        seen = res if self._worst is None else [self._worst[-1], *res]
        b = max(range(len(seen)), key=seen.__getitem__) - (len(seen) - n)
        if b >= 0:
            self._worst = (self._seen + b, keys[b], lhs[b], rhs[b], res[b])
        self._seen += n
        # one slot is always there, for the worst violation
        room = max(MAX_RECORDED_VIOLATIONS, 1) - len(self._res)
        self._keys.extend(keys[:room])
        self._lhs.extend(lhs[:room])
        self._rhs.extend(rhs[:room])
        self._res.extend(res[:room])

    def build(self, details: dict[str, Any] | None = None) -> CheckReport:
        details = dict(details or {})
        dropped = self._seen - len(self._res)
        if dropped:
            details["violations_dropped"] = dropped
            # The worst is the first violation, or the first with the
            # largest non-NaN residual, so no violation recorded before it
            # equals it: it is in the log exactly when it was kept.
            at, key, lhs, rhs, res = self._worst
            if at >= len(self._res):
                self._keys[-1], self._lhs[-1], self._rhs[-1], self._res[-1] = key, lhs, rhs, res
        violations = ViolationLog(self._keys, self._lhs, self._rhs, self._res, self._witness)
        if self._worst is not None:
            # kept in place, or moved to the last slot above
            violations._worst = min(self._worst[0], len(self._res) - 1)
        return CheckReport(
            property_name=self.property_name,
            samples_tested=self.samples,
            violations=violations,
            max_margin=self.min_margin,
            verdict="fail" if violations else "pass",
            details=details,
        )
