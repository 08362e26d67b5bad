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

A reader that shows only the k worst violations can have the builder hold
just those (``ReportBuilder(keep=k)``), with the exact count beside them
(``CheckReport.seen``).
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import insort
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat
from operator import add, ge, gt, itemgetter, sub
from typing import Any, Callable, NamedTuple, Optional

from .errors import at_least_one

#: Hard cap on recorded violations; the totals stay exact even when the
#: list is truncated, and the worst offender is always retained (so even a
#: cap of 0 keeps one).
MAX_RECORDED_VIOLATIONS = 100_000


def _first_largest(values: list) -> int:
    """The position of the first largest value, as one comparison per value
    in order finds it.  ``max`` moves only to a strictly larger value, so no
    earlier value equals its pick, and a NaN first value, which it keeps, is
    found by identity."""
    return values.index(max(values))


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
            log._worst = _first_largest(log._res)
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
        ``max``'s pick, which the log's builder has found already.

        A float column without a NaN (its sum would be one) is totally
        preordered, so only positions whose residual reaches the n-th
        largest value can be picked.  The values alone give that threshold,
        and only the positions that reach it are ordered by residual."""
        if n == 1 and self._worst is not None:
            return [self[self._worst]]
        res, picks = self._res, range(len(self))
        cut = heapq.nlargest(n, res) if type(res) is array else None
        if cut and not math.isnan(sum(res)):
            picks = compress(picks, map(ge, res, repeat(cut[-1])))
        return [self[k] for k in heapq.nlargest(n, picks, key=res.__getitem__)]


@dataclass
class CheckReport:
    """Outcome of one sampled hypothesis check.  A list of violations
    passed in is kept as a ``ViolationLog`` of the same objects.  ``seen``
    is the exact violation count of a report that lists only its k worst
    (``ReportBuilder(keep=k)``), and None otherwise."""

    property_name: str
    samples_tested: int
    violations: ViolationLog
    max_margin: float | None
    verdict: str
    details: dict[str, Any] = field(default_factory=dict)
    seen: int | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.violations, ViolationLog):
            self.violations = ViolationLog.of(self.violations)

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"

    @property
    def violation_count(self) -> int:
        """Every violation seen, including those dropped from the list."""
        if self.seen is not None:
            return self.seen
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

    A checker that can tell which of a batch's violations exceed a residual
    may hand over the others as a count (``counting_floor``).  With ``keep``
    = k the builder holds only the k violations that ``to_dict(keep=k)`` of
    the full log lists: the k largest residuals, ties in recorded order,
    among the violations the log keeps, which are the first
    ``MAX_RECORDED_VIOLATIONS`` with the worst in the last slot when it was
    dropped.  Its residuals must not be NaN.
    """

    def __init__(self, property_name: str, tol: float,
                 witness: Optional[Callable[[int], tuple]] = None, keep: int | None = None):
        self.property_name = property_name
        self.tol = tol
        self.samples = 0
        self.min_margin: float | None = None
        self._witness = witness
        self._keys = [] if witness is None else array("q")
        self._lhs, self._rhs, self._res = array("d"), array("d"), array("d")
        self._seen = 0  # violations recorded, kept or dropped
        self._worst: tuple | None = None  # (ordinal, key, lhs, rhs, residual)
        self._keep = keep if keep is None else at_least_one("keep", keep)
        # keep mode: (-residual, ordinal, key, lhs, rhs), largest first, and
        # the one of them that stands in the log's last slot
        self._held: list[tuple] = []
        self._slot: tuple | None = None

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
                       rhs: Sequence[float], unlisted: int = 0) -> None:
        """``add_violation`` for each (key, lhs, rhs) in order, in one call,
        and ``unlisted`` more violations among them that are only counted.
        Those must have residuals of at most ``counting_floor()``, and must
        not be needed in order: the batch must not reach the log's last
        slot (``reaches_last_slot``)."""
        self.samples += len(lhs) + unlisted
        self._record(keys, lhs, rhs, unlisted)

    def reaches_last_slot(self, n: int) -> bool:
        """Whether the next n violations include the one at ordinal
        ``MAX_RECORDED_VIOLATIONS - 1``, which takes the log's last slot.
        A batch that does is listed whole, so that each ordinal is known."""
        return self._seen < max(MAX_RECORDED_VIOLATIONS, 1) <= self._seen + n

    def counting_floor(self) -> float | None:
        """The residual a violation must exceed to change the report, or
        None while any violation can.  Ties keep recorded order, so a later
        violation at the floor does not enter.

        With the full log, that is the worst residual once the log is full.
        In keep mode it is the k-th largest residual held once k are, and
        the worst once the log would be full: past its last slot only a new
        worst, which takes that slot, changes the report."""
        cap = max(MAX_RECORDED_VIOLATIONS, 1)
        if self._keep is None:
            return None if len(self._res) < cap else self._worst[-1]
        if self._seen >= cap:
            return -self._held[0][0]
        return -self._held[-1][0] if len(self._held) == self._keep else None

    def _widen(self, values) -> None:
        if isinstance(self._res, array) and not set(map(type, values)) <= {float}:
            # an array would turn a value of another type into a float
            self._lhs, self._rhs, self._res = list(self._lhs), list(self._rhs), list(self._res)

    def count_sample(self, margin: float | None = None) -> None:
        """Record a passing sample that has no natural lhs/rhs pair."""
        self.samples += 1
        if margin is not None and (self.min_margin is None or margin < self.min_margin):
            self.min_margin = margin

    def _record(self, keys: Sequence, lhs: Sequence[float], rhs: Sequence[float],
                unlisted: int = 0) -> None:
        n = len(lhs)
        if self._keep is not None:
            self._hold(keys, lhs, rhs)
        elif n:
            self._widen(chain(lhs, rhs))
            res = list(map(sub, lhs, rhs))
            seen = res if self._worst is None else [self._worst[-1], *res]
            b = _first_largest(seen) - (len(seen) - n)
            if b >= 0:
                # with unlisted violations, a lower bound on the ordinal,
                # past the log's end all the same
                self._worst = (self._seen + b, keys[b], lhs[b], rhs[b], res[b])
            # one slot is always there, for the worst violation
            room = max(MAX_RECORDED_VIOLATIONS, 1) - len(self._res)
            for col, items in ((self._keys, keys), (self._lhs, lhs), (self._rhs, rhs),
                               (self._res, res)):
                items = items[:room] if room < n else items
                # an array takes a list whole with fromlist, faster than extend
                (col.fromlist if type(col) is array and type(items) is list else col.extend)(items)
        self._seen += n + unlisted

    def _hold(self, keys: Sequence, lhs: Sequence[float], rhs: Sequence[float]) -> None:
        """Keep mode's ``_record``: a violation the log would keep enters
        the k held if its residual beats the k-th, and one past the log's
        end that beats the worst takes the last slot from the violation
        there.  Ordinals are lower bounds when some of a batch are unlisted,
        and keep the order all the same."""
        cap, keep, held = max(MAX_RECORDED_VIOLATIONS, 1), self._keep, self._held
        res, floor = list(map(sub, lhs, rhs)), self.counting_floor()
        above = repeat(True) if floor is None else map(gt, res, repeat(floor))
        for m in compress(range(len(res)), above):
            r, at = res[m], self._seen + m
            item = (-r, at, keys[m], lhs[m], rhs[m])
            if at < cap:
                if len(held) == keep and not r > -held[-1][0]:
                    continue
                insort(held, item)
                del held[keep:]
                if at == cap - 1:
                    self._slot = item
            elif r > -held[0][0]:
                if self._slot in held:
                    held.remove(self._slot)
                elif len(held) == keep:
                    held.pop()
                held.insert(0, item)
                self._slot = item

    def build(self, details: dict[str, Any] | None = None) -> CheckReport:
        details = dict(details or {})
        if self._keep is None:
            violations = ViolationLog(self._keys, self._lhs, self._rhs, self._res, self._witness)
            dropped = self._seen - len(self._res)
            if self._worst is not None:
                # The worst is the first violation, or the first with the
                # largest non-NaN residual, so no violation recorded before
                # it equals it: it is in the log exactly when it was kept.
                at, key, lhs, rhs, res = self._worst
                if at >= len(self._res):
                    self._keys[-1], self._lhs[-1] = key, lhs
                    self._rhs[-1], self._res[-1] = rhs, res
                # kept in place, or moved to the last slot above
                violations._worst = min(at, len(self._res) - 1)
        else:
            held = sorted(self._held, key=itemgetter(1))  # recorded order
            keys, lhs, rhs = ([h[k] for h in held] for k in (2, 3, 4))
            violations = ViolationLog(keys, lhs, rhs, list(map(sub, lhs, rhs)), self._witness)
            violations._worst = held.index(self._held[0]) if held else None
            dropped = max(self._seen - max(MAX_RECORDED_VIOLATIONS, 1), 0)
        if dropped:
            details["violations_dropped"] = dropped
        return CheckReport(
            property_name=self.property_name,
            samples_tested=self.samples,
            violations=violations,
            max_margin=self.min_margin,
            verdict="fail" if violations else "pass",
            details=details,
            seen=None if self._keep is None else self._seen,
        )
