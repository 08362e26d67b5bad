"""Check reports: the common result type for every sampled verification.

A checker samples a finite set of witnesses, evaluates one inequality per
witness, and counts every violation it saw.  ``verdict`` is ``"fail"``
exactly when it saw one; everything else about the run (worst margin,
sample count, auxiliary observations) rides along as data so callers can
render or serialize it without re-running the check.

A failing check may see tens of thousands of violations of which a reader
shows a handful, so a report lists the k largest residuals among all of
them, in recorded order, with the exact count beside them
(``CheckReport.seen``).  k is the ``keep`` a checker is given (the command
line gives five), else ``MAX_RECORDED_VIOLATIONS``, below which every
violation is listed.  The list is a ``ViolationLog``: one key, lhs, rhs and
residual per violation in parallel columns, floats in ``array('d')``.  A
check whose witness is a function of an integer key (the contraction
kernel's quadruple index) stores the keys in ``array('q')`` and builds each
witness tuple only when its violation is read; the others store the
witness tuples as their own keys.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections.abc import Sequence
from itertools import chain, compress, count, islice, repeat
from operator import add, eq, ge, gt, ne, sub
from typing import Any, Callable, NamedTuple, Optional

from .errors import at_least_one
from .records import Record

#: Violations a report lists without ``keep``: the largest residuals, and
#: at least one (even at a cap of 0); the totals stay exact.
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
    its witness tuple; None means each key is its own witness.
    """

    __slots__ = ("_keys", "_lhs", "_rhs", "_res", "_witness")

    def __init__(self, keys: Sequence, lhs: Sequence[float], rhs: Sequence[float],
                 res: Sequence[float], witness: Optional[Callable[[Any], tuple]] = None):
        self._keys, self._lhs, self._rhs, self._res = keys, lhs, rhs, res
        self._witness = witness

    @classmethod
    def of(cls, violations: Sequence[Violation]) -> "ViolationLog":
        """A log of the given violations, holding the same objects."""
        return cls(*([list(col) for col in zip(*violations)] or [[], [], [], []]))

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
        residual column so that only those n are built.

        A float column without a NaN (its sum would be one) is totally
        preordered, so only positions whose residual reaches the n-th
        largest value can be picked.  The values alone give that threshold,
        and only the positions that reach it are ordered by residual."""
        res, picks = self._res, range(len(self))
        cut = heapq.nlargest(n, res) if type(res) is array else None
        if cut and not math.isnan(sum(res)):
            picks = compress(picks, map(ge, res, repeat(cut[-1])))
        return [self[k] for k in heapq.nlargest(n, picks, key=res.__getitem__)]


class CheckReport(Record):
    """Outcome of one sampled hypothesis check.  A list of violations
    passed in is kept as a ``ViolationLog`` of the same objects.  ``seen``
    is the exact violation count of a report a ``ReportBuilder`` built, and
    None for one built from a list; it enters neither ``==`` nor ``repr``."""

    _fields = ("property_name", "samples_tested", "violations", "max_margin", "verdict", "details")
    __slots__ = (*_fields, "seen")

    def __init__(self, property_name: str, samples_tested: int, violations: ViolationLog,
                 max_margin: float | None, verdict: str, details: dict[str, Any] | None = None,
                 seen: int | None = None):
        self.property_name = property_name
        self.samples_tested = samples_tested
        self.violations = (violations if isinstance(violations, ViolationLog)
                           else ViolationLog.of(violations))
        self.max_margin = max_margin
        self.verdict = verdict
        self.details = {} if details is None else details
        self.seen = seen

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
    or not), the exact count of violations, and the k of them with the
    largest residuals (``lhs - rhs``), in recorded order: k is ``keep``,
    else ``MAX_RECORDED_VIOLATIONS`` (at least 1).  Equal residuals rank in
    recorded order and a NaN residual below every number, so the k held do
    not depend on how the violations were batched.  Without a NaN that is
    the order ``ViolationLog.largest`` reads, and the report lists what
    ``to_dict(keep=k)`` of every violation would list.  With one it need
    not be: ``largest`` follows ``heapq.nlargest``, which places a NaN by
    where it stands in the list, and no builder that holds k violations
    can know that place.  With ``witness``, violations are recorded under
    integer keys that it turns into witness tuples when they are read;
    without, each key is the witness tuple itself.

    Each batch is appended, and a batch that leaves at least k + k // 2
    held is cut back to the k largest, so a cut's cost is spread over at
    least k / 2 violations.  A checker that can tell which of a batch's
    violations exceed a residual may hand over the others as a count
    (``counting_floor``).
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
        self._seen = 0  # violations recorded, held or not
        self._keep = max(MAX_RECORDED_VIOLATIONS, 1) if keep is None else at_least_one("keep", keep)
        self._floor: float | None = None  # the k-th largest residual at the last cut

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
        Those must have residuals of at most ``counting_floor()``."""
        self.samples += len(lhs) + unlisted
        self._record(keys, lhs, rhs, unlisted)

    def counting_floor(self) -> float | None:
        """The residual a violation must exceed to enter the report, or None
        while any violation may.  It is the k-th largest residual at the
        last cut: the k-th largest held, or a lower bound on it while more
        than k are held.  A later violation at the floor ranks below the
        earlier ones there, so it does not enter."""
        return self._floor

    def _widen(self, values) -> None:
        if isinstance(self._res, array) and not set(map(type, values)) <= {float}:
            # an array would turn a value of another type into a float
            self._lhs, self._rhs, self._res = list(self._lhs), list(self._rhs), list(self._res)

    def count_sample(self, margin: float | None = None, n: int = 1) -> None:
        """Record ``n`` passing samples with no lhs/rhs pair; ``margin`` is their least."""
        self.samples += n
        if margin is not None and (self.min_margin is None or margin < self.min_margin):
            self.min_margin = margin

    def _record(self, keys: Sequence, lhs: Sequence[float], rhs: Sequence[float],
                unlisted: int = 0) -> None:
        self._seen += len(lhs) + unlisted
        if not lhs:
            return
        self._widen(chain(lhs, rhs))
        for col, items in ((self._keys, keys), (self._lhs, lhs), (self._rhs, rhs),
                           (self._res, list(map(sub, lhs, rhs)))):
            # an array takes a list whole with fromlist, faster than extend
            (col.fromlist if type(col) is array and type(items) is list else col.extend)(items)
        if len(self._res) >= self._keep + self._keep // 2:
            self._cut()

    def _cut(self) -> None:
        """Keep the k largest residuals held, in recorded order, and set the
        floor to the k-th: those above it, then the first ones at it.  NaNs
        follow the numbers."""
        res, keep = self._res, self._keep
        numbers = sorted(compress(res, map(eq, res, res)), reverse=True)
        if len(numbers) >= keep:
            self._floor = floor = numbers[keep - 1]
            held = bytearray(map(gt, res, repeat(floor)))
            ties = compress(count(), map(eq, res, repeat(floor)))
            room = keep - numbers.index(floor)
        else:
            self._floor = None
            held = bytearray(map(eq, res, res))
            ties = compress(count(), map(ne, res, res))
            room = keep - len(numbers)
        for m in islice(ties, room):
            held[m] = 1
        self._keys, self._lhs, self._rhs, self._res = (
            array(col.typecode, compress(col, held)) if type(col) is array
            else list(compress(col, held))
            for col in (self._keys, self._lhs, self._rhs, res))

    def build(self, details: dict[str, Any] | None = None) -> CheckReport:
        details = dict(details or {})
        if len(self._res) > self._keep:
            self._cut()
        dropped = self._seen - max(MAX_RECORDED_VIOLATIONS, 1)
        if dropped > 0:
            details["violations_dropped"] = dropped
        return CheckReport(
            property_name=self.property_name,
            samples_tested=self.samples,
            violations=ViolationLog(self._keys, self._lhs, self._rhs, self._res, self._witness),
            max_margin=self.min_margin,
            verdict="fail" if self._seen else "pass",
            details=details,
            seen=self._seen,
        )
