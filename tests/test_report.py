"""The violation log against the list of ``Violation`` it stands for.

``CheckReport.violations`` is a ``ViolationLog``: columns of keys, lhs, rhs
and residuals that build each ``Violation`` as it is read.  Everything a
reader can do with the list (length, indexing, slicing, iteration, ``==``,
``repr``) must give what the list gives, and the worst violations that
``to_dict(keep)`` and the command line read from the residual column must
be those ``heapq.nlargest`` picks from the list.  A ``ReportBuilder`` lists
the k largest of every violation it saw (``k_largest``).
"""

from __future__ import annotations

import heapq
import json
import math
import pickle
from array import array
from operator import attrgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from couplefix import report
from couplefix.checks import check_phi_psi_contraction
from couplefix.cli import MAX_JSON_VIOLATIONS, main
from couplefix.documents import build_problem, builtin_registry
from couplefix.metric import SamplePlan
from couplefix.report import CheckReport, ReportBuilder, Violation, ViolationLog

VALUES = st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0, math.inf, -math.inf, 0.1 + 0.2])
BATCHES = st.lists(st.lists(st.tuples(VALUES, VALUES), max_size=6), max_size=6)


def k_largest(violations: list, k: int) -> list:
    """The k largest residuals of a complete list of violations, in scan
    order: equal residuals rank in scan order, and a NaN below every
    number."""
    def rank(m: int) -> tuple:
        r = violations[m].residual
        return (r == r, r if r == r else 0.0)

    ranked = sorted(range(len(violations)), key=rank, reverse=True)  # stable, reversed too
    return [violations[m] for m in sorted(ranked[:k])]


def _recorded(batches, keyed: bool) -> CheckReport:
    """A report of every (lhs, rhs) as a violation, its witness ("w", b, k)
    stored as itself or built from an integer key."""
    witness = (lambda key: ("w", *divmod(key, 100))) if keyed else None
    rb = ReportBuilder("log", 0.0, witness)
    for b, batch in enumerate(batches):
        keys = [100 * b + k if keyed else ("w", b, k) for k in range(len(batch))]
        rb.add_violations(keys, [lhs for lhs, _ in batch], [rhs for _, rhs in batch])
    return rb.build()


@given(batches=BATCHES, keyed=st.booleans(), cap=st.sampled_from([None, 0, 1, 3]))
@settings(max_examples=200, deadline=None)
def test_log_reads_like_the_list_it_stands_for(batches, keyed, cap):
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(report, "MAX_RECORDED_VIOLATIONS", cap)
        log = _recorded(batches, keyed).violations
    plain = list(log)
    assert all(type(v) is Violation for v in plain)
    assert repr(log) == repr(plain)
    assert len(log) == len(plain)
    assert bool(log) == bool(plain)
    if not any(v.residual != v.residual for v in plain):  # NaN != NaN, in a list too
        assert log == plain and plain == log and log == log[:]
    assert log != plain + [Violation(("other",), 0.0, 0.0, 0.0)]
    assert repr([log[k] for k in range(-len(log), len(log))]) == repr(plain + plain)
    for cut in (slice(None), slice(-3, None), slice(None, None, 2), slice(5, 1, -1)):
        assert repr(log[cut]) == repr(plain[cut])
    with pytest.raises(IndexError):
        log[len(log)]


def test_a_list_passed_to_a_report_becomes_a_log_of_the_same_violations():
    listed = [Violation(("a",), 2.0, 1.0, 1.0), Violation(("b",), 1, 0, 1)]
    got = CheckReport("direct", 2, listed, -1.0, "fail")
    assert isinstance(got.violations, ViolationLog)
    assert got.violations == listed
    assert repr(got) == repr(CheckReport("direct", 2, ViolationLog.of(listed), -1.0, "fail"))
    assert CheckReport("empty", 0, [], None, "pass").violations == []


def test_a_failing_contraction_report_survives_pickling():
    problem = build_problem(builtin_registry("negative-midpoint"))
    got = check_phi_psi_contraction(problem, SamplePlan(9), 1e-9)
    assert got.violations
    assert repr(pickle.loads(pickle.dumps(got))) == repr(got)


def test_values_that_are_not_floats_keep_their_type():
    rb = ReportBuilder("ints", 0.0)
    rb.add_violations([("a",), ("b",)], [1.5, 2.0], [0.0, 1.0])
    rb.add_violation(("c",), 3, 1)
    got = rb.build().violations
    assert repr(got) == repr([Violation(("a",), 1.5, 0.0, 1.5), Violation(("b",), 2.0, 1.0, 1.0),
                              Violation(("c",), 3, 1, 2)])
    assert type(got[-1].lhs) is int


@given(batches=BATCHES, keyed=st.booleans(), cap=st.sampled_from([None, 1, 3]),
       keep=st.sampled_from([0, 1, 2, 5]))
# ties at the largest residual, and a NaN residual (inf - inf) first
@example(batches=[[(2.0, 1.0), (1.0, 0.0), (2.0, 1.0)]], keyed=False, cap=None, keep=2)
@example(batches=[[(math.inf, math.inf), (1.0, 0.0), (2.0, 0.0)]], keyed=True, cap=None, keep=2)
@settings(max_examples=200, deadline=None)
def test_worst_violations_match_nlargest_on_the_list(batches, keyed, cap, keep):
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(report, "MAX_RECORDED_VIOLATIONS", cap)
        got = _recorded(batches, keyed)
    plain = list(got.violations)
    assert got.violation_count == sum(map(len, batches))
    want = heapq.nlargest(keep, plain, key=attrgetter("residual"))
    assert repr(got.to_dict(keep)["violations"]) == repr([v.to_dict() for v in want])
    if plain:
        assert repr(got.violations.largest(1)) == repr([max(plain, key=attrgetter("residual"))])


def _check_negative_midpoint(tmp_path, capsys, name: str) -> tuple[dict, list[str]]:
    path = tmp_path / f"{name}.json"
    assert main(["check", "negative-midpoint", "--json", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    checks = {c["slot"]: c for c in json.loads(path.read_text())["checks"]}
    return checks["contraction"], out


def test_truncated_log_reports_the_same_count_and_worst_violation(tmp_path, capsys):
    full, full_out = _check_negative_midpoint(tmp_path, capsys, "full")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "MAX_RECORDED_VIOLATIONS", 10)
        capped, capped_out = _check_negative_midpoint(tmp_path, capsys, "capped")
    count = full["violation_count"]
    assert count > 10
    assert "violations_dropped" not in full["details"]
    assert capped["violation_count"] == count
    assert capped["details"]["violations_dropped"] == count - 10
    worst = [line for line in full_out if line.lstrip().startswith("worst:")]
    assert len(worst) == 1
    assert worst == [line for line in capped_out if line.lstrip().startswith("worst:")]
    assert capped["violations"][0] == full["violations"][0]
    assert len(full["violations"]) == MAX_JSON_VIOLATIONS


# the residuals whose order is hard to get right: ties, signed zeros,
# infinities, NaN and ints beside floats
ODD_VALUES = [0.0, -0.0, 0.5, 1, 1.0, 2.0, -1.0, math.inf, -math.inf, math.nan, 0.1 + 0.2]


@given(
    pool=st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.0, math.inf, -math.inf,
                                   0.1 + 0.2, math.nan]), min_size=1, max_size=6),
    picks=st.lists(st.integers(0, 5), max_size=700),
    keep=st.sampled_from([0, 1, 2, 5, 40]),
    column=st.sampled_from(["array", "list"]),
)
@example(pool=[1.0, 0.5], picks=[1] * 600 + [0], keep=5, column="array")  # 600 ties at the threshold
@example(pool=[0.0, -0.0, 1.0], picks=[0, 1, 2] * 200, keep=5, column="array")
@example(pool=[math.nan, 1.0, 2.0], picks=[1, 0, 2] * 100, keep=5, column="array")
@settings(max_examples=150, deadline=None)
def test_largest_matches_nlargest_on_the_residual_column(pool, picks, keep, column):
    res = [pool[k % len(pool)] for k in picks]
    col = array("d", res) if column == "array" else res
    log = ViolationLog(list(range(len(res))), res, res, col)
    want = heapq.nlargest(keep, range(len(res)), key=col.__getitem__)
    assert [v.witness for v in log.largest(keep)] == want


# residuals without a NaN, as the contraction kernel's are, and with the
# NaN of inf - inf
BUILDER_LHS = st.sampled_from(ODD_VALUES[:-2] + [3])
BUILDER_RHS = st.sampled_from([0.0, 0.5, 1, math.inf])
BUILDER_BATCHES = st.lists(st.lists(st.tuples(BUILDER_LHS, BUILDER_RHS), max_size=6), max_size=8)


def _complete(batches) -> list[Violation]:
    """Every violation of the batches, witnesses ("w", b, k), in scan order."""
    return [Violation(("w", b, k), lhs, rhs, lhs - rhs)
            for b, batch in enumerate(batches) for k, (lhs, rhs) in enumerate(batch)]


@given(batches=BUILDER_BATCHES, cap=st.sampled_from([0, 1, 3, 7]))
@example(batches=[[(1.0, 0.0)], [(2.0, 0.0), (3, 0.0)], [(3.0, 1)]], cap=1)
@example(batches=[[(2.0, 0.0)], [(1.0, 0.0), (2.0, 0.0)]], cap=1)  # a tie with the worst
@settings(max_examples=200, deadline=None)
def test_counting_past_a_full_log_matches_recording(batches, cap):
    """Batches recorded while fewer than the cap are held and then handed
    over as a count, with only the violations above the floor listed
    (every one, for even batches), build the report that recording every
    batch builds, and it lists the cap's largest of every violation."""

    def built(counting: bool) -> CheckReport:
        rb = ReportBuilder("count", 0.0)
        for b, batch in enumerate(batches):
            _feed(rb, b, batch, rb.counting_floor() if counting and b % 2 else None)
        return rb.build()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "MAX_RECORDED_VIOLATIONS", cap)
        want, got = built(False), built(True)
    assert repr(got) == repr(want)
    assert repr(list(got.violations)) == repr(k_largest(_complete(batches), max(cap, 1)))
    assert got.violation_count == sum(map(len, batches))


def _feed(rb: ReportBuilder, b: int, batch: list, floor) -> None:
    """Batch ``b`` of (lhs, rhs) violations, witnesses ("w", b, k), listed
    whole when ``floor`` is None, else only those not at most the floor."""
    res = [lhs - rhs for lhs, rhs in batch]
    listed = [k for k, r in enumerate(res) if floor is None or not r <= floor]
    rb.add_violations([("w", b, k) for k in listed], [batch[k][0] for k in listed],
                      [batch[k][1] for k in listed], len(batch) - len(listed))


@given(batches=BUILDER_BATCHES,
       cap=st.sampled_from([0, 1, 3, 7, 100]),
       keep=st.sampled_from([1, 2, 5, 9]),
       counting=st.booleans(),
       single=st.booleans())
# the worst violation comes past the cap
@example(batches=[[(1.0, 0.0), (2.0, 0.0)], [(0.5, 0.0)], [(3, 0.0), (3.0, 0.5)]], cap=3,
         keep=2, counting=True, single=False)
# ties at the k-th residual keep recorded order, and at the worst past the cap
@example(batches=[[(1.0, 0.0)] * 3, [(2.0, 1.0), (2.0, 0.0)], [(2.0, 0.0)]], cap=3, keep=2,
         counting=True, single=False)
# a NaN residual (add_violation with lhs = rhs = inf) ranks below every number
@example(batches=[[(math.inf, math.inf), (1.0, 0.0)], [(2.0, 0.0), (math.inf, math.inf)],
                  [(0.5, 0.0)]], cap=3, keep=2, counting=True, single=True)
@example(batches=[[(math.inf, math.inf)], [(1.0, 0.0), (math.inf, math.inf)]], cap=3, keep=2,
         counting=False, single=True)
@settings(max_examples=300, deadline=None)
def test_keep_mode_lists_what_the_full_log_lists(batches, cap, keep, counting, single):
    """A builder that holds only ``keep`` violations, fed as a checker
    feeds it (above ``counting_floor()`` listed, the rest counted) or one
    ``add_violation`` at a time (``single``), lists the ``keep`` largest of
    every violation in scan order, with the exact count; without a NaN that
    is what ``to_dict(keep=keep)`` of the complete list lists."""
    complete = _complete(batches)

    def built(held) -> CheckReport:
        rb = ReportBuilder("keep", 0.0, keep=held)
        for b, batch in enumerate(batches):
            if single:
                for k, (lhs, rhs) in enumerate(batch):
                    rb.add_violation(("w", b, k), lhs, rhs)
            else:
                _feed(rb, b, batch, rb.counting_floor() if counting else None)
        return rb.build()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "MAX_RECORDED_VIOLATIONS", cap)
        kept = built(keep)
    assert repr(list(kept.violations)) == repr(k_largest(complete, keep))
    assert kept.violation_count == kept.seen == len(complete)
    assert kept.verdict == ("fail" if complete else "pass")
    dropped = len(complete) - max(cap, 1)
    assert kept.details == ({"violations_dropped": dropped} if dropped > 0 else {})
    if not any(v.residual != v.residual for v in complete):
        full = ViolationLog.of(complete)
        assert repr(kept.violations.largest(keep)) == repr(full.largest(keep))
        assert repr(kept.violations.largest(1)) == repr(full.largest(1))
