"""The record types: ``repr``, ``==``, ``hash``, assignment, defaults and
validation of each one.

The expression nodes and tokens behave as named tuples.  Every other
record is equal only to an instance of its own class, never to a tuple or
to a record of another class that holds the same values.  A mutable
record (a check report, an iteration trace, a solve report) is unhashable,
and a frozen one refuses assignment with ``AttributeError``.  A few
fields, caches and derived callables, enter neither ``==`` nor ``repr``.
"""

from __future__ import annotations

import copy
import os
import pickle
import re
import subprocess
import sys
import textwrap
import weakref
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from couplefix.checks import DEFAULT_QUADRUPLE_BUDGET
from couplefix.controls import ControlClass, ControlFunction, make_linear
from couplefix.documents import CheckSettings, ProblemDocument
from couplefix.errors import ParameterError
from couplefix.expr import (
    Arm,
    BinOp,
    BoolOp,
    Call,
    Comparison,
    Neg,
    Number,
    Piecewise,
    Var,
    _Token,
    _tokenize,
    parse_expression,
)
from couplefix.metric import Interval, LabelSet, MetricSpace, Point, SamplePlan, SubsetSpec
from couplefix.problems import CoincidenceProblem, CouplingMap, SelfMap, StrongCoupledProblem
from couplefix.report import CheckReport, Violation
from couplefix.solve import IterationTrace, SolveOptions, SolveReport, SolveStatus, TraceStep


def coupling(x, y):
    return x


def self_map(x):
    return x


def inverse(target, subset, tol):
    return None


def distance(a, b):
    return abs(a - b)


def control(t):
    return t


def control_ratio(t):
    return t.as_integer_ratio()


X, ONE, HALF = Var("x"), Number(Fraction(1)), Number(Fraction(1, 2))
CMP = Comparison(X, "<=", HALF)
ARM = Arm(CMP, X)
UNIT = Interval(0.0, 1.0)
UNIT_TEXT = "Interval(lo=0.0, hi=1.0, lo_closed=True, hi_closed=True)"
SPACE = MetricSpace(UNIT, distance)
SUBSET = SubsetSpec(intervals=(UNIT,))
PROBLEM = StrongCoupledProblem(SPACE, SUBSET, SUBSET, CouplingMap(coupling, "x"),
                               make_linear(2), make_linear(3))
STARTS = ((Point(0.0), Point(1.0)),)
VIOLATION = Violation(("a",), 2.0, 1.0, 1.0)
STEP = TraceStep(0, 0.0, 1.0, None, None, 0.5, 0.5)
# built from module-level functions only, so that the problems pickle
MAP_F, MAP_T = CouplingMap(coupling, "x"), SelfMap(self_map)
PHI = ControlFunction(control, ControlClass.PHI, control_ratio)
ALTERING = ControlFunction(control, ControlClass.ALTERING, control_ratio)
HALF_POINT = SubsetSpec((0.5,))
PROBLEM_TEXT = (f"space={SPACE!r}, subset_a={SUBSET!r}, subset_b={SUBSET!r}, "
                f"coupling={MAP_F!r}")


class Case(NamedTuple):
    """A record built from ``args``, its ``repr``, the arguments of an
    unequal record of the same class, and one field of it."""

    cls: type
    args: tuple
    text: str
    other: tuple
    field: str

    def make(self):
        return self.cls(*self.args)

    def __str__(self):
        return self.cls.__name__


NODES = [
    Case(Number, (Fraction(1, 2),), "Number(value=Fraction(1, 2))", (Fraction(1),), "value"),
    Case(Var, ("x",), "Var(name='x')", ("y",), "name"),
    Case(Neg, (X,), "Neg(operand=Var(name='x'))", (ONE,), "operand"),
    Case(BinOp, ("+", X, ONE),
         "BinOp(op='+', left=Var(name='x'), right=Number(value=Fraction(1, 1)))",
         ("-", X, ONE), "op"),
    Case(Call, ("min", (X, ONE)),
         "Call(func='min', args=(Var(name='x'), Number(value=Fraction(1, 1))))",
         ("max", (X, ONE)), "args"),
    Case(Comparison, (X, "<=", HALF),
         "Comparison(left=Var(name='x'), op='<=', right=Number(value=Fraction(1, 2)))",
         (X, "<", HALF), "op"),
    Case(BoolOp, ("and", CMP, CMP), f"BoolOp(op='and', left={CMP!r}, right={CMP!r})",
         ("or", CMP, CMP), "left"),
    Case(Arm, (CMP, X), f"Arm(guard={CMP!r}, body=Var(name='x'))", (CMP, ONE), "body"),
    Case(Piecewise, ((ARM,), None), f"Piecewise(arms=({ARM!r},), otherwise=None)",
         ((ARM,), X), "otherwise"),
    Case(_Token, ("number", "1/2", 1, 5, Fraction(1, 2)),
         "_Token(kind='number', text='1/2', line=1, col=5, value=Fraction(1, 2))",
         ("number", "1/2", 1, 6, Fraction(1, 2)), "col"),
]

FROZEN = [
    Case(Point, (1.5,), "Point(value=1.5)", (2.5,), "value"),
    Case(Interval, (0.0, 1.0, False),
         "Interval(lo=0.0, hi=1.0, lo_closed=False, hi_closed=True)", (0.0, 1.0), "lo"),
    Case(LabelSet, (("a", "b"),), "LabelSet(labels=('a', 'b'))", (("b", "a"),), "labels"),
    Case(MetricSpace, (UNIT, distance), f"MetricSpace(carrier={UNIT_TEXT}, metric={distance!r})",
         (Interval(0.0, 2.0), distance), "metric"),
    Case(SubsetSpec, ((1.0, "a"),), "SubsetSpec(values=(1.0, 'a'), intervals=())",
         ((), (UNIT,)), "values"),
    Case(SamplePlan, (5, 2, 3), "SamplePlan(grid_count=5, jitter_count=2, seed=3)", (5, 2, 4),
         "seed"),
    Case(CouplingMap, (coupling, "x"), f"CouplingMap(fn={coupling!r}, source='x')",
         (coupling,), "source"),
    Case(SelfMap, (self_map, inverse, "x"),
         f"SelfMap(fn={self_map!r}, preimage_fn={inverse!r}, source='x')",
         (self_map, None, "x"), "fn"),
    Case(ControlFunction, (control, ControlClass.PHI),
         f"ControlFunction(fn={control!r}, declared_class=<ControlClass.PHI: 'phi'>)",
         (control,), "declared_class"),
    Case(ProblemDocument, ("p", PROBLEM, SolveOptions(), STARTS, CheckSettings()),
         f"ProblemDocument(name='p', problem={PROBLEM!r}, "
         "solve=SolveOptions(tol=1e-09, max_iter=10000, preimage_tol=1e-09), "
         "starts=((Point(value=0.0), Point(value=1.0)),), "
         "check=CheckSettings(plan=SamplePlan(grid_count=21, jitter_count=0, seed=0), "
         f"plan_b=None, tol=1e-09, budget={DEFAULT_QUADRUPLE_BUDGET}, range_b=None))",
         ("q", PROBLEM, SolveOptions(), STARTS, CheckSettings()), "name"),
    Case(SolveOptions, (), "SolveOptions(tol=1e-09, max_iter=10000, preimage_tol=1e-09)",
         (1e-09, 5), "max_iter"),
    Case(CoincidenceProblem, (SPACE, SUBSET, SUBSET, MAP_F, MAP_T, PHI),
         f"CoincidenceProblem({PROBLEM_TEXT}, self_map={MAP_T!r}, phi={PHI!r})",
         (SPACE, SUBSET, HALF_POINT, MAP_F, MAP_T, PHI), "phi"),
    Case(StrongCoupledProblem, (SPACE, SUBSET, SUBSET, MAP_F, ALTERING, ALTERING),
         f"StrongCoupledProblem({PROBLEM_TEXT}, phi={ALTERING!r}, psi={ALTERING!r})",
         (SPACE, HALF_POINT, SUBSET, MAP_F, ALTERING, ALTERING), "psi"),
    Case(CheckSettings, (SamplePlan(5), None, 0.5),
         "CheckSettings(plan=SamplePlan(grid_count=5, jitter_count=0, seed=0), plan_b=None, "
         f"tol=0.5, budget={DEFAULT_QUADRUPLE_BUDGET}, range_b=None)",
         (SamplePlan(5), SamplePlan(3), 0.5), "tol"),
]

MUTABLE = [
    Case(CheckReport, ("p", 3, [VIOLATION], -1.0, "fail", {"k": 1}, 5),
         "CheckReport(property_name='p', samples_tested=3, violations=[Violation(witness=('a',),"
         " lhs=2.0, rhs=1.0, residual=1.0)], max_margin=-1.0, verdict='fail', details={'k': 1})",
         ("p", 3, [VIOLATION], -1.0, "pass", {"k": 1}, 5), "verdict"),
    Case(IterationTrace, ("coincidence", [STEP]),
         "IterationTrace(kind='coincidence', steps=[TraceStep(n=0, x=0.0, y=1.0, tx=None, "
         "ty=None, d=0.5, r=0.5)])",
         ("strong_coupled", [STEP]), "kind"),
    Case(SolveReport, (SolveStatus.CONVERGED, STARTS[0], {"d": 0.0}, 3),
         "SolveReport(status=<SolveStatus.CONVERGED: 'Converged'>, candidate=(Point(value=0.0), "
         "Point(value=1.0)), residuals={'d': 0.0}, iterations_used=3, failure=None)",
         (SolveStatus.CONVERGED, STARTS[0], {"d": 0.0}, 4), "iterations_used"),
]

SLOTTED = FROZEN + MUTABLE


@pytest.mark.parametrize("case", NODES + SLOTTED, ids=str)
def test_repr(case):
    assert repr(case.make()) == case.text


@pytest.mark.parametrize("case", NODES + SLOTTED, ids=str)
def test_equal_values_are_equal_and_others_are_not(case):
    a, b, other = case.make(), case.make(), case.cls(*case.other)
    assert a == b and not a != b
    assert a != other and not a == other


@pytest.mark.parametrize("case", SLOTTED, ids=str)
def test_a_record_of_another_class_with_the_same_values_is_unequal(case):
    kin = type(case.cls.__name__, (case.cls,), {})
    a = case.make()
    assert a != kin(*case.args) and not a == kin(*case.args)
    assert a != tuple(case.args)


def test_records_with_the_same_fields_differ_by_class():
    assert SamplePlan(1, 2, 3) != SolveOptions(1, 2, 3)
    assert Point(("a",)) != LabelSet(("a",))
    assert CouplingMap(self_map, None) != SelfMap(self_map, None)


@pytest.mark.parametrize("case", NODES + FROZEN, ids=str)
def test_equal_frozen_records_hash_alike_and_refuse_assignment(case):
    a = case.make()
    assert hash(a) == hash(case.make())
    with pytest.raises(AttributeError):
        setattr(a, case.field, getattr(a, case.field))
    with pytest.raises(AttributeError):
        delattr(a, case.field)
    assert repr(a) == case.text


@pytest.mark.parametrize("case", MUTABLE, ids=str)
def test_mutable_records_are_unhashable_and_assignable(case):
    a = case.make()
    with pytest.raises(TypeError):
        hash(a)
    setattr(a, case.field, getattr(case.cls(*case.other), case.field))
    assert a == case.cls(*case.other)


@pytest.mark.parametrize("case", SLOTTED, ids=str)
def test_records_can_be_weakly_referenced(case):
    a = case.make()
    ref = weakref.ref(a)
    assert ref() is a
    del a
    assert ref() is None


@pytest.mark.parametrize("case", NODES + SLOTTED, ids=str)
def test_records_survive_copying_and_pickling(case):
    a = case.make()
    assert copy.copy(a) == a
    assert copy.deepcopy(a) == a
    if case.cls not in (ProblemDocument, ControlFunction):  # they hold local functions
        assert pickle.loads(pickle.dumps(a)) == a


def test_a_parsed_tree_is_its_nodes():
    tree = parse_expression("piecewise { x <= 1/2 and x <= 1/2 => min(x, 1) + -1; else => x }")
    call = Call("min", (X, ONE))
    body = BinOp("+", call, Neg(ONE))
    assert tree == Piecewise((Arm(BoolOp("and", CMP, CMP), body),), X)
    assert hash(tree) == hash(Piecewise((Arm(BoolOp("and", CMP, CMP), body),), X))
    assert repr(tree) == (
        f"Piecewise(arms=(Arm(guard=BoolOp(op='and', left={CMP!r}, right={CMP!r}), "
        f"body=BinOp(op='+', left={call!r}, right=Neg(operand={ONE!r}))),), "
        "otherwise=Var(name='x'))"
    )
    assert [repr(t) for t in _tokenize("x +1/2")] == [
        "_Token(kind='name', text='x', line=1, col=1, value=None)",
        "_Token(kind='+', text='+', line=1, col=3, value=None)",
        "_Token(kind='number', text='1/2', line=1, col=4, value=Fraction(1, 2))",
        "_Token(kind='end', text='', line=1, col=7, value=None)",
    ]


def test_nodes_match_positionally():
    match parse_expression("min(x, 1)"):
        case Call("min", (Var(name), Number(value))):
            assert (name, value) == ("x", 1)
        case _:
            pytest.fail("no match")


def test_slotted_records_match_positionally():
    match Interval(0.0, 1.0, False):
        case Interval(lo, hi, lo_closed, hi_closed):
            assert (lo, hi, lo_closed, hi_closed) == (0.0, 1.0, False, True)
        case _:
            pytest.fail("no match")


def test_defaults():
    assert _Token("end", "", 1, 1).value is None
    assert Interval(0.0, 1.0) == Interval(0.0, 1.0, True, True)
    assert SamplePlan() == SamplePlan(21, 0, 0)
    assert SubsetSpec((1.0,)).intervals == () and SubsetSpec(intervals=(UNIT,)).values == ()
    assert CouplingMap(coupling).source is None
    t = SelfMap(self_map)
    assert (t.preimage_fn, t.source) == (None, None)
    f = ControlFunction(control)
    assert f.declared_class is ControlClass.UNCLASSIFIED
    assert f.ratio(Fraction(3, 4)) == (3, 4)
    opts = SolveOptions()
    assert (opts.tol, opts.max_iter, opts.preimage_tol) == (1e-9, 10_000, 1e-9)
    report = CheckReport("p", 0, [], None, "pass")
    assert (report.details, report.violation_count) == ({}, 0)
    assert report.details is not CheckReport("p", 0, [], None, "pass").details
    trace = IterationTrace("coincidence")
    assert trace.steps == [] and trace.steps is not IterationTrace("coincidence").steps
    assert SolveReport(SolveStatus.CONVERGED, None, {}, 0).failure is None


def test_a_sample_plan_is_a_hashable_default():
    assert CheckSettings().plan == SamplePlan()
    assert hash(CheckSettings()) == hash(CheckSettings())


@pytest.mark.parametrize("build, message", [
    (lambda: Interval(0.0, float("inf")), "interval bounds must be finite"),
    (lambda: Interval(2.0, 1.0), "interval has lo > hi: [2.0, 1.0]"),
    (lambda: Interval(1.0, 1.0, False), "degenerate interval must be closed on both ends"),
    (lambda: LabelSet(()), "label carrier must be nonempty"),
    (lambda: LabelSet(("a", "a")), "labels must be distinct"),
    (lambda: SubsetSpec(), "subset must have either points or intervals, and be nonempty"),
    (lambda: SubsetSpec((1.0,), (UNIT,)),
     "subset must have either points or intervals, and be nonempty"),
    (lambda: SubsetSpec(intervals=(Interval(0.0, 2.0), UNIT)),
     "intervals must be sorted and pairwise disjoint: (0.0, 2.0) then (0.0, 1.0)"),
    (lambda: SamplePlan(0), "grid_count must be positive"),
    (lambda: SamplePlan(5, -1), "jitter_count must be nonnegative"),
    (lambda: SolveOptions(tol=0.0), "tol must be a positive finite float, got 0.0"),
    (lambda: SolveOptions(max_iter=0), "max_iter must be at least 1, got 0"),
    (lambda: SolveOptions(preimage_tol=float("nan")),
     "preimage_tol must be a positive finite float, got nan"),
])
def test_validation_messages(build, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        build()


def test_caches_and_derived_fields_enter_neither_equality_nor_repr():
    t, fresh = SelfMap(self_map, inverse, "x"), SelfMap(self_map, inverse, "x")
    assert t.image_table(SUBSET, SamplePlan(5)) == ((0.0, 0.25, 0.5, 0.75, 1.0),) * 2
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)

    f, g = ControlFunction(control, ControlClass.PHI), ControlFunction(control, ControlClass.PHI,
                                                                       lambda t: (0, 1))
    assert f.ratio is not g.ratio
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)

    counted, listed = MUTABLE[0].make(), CheckReport("p", 3, [VIOLATION], -1.0, "fail", {"k": 1})
    assert (counted.violation_count, listed.violation_count) == (5, 1)
    assert counted == listed and repr(counted) == repr(listed)


# ---------------------------------------------------------------------------
# start-up: what importing the package builds and loads


def fresh_interpreter(code: str) -> list[str]:
    """The output lines of ``code`` run by a new interpreter on this source tree."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         capture_output=True, text=True, env=env, check=True, timeout=60)
    return out.stdout.splitlines()


def test_only_the_classes_that_dataclasses_replace_takes_are_dataclasses():
    """Building a dataclass generates and compiles its methods at import,
    so no record is built as one.  The three classes that callers copy with
    changes through ``dataclasses.replace`` carry ``__dataclass_fields__``,
    and no other class does."""
    out = fresh_interpreter("""
        import dataclasses, sys
        import couplefix, couplefix.cli
        from couplefix.documents import registry_names

        docs = [couplefix.builtin_registry(name) for name in registry_names()]
        problems = [couplefix.build_problem(doc) for doc in docs]
        classes = {c for m in list(sys.modules.values()) if m.__name__.startswith("couplefix")
                   for c in vars(m).values()
                   if isinstance(c, type) and c.__module__ == m.__name__}
        print(len(classes), *sorted(c.__name__ for c in classes
                                    if "__dataclass_fields__" in vars(c)))
        print(*sorted({p.kind for p in problems}))
        for p in problems:
            assert dataclasses.replace(p) == p
            assert dataclasses.replace(p, phi=p.phi).phi is p.phi
        check = dataclasses.replace(docs[0].check, tol=0.5)
        assert (check.tol, check.plan) == (0.5, docs[0].check.plan)
        print("replaced")
    """)
    count, *dataclasses_ = out[0].split()
    assert int(count) > 30  # every class of every module was seen
    assert dataclasses_ == ["CheckSettings", "CoincidenceProblem", "StrongCoupledProblem"]
    assert out[1:] == ["coincidence strong_coupled", "replaced"]


def test_start_up_imports_no_dataclasses_yet_three_records_pass_for_dataclasses():
    """No command imports ``dataclasses`` (nor ``inspect``, which it brings
    in).  Imported later, it takes the three records for dataclasses with
    the fields, defaults and validation they had as ones."""
    out = fresh_interpreter("""
        import contextlib, io, sys
        import couplefix, couplefix.cli
        from couplefix.documents import CheckSettings, registry_names

        problems = [couplefix.build_problem(couplefix.builtin_registry(name))
                    for name in registry_names()]
        with contextlib.redirect_stdout(io.StringIO()):
            couplefix.cli.main(["check", "example-2.1.9", "--samples", "9"])
            couplefix.cli.main(["solve", "banach-linear"])
        print("dataclasses" in sys.modules, "inspect" in sys.modules)

        import dataclasses
        from couplefix.errors import DomainError
        from couplefix.metric import Interval, SubsetSpec

        kinds = {type(p): p for p in problems}
        for cls in (CheckSettings, *sorted(kinds, key=lambda c: c.__name__)):
            fields = [(f.name, "MISSING" if f.default is dataclasses.MISSING else f.default)
                      for f in dataclasses.fields(cls)]
            print(cls.__name__, dataclasses.is_dataclass(cls), fields)
        outside = SubsetSpec(intervals=(Interval(10.0, 11.0),))
        for cls, problem in sorted(kinds.items(), key=lambda item: item[0].__name__):
            try:
                dataclasses.replace(problem, subset_a=outside)
            except DomainError as exc:
                print(cls.__name__, exc)
    """)
    settings = [("plan", SamplePlan()), ("plan_b", None), ("tol", 1e-9), ("budget", 1_000_000),
                ("range_b", None)]
    coincidence = [(name, "MISSING") for name in
                   ("space", "subset_a", "subset_b", "coupling", "self_map", "phi")]
    strong = [(name, "MISSING") for name in
              ("space", "subset_a", "subset_b", "coupling", "phi", "psi")]
    assert out == [
        "False False",
        f"CheckSettings True {settings}",
        f"CoincidenceProblem True {coincidence}",
        f"StrongCoupledProblem True {strong}",
        "CoincidenceProblem subset A is not contained in the carrier",
        "StrongCoupledProblem subset A is not contained in the carrier",
    ]


def test_importing_the_package_leaves_the_checks_to_the_command_line():
    out = fresh_interpreter("""
        import sys
        import couplefix
        print("couplefix.checks" in sys.modules)
        import couplefix.cli
        print("couplefix.checks" in sys.modules)
    """)
    assert out == ["False", "True"]
