"""Control-function families and their sampled class checkers."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import control_oracle
from control_matrix import MATRIX
from couplefix.controls import (
    ControlClass,
    check_altering,
    check_phi_class,
    control_from_text,
    eval_control,
    expr_control,
    identity_control,
    make_capped_linear,
    make_linear,
    make_power,
)
from couplefix.errors import DomainError, ParameterError
from couplefix.expr import parse_expression
from couplefix.metric import SamplePlan

CAPPED = make_capped_linear(Fraction(2, 3), Fraction(47, 24))


def _tags(report):
    return {v.witness[0] for v in report.violations}


# --- evaluation -----------------------------------------------------------


def test_capped_linear_frozen_values():
    assert eval_control(CAPPED, 0.0) == 0.0
    assert eval_control(CAPPED, 1.0) == float(Fraction(2, 3))
    assert eval_control(CAPPED, 2.0) == float(Fraction(47, 24))
    assert eval_control(CAPPED, 3.0) == float(Fraction(47, 24))


def test_capped_linear_boundary_uses_linear_branch():
    f = make_capped_linear(Fraction(1, 2), 1)
    assert eval_control(f, 1.0) == 0.5


def test_power_and_identity_values():
    assert eval_control(make_power(2.0), 1.0) == 1.0
    assert eval_control(make_power(2.0), 3.0) == 9.0
    assert eval_control(make_power(0.5), 4.0) == 2.0
    assert eval_control(identity_control(), 1.0) == 1.0
    assert eval_control(identity_control(), 0.0) == 0.0


def test_linear_values():
    assert eval_control(make_linear(Fraction(1, 2)), 3.0) == 1.5
    assert eval_control(make_linear(0), 7.0) == 0.0
    assert eval_control(make_linear(2), 1.0) == 2.0


def test_expr_control_evaluates_ast():
    f = expr_control(parse_expression("t * t + 1/2"))
    assert eval_control(f, 2.0) == 4.5


def test_eval_rejects_negative_argument():
    for f in (CAPPED, make_power(2.0), identity_control(), make_linear(1)):
        with pytest.raises(DomainError):
            eval_control(f, -0.5)


def test_constructor_parameter_validation():
    for slope in (0, 1, -1, Fraction(5, 4)):
        with pytest.raises(ParameterError):
            make_capped_linear(slope, 1)
    for threshold in (0, -2):
        with pytest.raises(ParameterError):
            make_capped_linear(Fraction(1, 2), threshold)
    with pytest.raises(ParameterError):
        make_power(0)
    with pytest.raises(ParameterError):
        make_power(-1)
    with pytest.raises(ParameterError):
        make_linear(-1)


def test_expr_control_rejects_foreign_variables():
    with pytest.raises(ParameterError):
        expr_control(parse_expression("x + 1"))


def test_declared_classes():
    assert CAPPED.declared_class is ControlClass.PHI
    assert make_linear(Fraction(1, 2)).declared_class is ControlClass.PHI
    assert make_linear(0).declared_class is ControlClass.PHI
    assert make_linear(2).declared_class is ControlClass.ALTERING
    assert make_power(2.0).declared_class is ControlClass.ALTERING
    assert identity_control().declared_class is ControlClass.ALTERING
    assert expr_control(parse_expression("t")).declared_class is ControlClass.UNCLASSIFIED
    declared = expr_control(parse_expression("t"), ControlClass.ALTERING)
    assert declared.declared_class is ControlClass.ALTERING


# --- comparison-class checker ---------------------------------------------


def test_phi_check_passes_capped_linear_instance():
    report = check_phi_class(CAPPED, 2 * float(Fraction(47, 24)))
    assert report.passed
    assert report.samples_tested > 0
    assert report.max_margin is not None and report.max_margin >= 0


def test_phi_check_identity_fails_strict_inequality():
    report = check_phi_class(identity_control(), 2.0)
    assert not report.passed
    assert "below_identity" in _tags(report)
    hits = [v for v in report.violations if v.witness[0] == "below_identity"]
    assert all(v.lhs == v.rhs and v.rhs > 0 for v in hits)


def test_phi_check_doubling_fails_at_one():
    report = check_phi_class(make_linear(2), 4.0)
    assert not report.passed
    assert any(
        v.witness == ("below_identity", 1.0) and v.lhs == 2.0 and v.rhs == 1.0
        for v in report.violations
    )


def test_phi_check_flags_non_monotone_function():
    f = expr_control(parse_expression("1 - t"))
    report = check_phi_class(f, 0.9)
    assert not report.passed
    assert "monotone" in _tags(report)
    assert "below_identity" in _tags(report)


def test_phi_check_rejects_bad_range():
    with pytest.raises(ParameterError):
        check_phi_class(CAPPED, 0.0)


# --- altering-distance checker --------------------------------------------


def test_altering_check_passes_identity_and_square():
    assert check_altering(identity_control(), 2.0).passed
    assert check_altering(make_power(2.0), 2.0).passed


def test_altering_check_step_fails_positivity_and_continuity():
    step = expr_control(parse_expression("piecewise { t < 1 => 0 ; else => 1 ; }"))
    report = check_altering(step, 2.0)
    assert not report.passed
    assert {"positive", "continuity"} <= _tags(report)
    assert any(v.witness == ("positive", 0.5) for v in report.violations)
    assert any(v.witness == ("continuity", 1.0, "left") for v in report.violations)


def test_altering_check_capped_linear_fails_at_cap():
    report = check_altering(make_capped_linear(Fraction(1, 2), 1), 2.0)
    assert not report.passed
    assert "continuity" in _tags(report)


def test_altering_check_flags_nonzero_origin():
    f = expr_control(parse_expression("t + 1"))
    report = check_altering(f, 2.0)
    assert not report.passed
    assert "zero_at_zero" in _tags(report)


def test_checker_determinism_with_jitter():
    plan = SamplePlan(grid_count=15, jitter_count=8, seed=123)
    a = check_phi_class(CAPPED, 3.0, plan)
    b = check_phi_class(CAPPED, 3.0, plan)
    assert a.to_dict() == b.to_dict()
    c = check_altering(make_power(2.0), 3.0, plan)
    d = check_altering(make_power(2.0), 3.0, plan)
    assert c.to_dict() == d.to_dict()


# --- ground-truth matrix ----------------------------------------------------


@pytest.mark.parametrize(
    "label,func,t_max,expect_phi,expect_altering",
    MATRIX,
    ids=[row[0] for row in MATRIX],
)
def test_matrix_verdicts(label, func, t_max, expect_phi, expect_altering):
    assert check_phi_class(func, t_max).passed is expect_phi
    assert check_altering(func, t_max).passed is expect_altering


# --- class invariants under arbitrary grids ---------------------------------


@settings(max_examples=150, deadline=None)
@given(
    slope=st.floats(0.01, 0.99),
    threshold=st.fractions(min_value=Fraction(1, 20), max_value=20, max_denominator=24),
    scale=st.floats(0.1, 9.9),
    grid_count=st.integers(2, 40),
    jitter_count=st.integers(0, 5),
    seed=st.integers(0, 10_000),
)
def test_capped_linear_always_passes_phi_check(
    slope, threshold, scale, grid_count, jitter_count, seed
):
    f = make_capped_linear(slope, threshold)
    t_max = float(threshold) * scale
    plan = SamplePlan(grid_count=grid_count, jitter_count=jitter_count, seed=seed)
    assert check_phi_class(f, t_max, plan).passed


@settings(max_examples=150, deadline=None)
@given(
    exponent=st.floats(1.0, 6.0),
    t_max=st.floats(0.01, 60.0),
    grid_count=st.integers(2, 40),
    jitter_count=st.integers(0, 5),
    seed=st.integers(0, 10_000),
)
def test_power_always_passes_altering_check(exponent, t_max, grid_count, jitter_count, seed):
    plan = SamplePlan(grid_count=grid_count, jitter_count=jitter_count, seed=seed)
    assert check_altering(make_power(exponent), t_max, plan).passed


def test_control_functions_are_exact_callables():
    third = Fraction(1, 3)
    assert make_linear(Fraction(1, 2)).fn(third) == Fraction(1, 6)
    assert CAPPED.fn(1.0) == Fraction(2, 3)
    assert CAPPED.fn(2.0) == Fraction(47, 24)
    assert identity_control().fn is Fraction
    assert expr_control(parse_expression("t / 3")).fn(1.0) == third
    assert make_power(2).fn(3.0) == 9.0
    with pytest.raises(DomainError):
        make_power(2).fn(1e300)
    assert eval_control(make_linear(Fraction(1, 2)), third) == float(Fraction(1, 6))


# --- the integer-ratio path against the Fraction oracle ----------------------

_RATIONALS = st.fractions(min_value=0, max_value=8, max_denominator=10**6)
_HUGE = st.sampled_from([Fraction(1e300), Fraction(1e308), Fraction(10**400)])


def _literal(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


@st.composite
def _controls(draw):
    """A control of one of the five families, a reference function of it
    for the oracle, and its interesting t: the cap threshold of a capped or
    piecewise function, else 1."""
    family = draw(st.sampled_from(["linear", "capped_linear", "power", "identity", "expr"]))
    if family == "linear":
        k = Fraction(draw(st.one_of(_RATIONALS, st.floats(0, 1e308), _HUGE)))
        return make_linear(k), lambda t: k * Fraction(t), 1.0
    if family == "capped_linear":
        k = draw(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(999_999, 10**6),
                              max_denominator=10**6))
        c = Fraction(draw(st.one_of(_RATIONALS.filter(bool), st.floats(5e-324, 1e300))))
        return make_capped_linear(k, c), lambda t: k * Fraction(t) if t <= c else c, float(c)
    if family == "power":
        f = make_power(draw(st.floats(0.05, 400)))
    elif family == "identity":
        f = identity_control()
    else:
        k, c = draw(_RATIONALS), draw(_RATIONALS.filter(bool))
        f = control_from_text(draw(st.sampled_from([
            f"t * {_literal(k)}",
            f"piecewise {{ t <= {_literal(c)} => {_literal(k)} * t ; else => {_literal(c)} ; }}",
            f"min(t, {_literal(c)}) * {_literal(k)} + abs(t - {_literal(c)}) / 3",
            "t * 1" + "0" * 400,
        ])))
        return f, f.fn, float(c)
    return f, f.fn, 1.0


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the class and message it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def _arguments(near: float):
    return st.one_of(
        st.sampled_from([0.0, 5e-324, 1e300, math.nextafter(1e300, 0), math.nextafter(1e300, 1e308),
                         1.7976931348623157e308, -0.5, math.inf, math.nan]),
        st.sampled_from([near, math.nextafter(near, 0), math.nextafter(near, math.inf)]),
        st.floats(0, 1e300),
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_eval_control_matches_fraction_oracle(data):
    f, fn, near = data.draw(_controls())
    t = data.draw(_arguments(near))
    got, want = _outcome(eval_control, f, t), _outcome(control_oracle.eval_control, fn, t)
    assert repr(got) == repr(want)


@settings(max_examples=300, deadline=None)
@given(
    control=_controls(),
    scale=st.one_of(st.sampled_from([1.0, 2.0]), st.floats(1e-300, 100)),
    grid_count=st.integers(2, 25),
    jitter_count=st.integers(0, 3),
    seed=st.integers(0, 10_000),
    tol=st.sampled_from([0.0, 1e-9, 1e-3]),
)
# below the identity, f(1) = 2/3 leaves the margin 1 - float(2/3), which is
# not the exact 1/3 rounded
@example(control=(make_linear(Fraction(2, 3)), lambda t: Fraction(2, 3) * Fraction(t), 1.0),
         scale=1.0, grid_count=2, jitter_count=0, seed=0, tol=1e-9)
# 1e308 * t lies beyond the float range from t = 2 on
@example(control=(make_linear(1e308), lambda t: Fraction(1e308) * Fraction(t), 1.0),
         scale=4.0, grid_count=3, jitter_count=0, seed=0, tol=1e-9)
def test_class_checks_match_fraction_oracle(control, scale, grid_count, jitter_count, seed, tol):
    """The grid runs up to ``scale`` times the control's interesting t."""
    f, fn, near = control
    t_max = scale * near
    if not 0 < t_max < math.inf:
        t_max = 1e300
    plan = SamplePlan(grid_count=grid_count, jitter_count=jitter_count, seed=seed)
    for check, oracle in ((check_phi_class, control_oracle.check_phi_class),
                          (check_altering, control_oracle.check_altering)):
        got, want = _outcome(check, f, t_max, plan, tol), _outcome(oracle, fn, t_max, plan, tol)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.to_dict() == want.to_dict()
