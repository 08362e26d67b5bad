"""Expression language: parsing, evaluation, pretty-printing."""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import couplefix.expr
from couplefix.errors import DomainError, ExprEvalError, ExprSyntaxError
from couplefix.expr import (
    MAX_NESTING,
    Arm,
    BinOp,
    BoolOp,
    Call,
    Comparison,
    Neg,
    Number,
    Piecewise,
    Var,
    bind_exact,
    bind_function,
    format_expression,
    parse_expression,
)
from couplefix.controls import make_linear
from couplefix.metric import Interval, MetricSpace, SamplePlan, SubsetSpec
from couplefix.problems import CoincidenceProblem, CouplingMap, SelfMap
from couplefix.solve import brute_force_search
from expr_oracle import eval_expression, eval_numeric

MIN_XY = "min(x, y)"
F_PIECEWISE = "piecewise { 0 <= x and x <= 2 and 0 <= y and y <= 2 => 2 ; else => (x + y)/24 ; }"
T_PIECEWISE = "piecewise { 0 <= x and x <= 2 => 2 ; x > 2 => 4 ; }"
PHI_CAPPED = "piecewise { t <= 47/24 => 2/3 * t ; else => 47/24 ; }"


# ---------------------------------------------------------------------------
# parsing


def test_parse_min_call():
    ast = parse_expression("min(x,y)")
    assert ast == Call("min", (Var("x"), Var("y")))


def test_parse_two_arm_piecewise_with_else():
    ast = parse_expression("piecewise { 0 <= x and x <= 2 => 2; else => 4 }")
    assert isinstance(ast, Piecewise)
    assert len(ast.arms) == 1
    assert ast.otherwise == Number(Fraction(4))
    guard = ast.arms[0].guard
    assert isinstance(guard, BoolOp) and guard.op == "and"


def test_final_arm_may_omit_its_semicolon():
    text = "piecewise { x < 1 => 2 ; x >= 1 => 3 }"
    assert parse_expression(text) == parse_expression(text.replace("3 }", "3 ; }"))


def test_parse_error_unbalanced_call():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("min(x")
    assert err.value.line == 1
    assert set(err.value.expected) >= {")", ","}


def test_parse_error_reports_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("x +\n* 2")
    assert err.value.line == 2
    assert err.value.column == 1


@pytest.mark.parametrize("text, message, line, column", [
    ("(x", "unexpected end of input at line 1, column 3 (expected ))", 1, 3),
    ("min x", "unexpected 'x' at line 1, column 5 (expected ()", 1, 5),
    ("piecewise { x < 1 => 2 x }",
     "unexpected 'x' after piecewise arm at line 1, column 24 (expected ;, })", 1, 24),
    ("piecewise { x < 1 => 2", "unexpected end of input at line 1, column 23 (expected ;, })",
     1, 23),
    ("piecewise { else => 1 }", "piecewise needs at least one guarded arm at line 1, column 1",
     1, 1),
    ("piecewise { x => 1 ; }",
     "expected comparison, got '=>' at line 1, column 15 (expected <=, <, >=, >, ==)", 1, 15),
    ("x + and", "unexpected keyword 'and' at line 1, column 5 "
     "(expected number, identifier, function call, (, -)", 1, 5),
    ("x y", "unexpected trailing input 'y' at line 1, column 3 (expected end of input)", 1, 3),
    ("1..2", "bad numeric literal near '..2' at line 1, column 2", 1, 2),
    # a letter outside ASCII, and a digit that no number matches
    ("x + é", "unexpected character 'é' at line 1, column 5", 1, 5),
    ("x +\n 2²", "bad numeric literal near '²' at line 2, column 3", 2, 3),
])
def test_parse_error_message_and_position(text, message, line, column):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression(text)
    assert (str(err.value), err.value.line, err.value.column) == (message, line, column)


def test_unknown_identifier_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expression("z + 1")
    with pytest.raises(ExprSyntaxError):
        parse_expression("foo(x)")


def test_arity_errors():
    with pytest.raises(ExprSyntaxError):
        parse_expression("abs(x, y)")
    with pytest.raises(ExprSyntaxError):
        parse_expression("min(x)")


def test_empty_text_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expression("   ")


def test_rational_literal_is_a_single_number():
    ast = parse_expression("47/24")
    assert ast == Number(Fraction(47, 24))


def test_spaced_division_stays_a_binop():
    ast = parse_expression("47 / 24")
    assert ast == BinOp("/", Number(Fraction(47)), Number(Fraction(24)))


def test_zero_denominator_literal_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("x + 1/0")
    assert err.value.column == 5


@pytest.mark.parametrize("literal", ["9" * 4301, "1." + "0" * 4301, "1/" + "3" * 4301])
def test_literal_longer_than_int_reads_is_a_syntax_error(literal):
    # int() reads at most sys.get_int_max_str_digits() (4300) digits from text
    with pytest.raises(ExprSyntaxError, match="numeric literal has too many digits") as err:
        parse_expression("x + " + literal)
    assert err.value.column == 5
    assert parse_expression("9" * 4300) == Number(Fraction("9" * 4300))


def test_decimal_literal_is_exact():
    assert parse_expression("0.1") == Number(Fraction(1, 10))


def test_precedence_and_unary_minus():
    assert parse_expression("2*x + y") == BinOp(
        "+", BinOp("*", Number(Fraction(2)), Var("x")), Var("y")
    )
    assert parse_expression("-x * y") == BinOp("*", Neg(Var("x")), Var("y"))
    assert parse_expression("2*(x + y)") == BinOp(
        "*", Number(Fraction(2)), BinOp("+", Var("x"), Var("y"))
    )


def test_piecewise_only_at_top_level():
    with pytest.raises(ExprSyntaxError):
        parse_expression("1 + piecewise { x > 0 => 1 ; }")


def test_nesting_cap_rejects_deep_parentheses_at_the_offending_token():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("(" * 600 + "x" + ")" * 600)
    assert (err.value.line, err.value.column) == (1, MAX_NESTING + 1)


@pytest.mark.parametrize(
    "wrap",
    [lambda e: f"({e})", lambda e: f"-{e}", lambda e: f"abs({e})", lambda e: f"min({e}, 1)"],
)
def test_nesting_cap_counts_parentheses_calls_and_unary_minus(wrap):
    text = "x"
    for _ in range(MAX_NESTING):
        text = wrap(text)
    free = []
    bind_function(parse_expression(text), ("x",), free.append)
    assert free == [{"x"}]
    with pytest.raises(ExprSyntaxError):
        parse_expression(wrap(text))


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_operator_chains_count_toward_the_nesting_cap(op):
    text = "x" + f" {op} x" * MAX_NESTING
    assert parse_expression(format_expression(parse_expression(text))) == parse_expression(text)
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("x" + f" {op} x" * 1199)
    # the operator that makes the tree one level too deep
    assert (err.value.line, err.value.column) == (1, 4 * MAX_NESTING + 3)


@pytest.mark.parametrize("op", ["and", "or"])
def test_guard_chains_count_toward_the_nesting_cap(op):
    guard = f" {op} ".join(["x < 1"] * 1200)
    with pytest.raises(ExprSyntaxError, match="nests deeper"):
        parse_expression(f"piecewise {{ {guard} => 1 ; }}")


def test_chains_inside_chains_count_toward_the_nesting_cap():
    # each level nests 1 parenthesis and adds 40 operators to the tree
    text = "x"
    for _ in range(40):
        text = "(" + text + " + x" * 40 + ")"
    with pytest.raises(ExprSyntaxError, match="nests deeper"):
        parse_expression(text)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_elsewhere_branch():
    # at x=1, y=3 the boxed guard fails, so (1+3)/24 = 1/6
    ast = parse_expression(F_PIECEWISE)
    assert eval_expression(ast, {"x": 1.0, "y": 3.0}) == pytest.approx(1 / 6, abs=1e-15)
    assert eval_expression(ast, {"x": 1.0, "y": 1.0}) == 2.0


def test_eval_capped_control_at_two():
    ast = parse_expression(PHI_CAPPED)
    assert eval_expression(ast, {"t": 2.0}) == pytest.approx(float(Fraction(47, 24)), abs=1e-16)
    assert eval_expression(ast, {"t": 1.0}) == pytest.approx(2 / 3, abs=1e-15)


def test_eval_square():
    ast = parse_expression("t*t")
    assert eval_expression(ast, {"t": 1.0}) == 1.0
    assert eval_expression(ast, {"t": 3.0}) == 9.0


def test_eval_unbound_variable():
    ast = parse_expression("x + t")
    with pytest.raises(ExprEvalError):
        eval_expression(ast, {"x": 1.0})


def test_eval_division_by_zero():
    ast = parse_expression("1 / (x - x)")
    with pytest.raises(ExprEvalError):
        eval_expression(ast, {"x": 3.0})


def test_eval_no_arm_fires():
    ast = parse_expression("piecewise { x < 0 => 1 ; }")
    with pytest.raises(ExprEvalError):
        eval_expression(ast, {"x": 1.0})


def test_piecewise_first_match_wins():
    ast = parse_expression("piecewise { x <= 2 => 1 ; x <= 4 => 2 ; }")
    assert eval_expression(ast, {"x": 2.0}) == 1.0
    assert eval_expression(ast, {"x": 3.0}) == 2.0


def test_guard_or_chain():
    ast = parse_expression("piecewise { x < 0 or x > 1 => 0 ; else => x ; }")
    assert eval_expression(ast, {"x": 2.0}) == 0.0
    assert eval_expression(ast, {"x": 0.5}) == 0.5


def test_bind_function_checks_arity():
    f = bind_function(parse_expression(MIN_XY), ("x", "y"))
    assert f(2.0, 5.0) == 2.0
    with pytest.raises(ExprEvalError):
        bind_function(parse_expression("x + y"), ("t",))


# ---------------------------------------------------------------------------
# pretty-printing round trips


@pytest.mark.parametrize(
    "text",
    [
        MIN_XY,
        F_PIECEWISE,
        T_PIECEWISE,
        PHI_CAPPED,
        "t*t",
        "1 / (x - x)",
        "-x * y - 2",
        "abs(x - y) + max(x, y, 1/2)",
        "2*(x + y)",
        "x - (y - 1)",
        "piecewise { x < 0 or x > 1 => 0 ; else => x ; }",
    ],
)
def test_round_trip_examples(text):
    ast = parse_expression(text)
    assert parse_expression(format_expression(ast)) == ast


# hypothesis strategy over grammatically expressible ASTs

_numbers = st.fractions(min_value=0, max_value=100, max_denominator=50).map(Number)
_vars = st.sampled_from(["x", "y", "t"]).map(Var)


def _arith(depth):
    if depth <= 0:
        return st.one_of(_numbers, _vars)
    sub = _arith(depth - 1)
    return st.one_of(
        _numbers,
        _vars,
        st.builds(Neg, sub),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]), sub, sub),
        st.builds(
            lambda f, args: Call(f, tuple(args)),
            st.sampled_from(["min", "max"]),
            st.lists(sub, min_size=2, max_size=3),
        ),
        st.builds(lambda a: Call("abs", (a,)), sub),
    )


def _guards(depth):
    cmp = st.builds(
        Comparison,
        _arith(depth),
        st.sampled_from(["<=", "<", ">=", ">", "=="]),
        _arith(depth),
    )
    # grammar only allows left-leaning and/or chains of comparisons
    return st.lists(st.tuples(st.sampled_from(["and", "or"]), cmp), max_size=2).flatmap(
        lambda tail: cmp.map(
            lambda head: _chain(head, tail)
        )
    )


def _chain(head, tail):
    node = head
    for op, nxt in tail:
        node = BoolOp(op, node, nxt)
    return node


_expressions = st.one_of(
    _arith(2),
    st.builds(
        lambda arms, otherwise: Piecewise(tuple(arms), otherwise),
        st.lists(st.builds(Arm, _guards(1), _arith(1)), min_size=1, max_size=3),
        st.one_of(st.none(), _arith(1)),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_expressions)
def test_round_trip_property(ast):
    """format -> parse is the identity on expressible ASTs."""
    assert parse_expression(format_expression(ast)) == ast


# ---------------------------------------------------------------------------
# lowering: bind_function against the tree walker

_PARAMS = ("x", "y", "t")


def _constants(node) -> list[Fraction]:
    if isinstance(node, Number):
        return [node.value]
    out: list[Fraction] = []
    for name in node._fields:  # a node is a tuple, so only a plain tuple is a field of nodes
        child = getattr(node, name)
        for item in child if type(child) is tuple else (child,):
            if hasattr(item, "_fields"):
                out += _constants(item)
    return out


def _bindings(ast):
    """Random floats (infinities and NaN included), the tree's constants
    as floats, and their float neighbours."""
    near = []
    for c in _constants(ast):
        f = float(c)
        near += [f, -f, math.nextafter(f, -math.inf), math.nextafter(f, math.inf)]
    values = st.one_of(st.floats(), st.sampled_from(near)) if near else st.floats()
    return st.tuples(values, values, values)


def _outcome(call):
    """The float's bits, or the class of the exception raised."""
    try:
        return call().hex()
    except Exception as exc:
        return type(exc)


def _map_rule(outcome):
    """A walker outcome under the rule of a map's values, which
    ``bind_function`` follows: ±inf and ``OverflowError`` become
    ``DomainError``."""
    return DomainError if outcome in ("inf", "-inf", OverflowError) else outcome


def _walked(ast, args):
    return _map_rule(_outcome(lambda: eval_expression(ast, dict(zip(_PARAMS, args)))))


@settings(max_examples=600, deadline=None)
@given(st.data(), _expressions)
def test_lowered_function_matches_walker_bit_for_bit(data, ast):
    fn = bind_function(ast, _PARAMS)
    assert fn.__name__ == "_lowered"  # every generated tree is lowered, none falls back
    args = data.draw(_bindings(ast))
    assert _outcome(lambda: fn(*args)) == _walked(ast, args)


@pytest.mark.parametrize(
    "text, x, walker, naive",
    [
        # 0.1 lies above 1/10, so the exact guard fails
        ("piecewise { x <= 1/10 => 0 ; else => 1 ; }", 0.1, 1.0, 0.0),
        # min returns the exact 1/10, and 3 * 1/10 = 3/10 exactly
        ("min(x, 1/10) * 3", 0.5, 0.3, 0.30000000000000004),
    ],
)
def test_lowering_keeps_exact_constants_where_naive_floats_diverge(text, x, walker, naive):
    ast = parse_expression(text)
    assert eval_expression(ast, {"x": x}) == walker != naive
    assert bind_function(ast, ("x",))(x) == walker


HUGE = "1" + "0" * 400


@pytest.mark.parametrize(
    "text",
    [
        "1 / (x - x)",
        "x / 0",
        "x - x + 1 / 0",
        "piecewise { x < 0 => 1 ; }",
        "piecewise { 1 < 0 => x ; 2 > 1 => 3 ; else => 1 / 0 ; }",
        "piecewise { x > 0 => 1 / 0 ; else => x ; }",
        "piecewise { x - x == 1/3 => 1 ; x == 1/2 => 2 ; else => 3 ; }",
        f"x * {HUGE}",
        f"{HUGE} - min(x, {HUGE})",
        f"{HUGE} + 0 * x",
        f"piecewise {{ x <= {HUGE} => 1 ; x >= -({HUGE}) => 2 ; else => 3 ; }}",
        f"piecewise {{ {HUGE} < x => 1 ; -{HUGE} > x => 2 ; x == {HUGE} => 3 ; else => 4 ; }}",
        "max(x - x, 0) * (1/3)",
        "abs(-(1/3)) + x * 0",
    ],
)
@pytest.mark.parametrize(
    "x", [0.0, -0.0, 0.1, 0.5, -0.5, 1 / 3, math.inf, -math.inf, math.nan, 1e308]
)
def test_lowered_errors_and_edge_values_match_walker(text, x):
    ast = parse_expression(text)
    assert _outcome(lambda: bind_function(ast, ("x",))(x)) == _map_rule(_outcome(
        lambda: eval_expression(ast, {"x": x})
    ))


def _neighbours(c: Fraction) -> list[float]:
    try:
        f = float(c)
    except OverflowError:
        f = sys.float_info.max if c > 0 else -sys.float_info.max
    return [math.nextafter(f, -math.inf), f, math.nextafter(f, math.inf)]


@pytest.mark.parametrize("op", ["<=", "<", ">=", ">", "=="])
@pytest.mark.parametrize(
    "c",
    ["1/10", "1/3", "-(1/3)", "47/24", "2", HUGE, f"-{HUGE}"],
    ids=["1/10", "1/3", "-1/3", "47/24", "2", "huge", "-huge"],
)
def test_guard_against_constant_matches_exact_comparison(op, c):
    xs = _neighbours(eval_numeric(parse_expression(c), {})) + [math.inf, -math.inf, math.nan]
    for text in (f"piecewise {{ x {op} {c} => 1 ; else => 0 ; }}",
                 f"piecewise {{ {c} {op} x => 1 ; else => 0 ; }}"):
        ast = parse_expression(text)
        fn = bind_function(ast, ("x",))
        for x in xs:
            assert fn(x) == eval_expression(ast, {"x": x}), (text, x)


def test_non_float_arguments_fall_back_to_exact_walker():
    # with an int, x / 10 is exactly 1/10; with a float it is 0.1 > 1/10
    ast = parse_expression("piecewise { x / 10 <= 1/10 => 0 ; else => 1 ; }")
    fn = bind_function(ast, ("x",))
    assert fn(1) == eval_expression(ast, {"x": 1}) == 0.0
    assert fn(1.0) == eval_expression(ast, {"x": 1.0}) == 1.0


# ---------------------------------------------------------------------------
# exact mode: bind_exact against the tree walker's eval_numeric


def _exact_bindings(ast):
    """Fractions, ints and floats (infinities and NaN included), and the
    tree's constants with their float neighbours."""
    near = []
    for c in _constants(ast):
        f = float(c)
        near += [c, -c, f, math.nextafter(f, -math.inf), math.nextafter(f, math.inf)]
    values = st.one_of(
        st.fractions(max_denominator=1000),
        st.integers(-10**6, 10**6),
        st.floats(),
        *([st.sampled_from(near)] if near else []),
    )
    return st.tuples(values, values, values)


def _exact_outcome(call):
    """The result's type and value (a float by its bits), or the class of
    the exception raised."""
    try:
        value = call()
    except Exception as exc:
        return type(exc)
    return type(value), value.hex() if type(value) is float else value


@settings(max_examples=600, deadline=None)
@given(st.data(), _expressions)
def test_exact_function_matches_walker(data, ast):
    fn = bind_exact(ast, _PARAMS)
    assert fn.__name__ == "_lowered"
    args = data.draw(_exact_bindings(ast))
    assert _exact_outcome(lambda: fn(*args)) == _exact_outcome(
        lambda: eval_numeric(ast, dict(zip(_PARAMS, args)))
    )


def test_exact_function_is_compiled_on_the_first_non_float_call(monkeypatch):
    compiled = []

    def counted(ast, params):
        compiled.append(params)
        return bind_exact(ast, params)

    monkeypatch.setattr(couplefix.expr, "bind_exact", counted)
    ast = parse_expression(PHI_CAPPED)
    fn = bind_function(ast, ("t",))
    assert fn(2.0) == eval_expression(ast, {"t": 2.0}) and compiled == []
    assert fn(2) == eval_expression(ast, {"t": 2}) and compiled == [("t",)]
    assert fn(Fraction(1, 3)) == eval_expression(ast, {"t": Fraction(1, 3)})
    assert compiled == [("t",)]


# ---------------------------------------------------------------------------
# trees at and beyond the parser's height cap


def _height(node) -> int:
    """Levels of the tree as the parser counts them (piecewise arms are none)."""
    if isinstance(node, (Number, Var)):
        return 0
    below = 0
    for name in node._fields:  # a node is a tuple, so only a plain tuple is a field of nodes
        child = getattr(node, name)
        for item in child if type(child) is tuple else (child,):
            if hasattr(item, "_fields"):
                below = max(below, _height(item))
    return below if isinstance(node, (Piecewise, Arm)) else below + 1


_CHAIN = " + x" * (MAX_NESTING - 1)
_AT_CAP = {
    "neg": "-" * MAX_NESTING + "x",
    "abs": "abs(" * MAX_NESTING + "x" + ")" * MAX_NESTING,
    "min": "min(" * MAX_NESTING + "x" + ", 1/3)" * MAX_NESTING,
    "max": "max(" * MAX_NESTING + "x" + ", 1/3)" * MAX_NESTING,
    **{op: "x" + f" {op} 3/2" * MAX_NESTING for op in "+-*/"},
    "comparison": f"piecewise {{ x{_CHAIN} <= 1/2 => 1 ; else => 0 ; }}",
    "and": f"piecewise {{ {' and '.join(['x < 1'] * MAX_NESTING)} => 1 ; else => 0 ; }}",
    "or": f"piecewise {{ {' or '.join(['x > 1'] * MAX_NESTING)} => 1 ; else => 0 ; }}",
    "arm body": f"piecewise {{ x < 1 => x{_CHAIN} ; else => -x{_CHAIN} ; }}",
}


@pytest.mark.parametrize("kind", sorted(_AT_CAP))
def test_every_node_kind_lowers_at_the_height_cap(kind):
    ast = parse_expression(_AT_CAP[kind])
    assert _height(ast) == MAX_NESTING
    float_fn, exact_fn = bind_function(ast, ("x",)), bind_exact(ast, ("x",))
    assert float_fn.__name__ == exact_fn.__name__ == "_lowered"
    for x in (0.5, 1.5, -0.25):
        assert _outcome(lambda: float_fn(x)) == _map_rule(
            _outcome(lambda: eval_expression(ast, {"x": x})))
    for x in (Fraction(1, 2), 2, Fraction(-1, 4)):
        assert _exact_outcome(lambda: exact_fn(x)) == _exact_outcome(
            lambda: eval_numeric(ast, {"x": x})
        )


_ONE_LEVEL_UP = {
    "neg": lambda e: Neg(e),
    "abs": lambda e: Call("abs", (e,)),
    "min": lambda e: Call("min", (e, Number(Fraction(1, 3)))),
    "binop": lambda e: BinOp("*", Var("x"), e),
    "comparison": lambda e: Piecewise((Arm(Comparison(e, "<", Var("x")), Var("x")),), None),
    "or": lambda _: Piecewise(
        (Arm(BoolOp("or", parse_expression(_AT_CAP["or"]).arms[0].guard,
                    Comparison(Var("x"), ">", Number(Fraction(1)))),
             Number(Fraction(1))),),
        Var("x"),
    ),
    "arm body": lambda e: Piecewise((Arm(Comparison(Var("x"), "<", Var("x")), Neg(e)),), e),
}


@pytest.mark.parametrize("kind", sorted(_ONE_LEVEL_UP))
def test_hand_built_tree_above_the_height_cap_is_rejected_at_bind_time(kind):
    ast = _ONE_LEVEL_UP[kind](parse_expression(_AT_CAP["-"]))
    assert _height(ast) == MAX_NESTING + 1
    for bind in (bind_function, bind_exact):
        with pytest.raises(ExprEvalError, match="nests deeper"):
            bind(ast, ("x",))


def test_very_tall_hand_built_tree_is_rejected_without_recursing_through_it():
    ast = Var("x")
    for _ in range(20 * sys.getrecursionlimit()):
        ast = Neg(ast)
    with pytest.raises(ExprEvalError, match="nests deeper"):
        bind_function(ast, ("x",))


def _tall_neg_chain(var: str) -> Neg:
    ast = Var(var)
    for _ in range(20 * sys.getrecursionlimit()):
        ast = Neg(ast)
    return ast


def _entry_points():
    from couplefix.controls import expr_control
    from couplefix.metric import MetricSpace
    from couplefix.problems import CouplingMap, SelfMap

    square = SelfMap.from_expression(parse_expression("x * x"))
    return {
        "expr_control": (expr_control, "t", "control expressions may only use the variable t"),
        "coupling": (CouplingMap.from_expression, "x", "coupling expressions may only use"),
        "self_map": (SelfMap.from_expression, "x", "self-map expressions may only use"),
        "inverse": (lambda ast: square.with_inverse(ast, MetricSpace.real_line(0.0, 1.0)),
                    "x", "inverse expressions may only use"),
    }


@pytest.mark.parametrize("entry", ["expr_control", "coupling", "self_map", "inverse"])
def test_entry_points_reject_a_very_tall_tree_at_bind_time(entry):
    build, var, _ = _entry_points()[entry]
    with pytest.raises(ExprEvalError, match="nests deeper"):
        build(_tall_neg_chain(var))


@pytest.mark.parametrize("entry", ["expr_control", "coupling", "self_map", "inverse"])
def test_entry_points_name_a_variable_outside_their_slot(entry):
    from couplefix.errors import ParameterError

    build, _, message = _entry_points()[entry]
    with pytest.raises(ParameterError) as got:
        build(parse_expression("x + y + t"))
    expected = {
        "expr_control": f"{message}, found ['t', 'x', 'y']",
        "coupling": f"{message} ['x', 'y']; found: t",
        "self_map": f"{message} ['x']; found: t, y",
        "inverse": f"{message} ['x']; found: t, y",
    }[entry]
    assert str(got.value) == expected


_X, _ONE = Var("x"), Number(Fraction(1))


@pytest.mark.parametrize(
    "ast, params",
    [
        (Number(0.5), ("x",)),
        (BinOp("+", _X, Number(1)), ("x",)),
        (BinOp("**", _X, _ONE), ("x",)),
        (Call("sqrt", (_X,)), ("x",)),
        (Call("abs", (_X, _X)), ("x",)),
        (Call("min", (_X,)), ("x",)),
        (BinOp("+", _X, Piecewise((Arm(Comparison(_X, "<", _ONE), _X),), None)), ("x",)),
        (Piecewise((Arm(Comparison(_X, "!=", _ONE), _X),), None), ("x",)),
        (Piecewise((Arm(BoolOp("xor", Comparison(_X, "<", _ONE), Comparison(_X, "<", _ONE)),
                        _X),), None), ("x",)),
        (Piecewise((Arm(_X, _X),), None), ("x",)),
        # an arm that a constant guard rules out is still checked
        (Piecewise((Arm(Comparison(_ONE, "<", _ONE), Call("sqrt", (_X,))),), _X), ("x",)),
        (Piecewise((Arm(Comparison(_ONE, "<", _ONE), Var("y")),), _X), ("x",)),
        (Var("z"), ("x",)),
        (_X, ("x", "x")),
        (_X, ("x", "z")),
        ("x", ("x",)),
    ],
    ids=repr,
)
def test_trees_outside_the_grammar_are_rejected_at_bind_time(ast, params):
    for bind in (bind_function, bind_exact):
        with pytest.raises(ExprEvalError):
            bind(ast, params)


# ---------------------------------------------------------------------------
# row kernels: tables through the kernel against the per-call path


def _renamed(node, names: dict):
    """``node`` with each variable renamed by ``names``."""
    if isinstance(node, Var):
        return Var(names[node.name])
    if not hasattr(node, "_fields"):
        return node
    return type(node)(*(tuple(_renamed(c, names) for c in child) if type(child) is tuple
                        else _renamed(child, names) for child in node))


# zeros of both signs, subnormals, the ends of the float range, values that
# divide by zero or overflow, and a few plain ones
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, sys.float_info.max, 1.0, -1.0,
          0.5, 2.0, 1e-300, 1e300, math.inf, -math.inf, math.nan]


def _floats(ast):
    near = [f for c in _constants(ast) for f in (float(c), -float(c), *_neighbours(c))]
    return st.one_of(st.sampled_from(_EDGES), st.sampled_from(near) if near else st.nothing(),
                     st.floats(-4, 4))


def _outcome_of(build):
    """``repr`` of what ``build()`` returns, or the class and message of
    what it raises."""
    try:
        return "value", repr(build())
    except Exception as exc:
        return type(exc), str(exc)


@contextmanager
def _spies(*maps):
    """Maps rebuilt around per-call counters of ``maps``' functions that
    share their row kernels, and the list of the counters' calls."""
    import couplefix.problems
    from couplefix.expr import row_kernel

    calls, owners, rebuilt = [], {}, []
    for m in maps:
        def spy(*args, fn=m.fn):
            calls.append(args)
            return fn(*args)
        owners[spy] = m.fn
        rebuilt.append(type(m)(spy))

    def shared(fn, *samples):
        return row_kernel(owners.get(fn, fn), *samples)

    with mock.patch.object(couplefix.problems, "row_kernel", shared):
        yield calls, rebuilt


def _table_scans(xv, yv, subset, plan):
    """The outcome of each scan that fills tables, a function of the F map
    and the T map."""
    def rows(fm):
        met = []
        try:
            return "value", repr(list(fm.pair_rows(xv, yv, met.append)))
        except Exception as exc:
            return type(exc), str(exc), repr(met)

    def brute(fm, tm):
        space = MetricSpace.real_line(-sys.float_info.max, sys.float_info.max)
        problem = CoincidenceProblem(space, subset, subset, fm, tm, make_linear(Fraction(1, 2)))
        return [brute_force_search(problem, plan, tol=tol) for tol in (0.0, 0.25)]

    return {
        "pair_rows": lambda fm, tm: rows(fm),
        "tables": lambda fm, tm: _outcome_of(lambda: fm.tables(xv, yv)),
        "tables on one sample": lambda fm, tm: _outcome_of(lambda: fm.tables(xv, xv)),
        "image_table": lambda fm, tm: _outcome_of(
            lambda: (tm.image_table(subset, plan), tm.image_table(subset, SamplePlan(3)))),
        "brute_force_search": lambda fm, tm: _outcome_of(lambda: brute(fm, tm)),
    }


def _check_scans(f, t, xv, yv, subset, plan):
    """Each scan gives with ``f`` and ``t`` what it gives with their
    per-call wrappers, and with spies that share their kernels it calls
    ``fn`` at a failing pair or value only."""
    for name, build in _table_scans(xv, yv, subset, plan).items():
        want = build(CouplingMap(lambda x, y: f.fn(x, y)), SelfMap(lambda x: t.fn(x)))
        with _spies(f, t) as (calls, (fs, ts)):
            assert build(fs, ts) == want, name
        if name != "brute_force_search":  # which calls F pair by pair
            assert len(calls) == (want[0] != "value"), (name, calls)
        assert build(CouplingMap(f.fn), SelfMap(t.fn)) == want, name


@settings(max_examples=300, deadline=None)
@given(st.data(), _expressions, _expressions)
def test_row_kernels_fill_every_table_as_the_per_call_path_does(data, f_ast, t_ast):
    f_ast = _renamed(f_ast, {"x": "x", "y": "y", "t": "x"})
    t_ast = _renamed(t_ast, {"x": "x", "y": "x", "t": "x"})
    f, t = CouplingMap.from_expression(f_ast), SelfMap.from_expression(t_ast)
    xv = data.draw(st.lists(_floats(f_ast), min_size=1, max_size=6))
    yv = data.draw(st.lists(_floats(f_ast), min_size=1, max_size=6))
    ends = sorted(data.draw(st.tuples(_floats(t_ast), _floats(t_ast))
                            .filter(lambda e: math.isfinite(e[0] - e[1]) and e[0] != e[1])))
    subset = SubsetSpec.from_intervals([Interval(*ends)])
    plan = SamplePlan(data.draw(st.integers(2, 6)), data.draw(st.integers(0, 2)), 1)
    _check_scans(f, t, xv, yv, subset, plan)


_HUGE_ONE = "1" + "0" * 400


@pytest.mark.parametrize(
    "f_text, t_text, xv, yv, ends",
    [
        # no arm matches from the third pair on, and T has no arm past 1/2
        ("piecewise { x < 1 => x + y ; }", "piecewise { x <= 1/2 => x ; }",
         [0.0, 0.5, 2.0], [0.25, 1.0], (0.0, 1.0)),
        # a division by zero in the middle of a row, and at T's zero
        ("x / (y - 1)", "1 / x", [0.5, 2.0], [0.0, 1.0, 3.0], (-1.0, 1.0)),
        # an infinite value in the middle of a row, then a NaN
        ("x * y", f"x * 1{'0' * 300} * x", [1.0, 1e308], [2.0, -0.0, 1e10], (-2.0, 2.0)),
        ("x - y", "x / x", [1.0, math.inf], [0.5, math.inf], (-1.0, 1.0)),
        # operations with a constant beyond the float range raise OverflowError
        (f"piecewise {{ x < 1 => x ; else => x * {_HUGE_ONE} ; }}",
         f"piecewise {{ x < 1/2 => x ; else => x + {_HUGE_ONE} ; }}",
         [0.0, 0.5, 1.5], [0.5, 1.0], (0.0, 1.0)),
        # min with an exact constant is computed exactly, then cast
        ("min(x, 1/3) * y + max(y, 1/10)", "min(x, 1/3) * 3", [0.1, 0.9, 5e-324],
         [0.3, -0.0, 1e-300], (-1.0, 1.0)),
    ],
)
def test_row_kernels_fail_where_the_per_call_path_fails(f_text, t_text, xv, yv, ends):
    f = CouplingMap.from_expression(parse_expression(f_text))
    t = SelfMap.from_expression(parse_expression(t_text))
    subset = SubsetSpec.from_intervals([Interval(*ends)])
    _check_scans(f, t, xv, yv, subset, SamplePlan(5, 1, 2))
