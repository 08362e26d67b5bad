"""Reference evaluator for the expression language: a plain tree walker.

``couplefix.expr`` evaluates only through compiled functions
(``bind_function`` and ``bind_exact``).  This walker states the semantics
directly, one node at a time, and the tests compare the compiled functions
against it.  Constants are exact ``Fraction`` values and Python picks each
operation from the operand types; piecewise arms are tested in order and
the first matching guard wins.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Union

from couplefix.errors import ExprEvalError
from couplefix.expr import BinOp, Call, Comparison, Expr, Guard, Neg, Number, Piecewise, Var

Numeric = Union[int, float, Fraction]

NO_ARM = "no piecewise arm matched and there is no else arm"
_ARITH_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_CMP_OPS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt,
            "==": operator.eq}


def _eval_guard(node: Guard, bindings: dict[str, Numeric]) -> bool:
    if isinstance(node, Comparison):
        return _CMP_OPS[node.op](_eval(node.left, bindings), _eval(node.right, bindings))
    if node.op == "and":
        return _eval_guard(node.left, bindings) and _eval_guard(node.right, bindings)
    return _eval_guard(node.left, bindings) or _eval_guard(node.right, bindings)


def _eval(node: Expr, bindings: dict[str, Numeric]) -> Numeric:
    match node:
        case Number(value):
            return value
        case Var(name):
            try:
                return bindings[name]
            except KeyError:
                raise ExprEvalError(f"unbound variable {name!r}") from None
        case Neg(operand):
            return -_eval(operand, bindings)
        case BinOp(op, left, right):
            a = _eval(left, bindings)
            b = _eval(right, bindings)
            try:
                return _ARITH_OPS[op](a, b)
            except ZeroDivisionError:
                raise ExprEvalError("division by zero") from None
        case Call(func, args):
            vals = [_eval(a, bindings) for a in args]
            if func == "abs":
                return abs(vals[0])
            return min(vals) if func == "min" else max(vals)
        case Piecewise(arms, otherwise):
            for arm in arms:
                if _eval_guard(arm.guard, bindings):
                    return _eval(arm.body, bindings)
            if otherwise is not None:
                return _eval(otherwise, bindings)
            raise ExprEvalError(NO_ARM)
    raise ExprEvalError(f"cannot evaluate node {node!r}")


def eval_expression(ast: Expr, bindings: dict[str, Numeric]) -> float:
    """Evaluate with the given variable bindings; always returns a float.

    Constants stay exact rationals internally, so guards like
    ``t <= 47/24`` compare without rounding.
    """
    result = float(_eval(ast, dict(bindings)))
    if math.isnan(result):
        raise ExprEvalError("expression evaluated to NaN")
    return result


def eval_numeric(ast: Expr, bindings: dict[str, Numeric]) -> Numeric:
    """Evaluate without the final float cast, so rational bindings give an
    exact ``Fraction`` wherever the expression uses only rational arithmetic."""
    return _eval(ast, dict(bindings))
