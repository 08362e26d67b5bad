"""A tiny expression language for maps and control functions.

Grammar (``arith`` is ordinary arithmetic; ``piecewise`` only at top level)::

    expr      := piecewise | arith
    piecewise := "piecewise" "{" arm+ elsearm? "}"
    arm       := guard "=>" arith ";"
    elsearm   := "else" "=>" arith ";"
    guard     := cmp ( ("and"|"or") cmp )*
    cmp       := arith ("<="|"<"|">="|">"|"==") arith
    arith     := term ( ("+"|"-") term )*
    term      := factor ( ("*"|"/") factor )*
    factor    := number | ident | "(" arith ")"
               | fname "(" arith ("," arith)* ")" | "-" factor
    fname     := "min" | "max" | "abs"
    ident     := "x" | "y" | "t"
    number    := decimal literal | integer "/" integer

Rational literals like ``47/24`` (no interior whitespace) are stored exactly
as one :class:`Number`; ``47 / 24`` is ordinary division.  The final ``;``
before ``}`` may be omitted.  Piecewise arms are tested in declaration order
and the first matching guard wins.  Parentheses, calls and unary minus nest
at most :data:`MAX_NESTING` levels deep, and so does the tree: each
operator of a chain like ``x + x + x`` or ``a and b and c`` adds a level.

Expressions are evaluated only through generated Python functions; one
lowering (:class:`_Lowering`) writes them.  :func:`bind_exact` keeps every
constant an exact ``Fraction`` and lets the argument types pick each
operation, so rational arguments give exact results.  :func:`bind_function`
returns that result cast to float, and computes it directly in float
arithmetic, bit for bit, when every argument is a float; its results follow
the rule of a map's values, so a result of ±inf or beyond the float range
raises :class:`DomainError`.  Trees the parser cannot produce are rejected
with :class:`ExprEvalError` when they are bound.

Tables of floats are filled (:func:`fill`) by the function's row kernel, the
same float code written as one expression and run without a Python call per
tuple; the function goes on from the first tuple where the kernel fails.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .errors import DomainError, ExprEvalError, ExprSyntaxError

# ---------------------------------------------------------------------------
# AST


class Number(NamedTuple):
    value: Fraction


class Var(NamedTuple):
    name: str


class Neg(NamedTuple):
    operand: "Expr"


class BinOp(NamedTuple):
    op: str
    left: "Expr"
    right: "Expr"


class Call(NamedTuple):
    func: str
    args: tuple["Expr", ...]


class Comparison(NamedTuple):
    left: "Expr"
    op: str
    right: "Expr"


class BoolOp(NamedTuple):
    op: str
    left: "Guard"
    right: "Guard"


class Arm(NamedTuple):
    guard: "Guard"
    body: "Expr"


class Piecewise(NamedTuple):
    arms: tuple[Arm, ...]
    otherwise: Union["Expr", None]


Expr = Union[Number, Var, Neg, BinOp, Call, Piecewise]
Guard = Union[Comparison, BoolOp]

IDENTS = ("x", "y", "t")
FNAMES = ("min", "max", "abs")
KEYWORDS = ("piecewise", "else", "and", "or")

# ---------------------------------------------------------------------------
# tokenizer

_RATIONAL = re.compile(r"(\d+)/(\d+)(?![\d.])")
_DECIMAL = re.compile(r"\d+\.\d+|\d+|\.\d+")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TWO_CHAR = ("=>", "<=", ">=", "==")
_ONE_CHAR = "+-*/(){},;<>"


class _Token(NamedTuple):
    kind: str  # "number", "name", a punctuation literal, or "end"
    text: str
    line: int
    col: int
    value: Fraction | None = None


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _RATIONAL.match(text, i) or _DECIMAL.match(text, i)
            if not m:
                raise ExprSyntaxError(f"bad numeric literal near {text[i:i+8]!r}", line, col)
            try:
                value = Fraction(m.group(0))
            except ZeroDivisionError:
                raise ExprSyntaxError(f"zero denominator in {m.group(0)!r}", line, col) from None
            except ValueError:  # more digits than int() converts from text
                raise ExprSyntaxError(
                    f"numeric literal has too many digits near {text[i:i+8]!r}", line, col
                ) from None
            tokens.append(_Token("number", m.group(0), line, col, value))
            col += m.end() - i
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _NAME.match(text, i)
            tokens.append(_Token("name", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        two = text[i:i + 2]
        if two in _TWO_CHAR:
            tokens.append(_Token(two, two, line, col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# parser

_FACTOR_START = ("number", "identifier", "function call", "(", "-")

#: Deepest nesting of parentheses, calls and unary minus the parser accepts,
#: and the most levels of the tree it builds.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._i = 0
        self._depth = 0
        self._heights: dict[int, int] = {}  # id(node) -> levels below it

    def _peek(self) -> _Token:
        return self._tokens[self._i]

    def _advance(self) -> _Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _fail(self, message: str, tok: _Token, expected: tuple[str, ...] = ()) -> None:
        raise ExprSyntaxError(message, tok.line, tok.col, expected)

    def _unexpected(self, tok: _Token, expected: tuple[str, ...], where: str = "") -> None:
        """Fail at ``tok``, which is not one of ``expected``."""
        self._fail("unexpected end of input" if tok.kind == "end"
                   else f"unexpected {tok.text!r}{where}", tok, expected)

    def _nested(self, tok: _Token, rule: Callable[[], Expr]) -> Expr:
        """Parse ``rule`` one nesting level deeper than ``tok``."""
        if self._depth >= MAX_NESTING:
            self._fail(f"expression nests deeper than {MAX_NESTING} levels", tok)
        self._depth += 1
        node = rule()
        self._depth -= 1
        return node

    def _grown(self, tok: _Token, node, *children):
        """``node`` built at ``tok`` over ``children``, within :data:`MAX_NESTING` levels."""
        height = 1 + max(self._heights.get(id(c), 0) for c in children)
        if height > MAX_NESTING:
            self._fail(f"expression nests deeper than {MAX_NESTING} levels", tok)
        self._heights[id(node)] = height
        return node

    def _expect(self, kind: str) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            self._unexpected(tok, (kind,))
        return self._advance()

    # --- grammar rules ---

    def expr(self) -> Expr:
        tok = self._peek()
        if tok.kind == "name" and tok.text == "piecewise":
            return self.piecewise()
        return self.arith()

    def piecewise(self) -> Piecewise:
        kw = self._advance()
        self._expect("{")
        arms: list[Arm] = []
        otherwise: Expr | None = None
        while True:
            tok = self._peek()
            if tok.kind == "name" and tok.text == "else":
                self._advance()
                self._expect("=>")
                otherwise = self.arith()
                if self._peek().kind == ";":
                    self._advance()
                self._expect("}")
                break
            guard = self.guard()
            self._expect("=>")
            arms.append(Arm(guard, self.arith()))
            tok = self._peek()
            if tok.kind == ";":
                self._advance()
                if self._peek().kind == "}":
                    self._advance()
                    break
                continue
            if tok.kind == "}":
                self._advance()
                break
            self._unexpected(tok, (";", "}"), " after piecewise arm")
        if not arms:
            self._fail("piecewise needs at least one guarded arm", kw)
        return Piecewise(tuple(arms), otherwise)

    def guard(self) -> Guard:
        node: Guard = self.cmp()
        while True:
            tok = self._peek()
            if tok.kind == "name" and tok.text in ("and", "or"):
                self._advance()
                right = self.cmp()
                node = self._grown(tok, BoolOp(tok.text, node, right), node, right)
            else:
                return node

    def cmp(self) -> Comparison:
        left = self.arith()
        tok = self._peek()
        if tok.kind not in ("<=", "<", ">=", ">", "=="):
            self._fail(f"expected comparison, got {tok.text!r}", tok, ("<=", "<", ">=", ">", "=="))
        self._advance()
        right = self.arith()
        return self._grown(tok, Comparison(left, tok.kind, right), left, right)

    def arith(self) -> Expr:
        node = self.term()
        while self._peek().kind in ("+", "-"):
            tok = self._advance()
            right = self.term()
            node = self._grown(tok, BinOp(tok.kind, node, right), node, right)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self._peek().kind in ("*", "/"):
            tok = self._advance()
            right = self.factor()
            node = self._grown(tok, BinOp(tok.kind, node, right), node, right)
        return node

    def factor(self) -> Expr:
        tok = self._peek()
        if tok.kind == "-":
            self._advance()
            operand = self._nested(tok, self.factor)
            return self._grown(tok, Neg(operand), operand)
        if tok.kind == "(":
            self._advance()
            node = self._nested(tok, self.arith)
            self._expect(")")
            return node
        if tok.kind == "number":
            self._advance()
            return Number(tok.value)  # type: ignore[arg-type]
        if tok.kind == "name":
            if tok.text in IDENTS:
                self._advance()
                return Var(tok.text)
            if tok.text in FNAMES:
                return self._nested(tok, self.call)
            if tok.text == "piecewise":
                self._fail("piecewise is only allowed at the top level", tok)
            if tok.text in KEYWORDS:
                self._fail(f"unexpected keyword {tok.text!r}", tok, _FACTOR_START)
            self._fail(f"unknown identifier {tok.text!r}", tok, IDENTS + FNAMES)
        self._unexpected(tok, _FACTOR_START)
        raise AssertionError("unreachable")

    def call(self) -> Call:
        name_tok = self._advance()
        self._expect("(")
        args = [self.arith()]
        while True:
            tok = self._peek()
            if tok.kind == ",":
                self._advance()
                args.append(self.arith())
                continue
            if tok.kind == ")":
                self._advance()
                break
            self._unexpected(tok, (")", ","), " in call")
        if name_tok.text == "abs" and len(args) != 1:
            self._fail("abs takes exactly one argument", name_tok)
        if name_tok.text in ("min", "max") and len(args) < 2:
            self._fail(f"{name_tok.text} takes at least two arguments", name_tok)
        return self._grown(name_tok, Call(name_tok.text, tuple(args)), *args)


def parse_expression(text: str) -> Expr:
    """Parse expression text; raises :class:`ExprSyntaxError` with position."""
    tokens = _tokenize(text)
    if tokens[0].kind == "end":
        raise ExprSyntaxError("empty expression", 1, 1, ("expression",))
    parser = _Parser(tokens)
    node = parser.expr()
    tail = parser._peek()
    if tail.kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {tail.text!r}", tail.line, tail.col,
                              ("end of input",))
    return node


# ---------------------------------------------------------------------------
# evaluation: lowering to Python source

Numeric = Union[int, float, Fraction]

_ARITH_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_CMP_OPS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt,
            "==": operator.eq}
_FLOAT, _DYN, _CONST = "float", "dyn", "const"
_MIRRORED = {"<=": ">=", "<": ">", ">=": "<=", ">": "<", "==": "=="}
_SOURCE = "<couplefix expression>"


def bind_exact(ast: Expr, params: tuple[str, ...], check_free=None) -> Callable[..., Numeric]:
    """Compile an expression into an exact positional function of ``params``.

    Constants stay ``Fraction`` objects and Python picks each operation from
    the argument types, so with rational arguments the result is an exact
    ``Fraction`` whenever the expression uses only rational arithmetic.
    That lets callers compare values against grid points without rounding
    artifacts.  There is no final ``float`` cast and no NaN check.

    ``check_free``, when given, is called with the set of variables the
    expression uses once the tree is lowered, before any other check of
    them; it may raise.  Its callers therefore need no walk of their own
    over a tree that may be taller than the recursion limit.
    """
    return _compile(ast, params, exact=True, check_free=check_free)


def bind_function(ast: Expr, params: tuple[str, ...], check_free=None) -> Callable[..., float]:
    """Compile an expression into a positional float function of ``params``.

    Rejects expressions whose free variables do not fit the slot, and trees
    the parser cannot produce.  The tree is lowered once (see
    :class:`_Lowering`).  Called with float arguments, the function returns
    ``float`` of what the exact function of :func:`bind_exact` returns, bit
    for bit, and raises the same exception classes, except for the rule of
    a map's values (``Point.real``): a NaN result raises ``ExprEvalError``,
    and a result of ±inf raises ``Point.real``'s ``DomainError``, as does
    an ``OverflowError`` (a value beyond the float range).  Other arguments
    go through that exact function, which is compiled on the first such
    call.  ``check_free`` is as for :func:`bind_exact`.
    """
    exact = None

    def rounded(*args: Numeric) -> float:
        nonlocal exact
        if exact is None:
            exact = bind_exact(ast, params)
        return float(exact(*args))

    return _compile(ast, params, exact=False, rounded=rounded, check_free=check_free)


def _compile(ast: Expr, params: tuple[str, ...], exact: bool, rounded=None,
             check_free=None) -> Callable:
    """The function ``_lowered(*params)`` generated by :class:`_Lowering`."""
    if len(set(params)) != len(params) or not set(params) <= set(IDENTS):
        raise ExprEvalError(f"parameters must be distinct names out of {IDENTS}, got {params!r}")
    lowering = _Lowering(exact)
    body, expression = lowering.body(ast)
    if check_free is not None:
        check_free(lowering.free)
    extra = lowering.free - set(params)
    if extra:
        raise ExprEvalError(
            f"expression uses {sorted(extra)} but this slot only provides {list(params)}"
        )
    lines = [f"def _lowered({', '.join(params)}):", "    try:"]
    floats_only = " or ".join(f"type({p}) is not _float" for p in params if p in lowering.free)
    if not exact and floats_only:
        lines += [f"        if {floats_only}:", f"            r = _rounded({', '.join(params)})",
                  "        else:"]
        body = ["    " + line for line in body]
    lines += [*("        " + line for line in body), "    except ZeroDivisionError:",
              "        raise _ExprEvalError('division by zero') from None"]
    if not exact:  # r - r is NaN, so true, exactly when r is NaN or infinite
        lines += ["    except OverflowError as e:",
                  "        raise _DomainError(f'expression overflows the float range: {e}')"
                  " from None",
                  "    if r - r:", "        if r != r:",
                  "            raise _ExprEvalError('expression evaluated to NaN')",
                  "        raise _DomainError(f'real point must be finite, got {r!r}')"]
    lines += ["    return r"]
    namespace = dict(lowering.names, _rounded=rounded, _float=float, _abs=abs, _min=min,
                     _max=max, _nan=math.nan, _ExprEvalError=ExprEvalError,
                     _DomainError=DomainError)
    exec(compile("\n".join(lines), _SOURCE, "exec"), namespace)
    # popped so the namespace (the function's globals) does not refer back to it
    fn = namespace.pop("_lowered")
    if not exact:  # the row kernel's source, compiled by row_kernel on first use
        columns = [p + "s" for p in params]
        loop = columns[0] if len(params) == 1 else f"zip({', '.join(columns)})"
        fn._fill = (f"def _fill(out, {', '.join(columns)}):\n    app = out.append\n"
                    f"    for {', '.join(params)} in {loop}:\n        app({expression})")
    return fn


def row_kernel(fn: Callable, *samples: Sequence) -> Callable | None:
    """``kernel(out, *columns)``, which appends ``fn``'s float value at each
    tuple of ``zip(*columns)`` to ``out``, unchecked, and gives NaN where no
    piecewise arm matches; ``None`` unless :func:`bind_function` made ``fn``
    and every value of ``samples`` is a float.  It is compiled on the first
    call and kept on ``fn``; a source too deep to compile leaves none."""
    kernel = getattr(fn, "_fill", None)
    if (kernel is None or fn.__code__.co_filename != _SOURCE  # not a copy on a wrapper
            or not all({*map(type, s)} <= {float} for s in samples)):
        return None
    if type(kernel) is str:
        try:
            exec(_kernel_code(kernel), fn.__globals__)
            kernel = fn.__globals__.pop("_fill")
        except (SyntaxError, RecursionError, MemoryError):
            kernel = None
        fn._fill = kernel
    return kernel


@lru_cache(maxsize=256)
def _kernel_code(source: str):
    """A row kernel's compiled source, which maps of one text share: its
    constants are names in each map's namespace."""
    return compile(source, _SOURCE, "exec")


def fill(out: list, fn: Callable, kernel: Callable | None, *columns: Iterable) -> list:
    """``out``, an empty list, with ``fn(*args)`` appended for each ``args``
    of ``zip(*columns)`` (sequences or ``repeat`` objects), in order: the
    ``kernel`` of :func:`row_kernel`, if given, up to the first tuple where
    it raises or gives a value that is not finite, then ``fn``, which raises
    its error there after ``out`` holds the values before it."""
    if kernel is not None:
        try:
            kernel(out, *columns)
        except Exception:
            pass  # out stops at the tuple that raised
        total = sum(out)  # not finite when a value is not, and rarely else
        if total - total:
            del out[next((i for i, v in enumerate(out) if v - v), len(out)):]
    done = len(out)
    out.extend(map(fn, *(islice(c, done, None) for c in columns) if done else columns))
    return out


def _float_bound(c: Fraction, op: str) -> float | None:
    """The float ``b`` with ``x op b`` exactly when ``x op c``, for every float x.

    ``None`` when ``op`` is ``==`` and no float equals ``c``.  With ``c`` beyond
    the float range the bounds are the largest float and infinity, which
    also matches how ``Fraction`` compares with infinities.
    """
    try:
        lo = hi = float(c)
    except OverflowError:
        lo, hi = (sys.float_info.max, math.inf) if c > 0 else (-math.inf, -sys.float_info.max)
    else:
        if Fraction(lo) < c:
            hi = math.nextafter(lo, math.inf)
        elif Fraction(lo) > c:
            lo = math.nextafter(lo, -math.inf)
    if op == "==":
        return lo if lo == hi else None
    return lo if op in ("<=", ">") else hi


class _Lowering:
    """Python source for one expression, in float or exact mode.

    Every arithmetic node lowers to ``(kind, payload)``.  ``_CONST`` nodes
    hold their exact ``Fraction`` (constant subtrees fold exactly).
    ``_DYN`` nodes are source code that may be a ``Fraction`` or a float at
    run time; their source keeps the constants as ``Fraction`` objects and
    lets Python pick each operation from the operand types.  In exact mode
    every variable is ``_DYN``, so the code computes exactly what ``Fraction``
    arithmetic on the arguments computes.  In float mode a variable is
    ``_FLOAT``: source whose value is a float whenever the arguments are.
    There a constant operand becomes ``float(c)``, which is what ``Fraction``
    arithmetic with a float does, and a comparison with a constant becomes
    one with the float bound of :func:`_float_bound`; only ``min``/``max``
    mixing constants with variables, and what is built on them, are
    ``_DYN``.  Constants are referred to by generated names in
    :attr:`names`; the variables met are collected in :attr:`free`.
    """

    def __init__(self, exact: bool):
        self.exact = exact
        self.names: dict[str, object] = {}
        self.free: set[str] = set()
        self.depth = -1  # levels above the node being lowered

    def name(self, value: object) -> str:
        key = f"_k{len(self.names)}"
        self.names[key] = value
        return key

    def ref(self, kind: str, payload) -> str:
        return self.name(payload) if kind is _CONST else payload

    def float_ref(self, c: Fraction) -> str:
        try:
            return self.name(float(c))
        except OverflowError:
            return self.name(c)  # the mixed operation raises OverflowError itself

    def enter(self) -> None:
        """Go one level down; the parser builds no tree taller than MAX_NESTING."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprEvalError(f"expression nests deeper than {MAX_NESTING} levels")

    def arith(self, node: Expr) -> tuple[str, object]:
        self.enter()
        match node:
            case Number(value) if type(value) is Fraction:
                lowered = _CONST, value
            case Var(name):
                self.free.add(name)
                lowered = (_DYN if self.exact else _FLOAT), name
            case Neg(operand):
                kind, v = self.arith(operand)
                lowered = (kind, -v) if kind is _CONST else (kind, f"(-{v})")
            case BinOp(op, left, right) if op in _ARITH_OPS:
                lowered = self.binop(op, self.arith(left), self.arith(right))
            case Call("abs", (arg,)):
                kind, v = self.arith(arg)
                lowered = (kind, abs(v)) if kind is _CONST else (kind, f"_abs({v})")
            case Call("min" | "max" as func, args) if len(args) >= 2:
                parts = [self.arith(a) for a in args]
                kinds = {kind for kind, _ in parts}
                if kinds == {_CONST}:
                    lowered = _CONST, (min if func == "min" else max)(v for _, v in parts)
                else:
                    code = f"_{func}({', '.join(self.ref(*part) for part in parts)})"
                    lowered = (_FLOAT if kinds == {_FLOAT} else _DYN), code
            case _:
                raise ExprEvalError(f"not an arithmetic expression of the grammar: {node!r}")
        self.depth -= 1
        return lowered

    def binop(self, op: str, left: tuple[str, object], right: tuple[str, object]):
        (lk, lv), (rk, rv) = left, right
        if lk is _CONST and rk is _CONST:
            try:
                return _CONST, _ARITH_OPS[op](lv, rv)
            except ZeroDivisionError:  # raised again when evaluated
                return _DYN, f"({self.name(lv)} / {self.name(rv)})"
        lcode = self.float_ref(lv) if lk is _CONST and rk is _FLOAT else self.ref(lk, lv)
        rcode = self.float_ref(rv) if rk is _CONST and lk is _FLOAT else self.ref(rk, rv)
        return (_FLOAT if _FLOAT in (lk, rk) else _DYN), f"({lcode} {op} {rcode})"

    def guard(self, node: Guard) -> tuple[bool, object]:
        """``(True, value)`` for a constant guard, else ``(False, code)``."""
        self.enter()
        match node:
            case Comparison(left, op, right) if op in _CMP_OPS:
                lowered = self.compare(op, self.arith(left), self.arith(right))
            case BoolOp("and" | "or" as op, left, right):
                (lc, lv), (rc, rv) = self.guard(left), self.guard(right)
                if lc and rc:
                    lowered = True, (lv and rv) if op == "and" else (lv or rv)
                else:
                    lowered = False, f"({lv} {op} {rv})"
            case _:
                raise ExprEvalError(f"not a guard of the grammar: {node!r}")
        self.depth -= 1
        return lowered

    def compare(self, op: str, left: tuple[str, object], right: tuple[str, object]):
        (lk, lv), (rk, rv) = left, right
        if lk is _CONST and rk is _CONST:
            return True, _CMP_OPS[op](lv, rv)
        if lk is _CONST and rk is _FLOAT:  # c op x exactly when x mirrored-op c
            return self.compare(_MIRRORED[op], right, left)
        if lk is _FLOAT and rk is _CONST:
            bound = _float_bound(rv, op)
            if bound is not None:
                return False, f"({lv} {op} {self.name(bound)})"
        return False, f"({self.ref(lk, lv)} {op} {self.ref(rk, rv)})"

    def value(self, node: Expr) -> str:
        """Code of the value of ``node``, cast to float in float mode."""
        kind, v = self.arith(node)
        if self.exact or kind is _FLOAT:
            return self.ref(kind, v)
        if kind is _DYN:
            return f"_float({v})"
        try:
            return self.name(float(v))
        except OverflowError:
            return f"_float({self.name(v)})"

    def body(self, ast: Expr) -> tuple[list[str], str]:
        """Statements that set ``r``, and one expression of the same value in
        which a piecewise that matches no arm is NaN; arms a constant guard
        rules out are dropped.

        Every arm is lowered, so each node of the tree is validated."""
        if not isinstance(ast, Piecewise):
            value = self.value(ast)
            return [f"r = {value}"], value
        arms = [(*self.guard(arm.guard), self.value(arm.body)) for arm in ast.arms]
        arms.append((True, True, None if ast.otherwise is None else self.value(ast.otherwise)))
        lines, expression = [], ""
        for constant, guard, value in arms:
            if constant and guard:
                break
            if not constant:
                lines += [f"{'elif' if lines else 'if'} {guard}:", f"    r = {value}"]
                expression += f"{value} if {guard} else "
        statement = ("raise _ExprEvalError('no piecewise arm matched and there is no else arm')"
                     if value is None else f"r = {value}")
        lines = lines + ["else:", "    " + statement] if lines else [statement]
        return lines, expression + ("_nan" if value is None else value)


# ---------------------------------------------------------------------------
# pretty-printing

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _prec(node: Expr) -> int:
    return _PRECEDENCE[node.op] if isinstance(node, BinOp) else 3


def _fmt_number(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    if f < 0:
        # the grammar has no negative literals; print as a negated factor
        return f"-({-f.numerator}/{f.denominator})"
    return f"{f.numerator}/{f.denominator}"


def _fmt_arith(node: Expr) -> str:
    match node:
        case Number(value):
            return _fmt_number(value)
        case Var(name):
            return name
        case Neg(operand):
            inner = _fmt_arith(operand)
            return f"-({inner})" if isinstance(operand, BinOp) else f"-{inner}"
        case BinOp(op, left, right):
            level = _PRECEDENCE[op]
            lhs = _fmt_arith(left)
            if _prec(left) < level:
                lhs = f"({lhs})"
            rhs = _fmt_arith(right)
            if _prec(right) <= level:
                rhs = f"({rhs})"
            return f"{lhs} {op} {rhs}"
        case Call(func, args):
            return f"{func}({', '.join(_fmt_arith(a) for a in args)})"
    raise ValueError(f"piecewise is only expressible at the top level: {node!r}")


def _fmt_guard(node: Guard) -> str:
    if isinstance(node, Comparison):
        return f"{_fmt_arith(node.left)} {node.op} {_fmt_arith(node.right)}"
    if isinstance(node.right, BoolOp):
        raise ValueError("guard chains must be left-associated to be expressible")
    return f"{_fmt_guard(node.left)} {node.op} {_fmt_guard(node.right)}"


def format_expression(ast: Expr) -> str:
    """Render an AST back to parseable text (see the round-trip property)."""
    if isinstance(ast, Piecewise):
        parts = [f"{_fmt_guard(arm.guard)} => {_fmt_arith(arm.body)} ;" for arm in ast.arms]
        if ast.otherwise is not None:
            parts.append(f"else => {_fmt_arith(ast.otherwise)} ;")
        return "piecewise { " + " ".join(parts) + " }"
    return _fmt_arith(ast)
