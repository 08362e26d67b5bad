"""Problem documents: a small YAML format plus a registry of builtin problems.

A document describes one problem declaratively — carrier, the two subsets,
the coupling map, the self map (coincidence problems only), control
functions, solver options, and check sampling settings.  ``parse_mapping``
validates the loaded mapping and builds it into a :class:`ProblemDocument`:
the runnable problem, each map compiled at the key that holds it, plus the
run settings.  ``parse_problem`` loads YAML text into that mapping first,
and is the only place that imports PyYAML.  Builtin problems are stored as
Python data in the shape ``yaml.safe_load`` gives and go through the same
validator, so anything the registry produces can also be written by hand,
and building a builtin never loads PyYAML.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Union

from .controls import (
    ControlClass,
    ControlFunction,
    control_from_text,
    identity_control,
    make_capped_linear,
    make_linear,
    make_power,
    with_declared_class,
)
from .errors import (DocumentError, ExprSyntaxError, ParameterError, at_least_one, at_least_two,
                     nonnegative, positive_finite)
from .expr import Expr, parse_expression
from .metric import (DEFAULT_QUADRUPLE_BUDGET, Interval, MetricSpace, Point, SamplePlan, SubsetSpec,
                     subset_within_carrier)
from .problems import CoincidenceProblem, CouplingMap, SelfMap, StrongCoupledProblem
from .records import Frozen
from .solve import SolveOptions

_REQUIRED_KEYS = ("problem_kind", "space", "subset_A", "subset_B", "map_F", "phi")
#: The keys of one kind of problem only; the first is required for it.
_KIND_KEYS = {"coincidence": ("map_T", "map_T_inverse"), "strong_coupled": ("psi",)}
_TOP_KEYS = {*_REQUIRED_KEYS, *_KIND_KEYS["coincidence"], *_KIND_KEYS["strong_coupled"],
             "solve", "check"}


@dataclasses.dataclass(frozen=True)
class CheckSettings:
    """Sampling and tolerance settings for the check pipeline."""

    plan: SamplePlan = SamplePlan()
    plan_b: Optional[SamplePlan] = None
    tol: float = 1e-9
    budget: int = DEFAULT_QUADRUPLE_BUDGET
    range_b: Optional[SubsetSpec] = None


class ProblemDocument(Frozen):
    """A validated document: its built problem and the settings to run it with."""

    __slots__ = _fields = ("name", "problem", "solve", "starts", "check")

    def __init__(self, name: str, problem: Union[CoincidenceProblem, StrongCoupledProblem],
                 solve: SolveOptions, starts: tuple[tuple[Point, Point], ...],
                 check: CheckSettings):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "problem", problem)
        object.__setattr__(self, "solve", solve)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "check", check)


#: Numbers in documents stay below 2**2048 in magnitude, numerator and
#: denominator alike; floats end near 2**1024.  A longer number could not
#: be shown in a message, and a string's exponent of more than 3 digits
#: would cost ``Fraction`` seconds to expand (``"1e9999999"``).
_MAX_BITS = 2048


def _shown(raw) -> str:
    """``repr(raw)``, or a stand-in where it holds an int longer than
    ``repr`` writes (``sys.get_int_max_str_digits()``)."""
    try:
        return repr(raw)
    except ValueError:
        return f"<{type(raw).__name__} too long to show>"


def _fraction(raw, key: str) -> Fraction:
    """Numbers in documents: ints, floats, or strings like "2/3"."""
    try:
        if isinstance(raw, bool) or not isinstance(raw, (int, Fraction, float, str)):
            raise ValueError(raw)
        if isinstance(raw, str):
            exponent = raw.lower().partition("e")[2].strip().lstrip("+-0")
            if exponent.isdigit() and len(exponent) > 3:
                raise OverflowError
        value = Fraction(raw if isinstance(raw, (int, Fraction)) else str(raw).strip())
        if max(value.numerator.bit_length(), value.denominator.bit_length()) > _MAX_BITS:
            raise OverflowError
        return value
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"expected a number, got {_shown(raw)}", key=key) from exc
    except OverflowError:
        raise DocumentError("number is out of range", key=key) from None


def _float(raw, key: str) -> float:
    try:
        return float(_fraction(raw, key))
    except OverflowError:
        raise DocumentError(f"number is out of float range: {raw!r}", key=key) from None


def _int(raw, key: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise DocumentError(f"expected an integer, got {_shown(raw)}", key=key)
    return int(_fraction(raw, key))  # held to the bounds of every number


def _mapping(raw, key: str) -> dict:
    if not isinstance(raw, dict):
        raise DocumentError(f"expected a mapping, got {type(raw).__name__}", key=key)
    return raw


def _reject_unknown(mapping: dict, allowed: set, key: str) -> None:
    unknown = sorted(map(_shown, set(mapping) - allowed))
    if unknown:
        raise DocumentError(f"unknown keys [{', '.join(unknown)}]", key=key)


def _parse_interval(text, key: str) -> Interval:
    if not isinstance(text, str):
        raise DocumentError(f"expected an interval string, got {_shown(text)}", key=key)
    s = text.strip()
    if len(s) < 3 or s[0] not in "[(" or s[-1] not in "])" or "," not in s:
        raise DocumentError(
            f'expected an interval like "[0, 2]" or "(0, 2)", got {text!r}', key=key
        )
    lo_raw, _, hi_raw = s[1:-1].partition(",")
    lo, hi = _float(lo_raw.strip(), key), _float(hi_raw.strip(), key)
    try:
        return Interval(lo, hi, lo_closed=s[0] == "[", hi_closed=s[-1] == "]")
    except ParameterError as exc:
        raise DocumentError(str(exc), key=key) from exc


def _parse_subset(raw, key: str) -> SubsetSpec:
    if isinstance(raw, list):
        try:
            return SubsetSpec.from_values([_float(v, key) for v in raw])
        except ParameterError as exc:  # an empty list
            raise DocumentError(str(exc), key=key) from exc
    if isinstance(raw, str):
        s = raw.strip()
        if s.startswith("{") and s.endswith("}"):
            parts = [p.strip() for p in s[1:-1].split(",") if p.strip()]
            if not parts:
                raise DocumentError("brace set must not be empty", key=key)
            return SubsetSpec.from_values([_float(p, key) for p in parts])
        return SubsetSpec.from_intervals([_parse_interval(s, key)])
    raise DocumentError(
        f"expected an interval string, a brace set, or a list of values, got {_shown(raw)}",
        key=key,
    )


def _parse_map(raw, key: str, compile_map: Callable[[Expr], object]):
    """``compile_map`` of the expression at ``key``.  A syntax error, or a
    variable outside the map's slot (the bind's ParameterError), is
    reported at the key."""
    try:
        return compile_map(parse_expression(_expr_text(raw, key)))
    except (ExprSyntaxError, ParameterError) as exc:
        raise DocumentError(str(exc), key=key) from exc


def _parse_self_map(doc: dict, space: MetricSpace) -> SelfMap:
    """The self map of ``map_T``, with the oracle of ``map_T_inverse`` if
    the document has one."""
    if doc["map_T"] == "identity":
        if "map_T_inverse" in doc:
            raise DocumentError("cannot be combined with map_T: identity", key="map_T_inverse")
        return SelfMap.identity()
    self_map = _parse_map(doc["map_T"], "map_T", SelfMap.from_expression)
    if "map_T_inverse" not in doc:
        return self_map
    return _parse_map(doc["map_T_inverse"], "map_T_inverse",
                      lambda ast: self_map.with_inverse(ast, space))


def _expr_text(raw, key: str) -> str:
    if not isinstance(raw, str):
        raise DocumentError(f"expected an expression string, got {_shown(raw)}", key=key)
    return raw


#: Each control family: its constructor and the converter of each field.
_CONTROL_FAMILIES = {
    "linear": (make_linear, {"slope": _fraction}),
    "power": (make_power, {"exponent": _float}),
    "capped_linear": (make_capped_linear, {"slope": _fraction, "threshold": _fraction}),
    "identity": (identity_control, {}),
    "expr": (control_from_text, {"text": _expr_text}),
}


def _parse_control(raw, key: str, slot: ControlClass) -> ControlFunction:
    try:
        if isinstance(raw, str):
            return with_declared_class(control_from_text(raw), slot)
        spec = _mapping(raw, key)
        family = spec.get("family")
        if not isinstance(family, str) or family not in _CONTROL_FAMILIES:
            raise DocumentError(
                f"expected one of {sorted(_CONTROL_FAMILIES)}, got {_shown(family)}",
                key=f"{key}.family",
            )
        make, fields = _CONTROL_FAMILIES[family]
        _reject_unknown(spec, {"family", *fields}, key)
        for name in fields:
            if name not in spec:
                raise DocumentError("required key is missing", key=f"{key}.{name}")
        return with_declared_class(make(**_read_fields(spec, fields, key)), slot)
    except (ParameterError, ExprSyntaxError) as exc:
        raise DocumentError(str(exc), key=key) from exc


def _parse_starts(raw, key: str) -> tuple[tuple[Point, Point], ...]:
    if not isinstance(raw, list):
        raise DocumentError(f"expected a list of [x0, y0] pairs, got {_shown(raw)}", key=key)
    starts = []
    for i, pair in enumerate(raw):
        at = f"{key}[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError(f"expected a pair [x0, y0], got {_shown(pair)}", key=at)
        starts.append((Point.real(_float(pair[0], at)), Point.real(_float(pair[1], at))))
    return tuple(starts)


def _held_to(rule, read):
    """A converter that reads a value with ``read`` and holds it to
    ``rule(name, value)``, whose ParameterError is reported at the key."""
    def convert(raw, key: str):
        try:
            return rule(key.rpartition(".")[2], read(raw, key))
        except ParameterError as exc:
            raise DocumentError(str(exc), key=key) from exc
    return convert


def _read_fields(spec: dict, fields: dict, key: str) -> dict:
    """The entries of ``spec`` that ``fields`` names, each read by its
    converter under the key path ``key.name``."""
    return {name: convert(spec[name], f"{key}.{name}")
            for name, convert in fields.items() if name in spec}


def _read_section(raw, key: str, fields: dict) -> dict:
    spec = {} if raw is None else _mapping(raw, key)
    _reject_unknown(spec, set(fields), key)
    return _read_fields(spec, fields, key)


_POSITIVE = _held_to(positive_finite, _float)
_AT_LEAST_ONE = _held_to(at_least_one, _int)
_GRID_COUNT = _held_to(at_least_two, _int)  # every check run samples an interval

#: The keys of the ``solve`` and ``check`` sections and their converters.
#: A key that is absent takes the default of the constructor argument it sets.
_SOLVE_FIELDS = {"tol": _POSITIVE, "max_iter": _AT_LEAST_ONE, "preimage_tol": _POSITIVE,
                 "starts": _parse_starts}
_CHECK_FIELDS = {"grid_count": _GRID_COUNT, "grid_count_b": _GRID_COUNT,
                 "jitter_count": _held_to(nonnegative, _int), "seed": _int,
                 "tol": _POSITIVE, "budget": _AT_LEAST_ONE, "range_b": _parse_subset}


def _parse_solve(raw) -> tuple[SolveOptions, tuple[tuple[Point, Point], ...]]:
    values = _read_section(raw, "solve", _SOLVE_FIELDS)
    starts = values.pop("starts", ())
    return SolveOptions(**values), starts


def _parse_check(raw) -> CheckSettings:
    values = _read_section(raw, "check", _CHECK_FIELDS)
    grid_count_b = values.pop("grid_count_b", None)
    plan = SamplePlan(**{k: values.pop(k) for k in ("grid_count", "jitter_count", "seed")
                         if k in values})
    plan_b = (None if grid_count_b is None
              else SamplePlan(grid_count_b, plan.jitter_count, plan.seed))
    return CheckSettings(plan=plan, plan_b=plan_b, **values)


def parse_problem(text: str, name: str = "problem") -> ProblemDocument:
    """Parse YAML document text into a :class:`ProblemDocument`."""
    import yaml  # here, not at the top: its import is a fifth of the CLI's start-up

    try:
        raw = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:  # a bad date or int, deep nesting
        raise DocumentError(f"document is not valid YAML: {exc}") from exc
    return parse_mapping(raw, name)


def parse_mapping(raw, name: str = "problem") -> ProblemDocument:
    """Validate a loaded document mapping into a :class:`ProblemDocument`.

    ``raw`` has the shape ``yaml.safe_load`` gives: dicts, lists, strings
    and numbers.  It is only read, never changed.  All shape errors are
    reported as :class:`DocumentError` with the dotted key path of the
    offending entry (for example ``phi.slope``), including a subset or
    ``check.range_b`` that is not contained in the carrier, and a map that
    uses a variable outside its slot (``map_F: "x + t"``).  Each map is
    compiled where its key is read, so the problem is built once, here.
    """
    doc = _mapping(raw, "document")
    _reject_unknown(doc, _TOP_KEYS, "document")
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise DocumentError("required key is missing", key=key)

    kind = doc["problem_kind"]
    if not isinstance(kind, str) or kind not in _KIND_KEYS:
        raise DocumentError(f"expected one of {list(_KIND_KEYS)}, got {_shown(kind)}",
                            key="problem_kind")
    if _KIND_KEYS[kind][0] not in doc:
        raise DocumentError(f"required for {kind} problems", key=_KIND_KEYS[kind][0])
    for other in _KIND_KEYS.keys() - {kind}:
        for key in _KIND_KEYS[other]:
            if key in doc:
                raise DocumentError(f"only allowed for {other} problems", key=key)

    iv = _parse_interval(doc["space"], "space")
    space = MetricSpace.real_line(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)
    subsets = [_parse_subset(doc[key], key) for key in ("subset_A", "subset_B")]
    maps = [_parse_map(doc["map_F"], "map_F", CouplingMap.from_expression)]
    if kind == "coincidence":
        maps.append(_parse_self_map(doc, space))
        controls = [_parse_control(doc["phi"], "phi", ControlClass.PHI)]
    else:
        controls = [_parse_control(doc[key], key, ControlClass.ALTERING) for key in ("phi", "psi")]
    solve, starts = _parse_solve(doc.get("solve"))
    check = _parse_check(doc.get("check"))
    for key, subset in zip(("subset_A", "subset_B", "check.range_b"), (*subsets, check.range_b)):
        if subset is not None and not subset_within_carrier(space, subset):
            raise DocumentError("not contained in the carrier", key=key)
    shape = CoincidenceProblem if kind == "coincidence" else StrongCoupledProblem
    return ProblemDocument(name, shape(space, *subsets, *maps, *controls), solve, starts, check)


def parse_problem_file(path) -> ProblemDocument:
    """Parse a document from disk; the problem name is the file stem."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read document {p}: {exc}") from exc
    return parse_problem(text, name=p.stem)


def build_problem(doc: ProblemDocument):
    """The runnable problem of a document, built when it was parsed."""
    return doc.problem


_PLATEAU_COINCIDENCE = {
    "problem_kind": "coincidence",
    "space": "(-5, 5)",
    "subset_A": "[0, 2]",
    "subset_B": "[0, 4]",
    "map_F": "piecewise { 0 <= x and x <= 2 and 0 <= y and y <= 2 => 2 ; else => (x + y) / 24 ; }",
    "map_T": "piecewise { 0 <= x and x <= 2 => 2 ; 2 < x and x <= 4 => 4 ; }",
    "phi": {"family": "capped_linear", "slope": "2/3", "threshold": "47/24"},
    "solve": {"starts": [[1, 1]]},
    "check": {"grid_count": 21, "grid_count_b": 41, "range_b": "[0, 2]"},
}

_MIN_STRONG = {
    "problem_kind": "strong_coupled",
    "space": "[0, 3]",
    "subset_A": [1],
    "subset_B": [1, 2],
    "map_F": "min(x, y)",
    "phi": {"family": "power", "exponent": 2},
    "psi": {"family": "identity"},
    "solve": {"starts": [[1, 1], [1, 2]]},
}

_NEGATIVE_MIDPOINT = {
    "problem_kind": "strong_coupled",
    "space": "[0, 1]",
    "subset_A": "[0, 1]",
    "subset_B": "[0, 1]",
    "map_F": "(x + y) / 2",
    "phi": {"family": "linear", "slope": "1/10"},
    "psi": {"family": "identity"},
    "solve": {"starts": [[0, 1]]},
}


def _banach_linear(k) -> dict:
    rate = _fraction(k, "k")
    if not 0 < rate < 1:
        raise DocumentError(f"must satisfy 0 < k < 1, got {k!r}", key="k")
    return {
        "problem_kind": "strong_coupled",
        "space": "[0, 1]",
        "subset_A": "[0, 1]",
        "subset_B": "[0, 1]",
        "map_F": f"{rate / 2} * (x + y) + {(1 - rate) / 2}",
        "phi": {"family": "linear", "slope": str(1 - rate)},
        "psi": {"family": "identity"},
        "solve": {"starts": [[0, 1]]},
    }


_REGISTRY = {
    "banach-linear": (_banach_linear, {"k": Fraction(1, 2)}),
    "example-2.1.9": (_PLATEAU_COINCIDENCE, {}),
    "example-2.2.3": (_MIN_STRONG, {}),
    "negative-midpoint": (_NEGATIVE_MIDPOINT, {}),
}


def registry_names() -> list[str]:
    """Names of the builtin problems, sorted."""
    return sorted(_REGISTRY)


def builtin_mapping(name: str, **params) -> dict:
    """The document mapping of a builtin problem, as ``yaml.safe_load`` gives it.

    The parameterless entries return the registry's own dict: read it, do
    not change it.
    """
    if name not in _REGISTRY:
        raise DocumentError(
            f"unknown builtin problem {name!r}; available: {', '.join(registry_names())}"
        )
    template, defaults = _REGISTRY[name]
    unexpected = sorted(set(params) - set(defaults))
    if unexpected:
        raise DocumentError(f"{name} accepts no parameter named {unexpected}")
    if callable(template):
        return template(**{**defaults, **params})
    return template


def builtin_registry(name: str, **params) -> ProblemDocument:
    """Render a builtin problem as a document.

    ``banach-linear`` accepts a contraction rate ``k`` (default 1/2); the
    other entries take no parameters.
    """
    return parse_mapping(builtin_mapping(name, **params), name=name)
