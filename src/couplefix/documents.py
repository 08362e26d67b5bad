"""Problem documents: a small YAML format plus a registry of builtin problems.

A document describes one problem declaratively — carrier, the two subsets,
the coupling map, the self map (coincidence problems only), control
functions, solver options, and check sampling settings.  ``parse_mapping``
validates the loaded mapping into a :class:`ProblemDocument`;
``parse_problem`` loads YAML text into that mapping first, and is the only
place that imports PyYAML.  ``build_problem`` compiles the document into a
runnable problem object.  Builtin problems are stored as Python data in the
shape ``yaml.safe_load`` gives and go through the same validator, so
anything the registry produces can also be written by hand, and building a
builtin never loads PyYAML.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .checks import DEFAULT_QUADRUPLE_BUDGET
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
from .errors import (DocumentError, DomainError, ExprSyntaxError, ParameterError, at_least_one,
                     positive_finite)
from .expr import Expr, parse_expression
from .metric import Interval, MetricSpace, Point, SamplePlan, SubsetSpec
from .problems import CoincidenceProblem, CouplingMap, SelfMap, StrongCoupledProblem
from .solve import SolveOptions

_TOP_KEYS = {
    "problem_kind",
    "space",
    "subset_A",
    "subset_B",
    "map_F",
    "map_T",
    "map_T_inverse",
    "phi",
    "psi",
    "solve",
    "check",
}
_REQUIRED_KEYS = ("problem_kind", "space", "subset_A", "subset_B", "map_F", "phi")
_KINDS = ("coincidence", "strong_coupled")


@dataclasses.dataclass(frozen=True)
class CheckSettings:
    """Sampling and tolerance settings for the check pipeline."""

    plan: SamplePlan = SamplePlan()
    plan_b: Optional[SamplePlan] = None
    tol: float = 1e-9
    budget: int = DEFAULT_QUADRUPLE_BUDGET
    range_b: Optional[SubsetSpec] = None


@dataclasses.dataclass(frozen=True)
class ProblemDocument:
    """A parsed problem description, not yet compiled into callables.

    ``map_t`` is either an expression, the sentinel string ``"identity"``,
    or ``None`` for strong coupled problems.
    """

    name: str
    problem_kind: str
    space: MetricSpace
    subset_a: SubsetSpec
    subset_b: SubsetSpec
    map_f: Expr
    map_t: Union[Expr, str, None]
    map_t_inverse: Optional[Expr]
    phi: ControlFunction
    psi: Optional[ControlFunction]
    solve: SolveOptions
    starts: tuple[tuple[Point, Point], ...]
    check: CheckSettings


def _fraction(raw, key: str) -> Fraction:
    """Numbers in documents: ints, floats, or strings like "2/3"."""
    try:
        if isinstance(raw, bool):
            raise ValueError(raw)
        if isinstance(raw, (int, Fraction)):
            return Fraction(raw)
        if isinstance(raw, float):
            return Fraction(str(raw))
        if isinstance(raw, str):
            return Fraction(raw.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"expected a number, got {raw!r}", key=key) from exc
    raise DocumentError(f"expected a number, got {raw!r}", key=key)


def _float(raw, key: str) -> float:
    try:
        return float(_fraction(raw, key))
    except OverflowError:
        raise DocumentError(f"number is out of float range: {raw!r}", key=key) from None


def _int(raw, key: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise DocumentError(f"expected an integer, got {raw!r}", key=key)
    return raw


def _mapping(raw, key: str) -> dict:
    if not isinstance(raw, dict):
        raise DocumentError(f"expected a mapping, got {type(raw).__name__}", key=key)
    return raw


def _reject_unknown(mapping: dict, allowed: set, key: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise DocumentError(f"unknown keys {unknown}", key=key)


def _parse_interval(text, key: str) -> Interval:
    if not isinstance(text, str):
        raise DocumentError(f"expected an interval string, got {text!r}", key=key)
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


def _parse_space(raw, key: str = "space") -> MetricSpace:
    iv = _parse_interval(raw, key)
    return MetricSpace.real_line(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)


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
        f"expected an interval string, a brace set, or a list of values, got {raw!r}",
        key=key,
    )


def _parse_expr(raw, key: str) -> Expr:
    try:
        return parse_expression(_expr_text(raw, key))
    except ExprSyntaxError as exc:
        raise DocumentError(str(exc), key=key) from exc


def _expr_text(raw, key: str) -> str:
    if not isinstance(raw, str):
        raise DocumentError(f"expected an expression string, got {raw!r}", key=key)
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
        if family not in _CONTROL_FAMILIES:
            raise DocumentError(
                f"expected one of {sorted(_CONTROL_FAMILIES)}, got {family!r}",
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
        raise DocumentError(f"expected a list of [x0, y0] pairs, got {raw!r}", key=key)
    starts = []
    for i, pair in enumerate(raw):
        at = f"{key}[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError(f"expected a pair [x0, y0], got {pair!r}", key=at)
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

#: The keys of the ``solve`` and ``check`` sections and their converters.
#: A key that is absent takes the default of the dataclass field it sets.
_SOLVE_FIELDS = {"tol": _POSITIVE, "max_iter": _int, "preimage_tol": _POSITIVE,
                 "starts": _parse_starts}
_CHECK_FIELDS = {"grid_count": _int, "grid_count_b": _int, "jitter_count": _int, "seed": _int,
                 "tol": _POSITIVE, "budget": _held_to(at_least_one, _int),
                 "range_b": _parse_subset}


def _parse_solve(raw) -> tuple[SolveOptions, tuple[tuple[Point, Point], ...]]:
    values = _read_section(raw, "solve", _SOLVE_FIELDS)
    starts = values.pop("starts", ())
    try:
        return SolveOptions(**values), starts
    except ParameterError as exc:
        raise DocumentError(str(exc), key="solve") from exc


def _parse_check(raw) -> CheckSettings:
    values = _read_section(raw, "check", _CHECK_FIELDS)
    grid_count_b = values.pop("grid_count_b", None)
    plan_fields = {k: values.pop(k) for k in ("grid_count", "jitter_count", "seed") if k in values}
    try:
        plan = SamplePlan(**plan_fields)
        plan_b = None if grid_count_b is None else dataclasses.replace(plan, grid_count=grid_count_b)
    except ParameterError as exc:
        raise DocumentError(str(exc), key="check") from exc
    return CheckSettings(plan=plan, plan_b=plan_b, **values)


def parse_problem(text: str, name: str = "problem") -> ProblemDocument:
    """Parse YAML document text into a :class:`ProblemDocument`."""
    import yaml  # here, not at the top: its import is a fifth of the CLI's start-up

    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise DocumentError(f"document is not valid YAML: {exc}") from exc
    return parse_mapping(raw, name)


def parse_mapping(raw, name: str = "problem") -> ProblemDocument:
    """Validate a loaded document mapping into a :class:`ProblemDocument`.

    ``raw`` has the shape ``yaml.safe_load`` gives: dicts, lists, strings
    and numbers.  It is only read, never changed.  All shape errors are
    reported as :class:`DocumentError` with the dotted key path of the
    offending entry (for example ``phi.slope``).
    """
    doc = _mapping(raw, "document")
    _reject_unknown(doc, _TOP_KEYS, "document")
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise DocumentError("required key is missing", key=key)

    kind = doc["problem_kind"]
    if kind not in _KINDS:
        raise DocumentError(
            f"expected one of {list(_KINDS)}, got {kind!r}", key="problem_kind"
        )
    if kind == "coincidence":
        if "map_T" not in doc:
            raise DocumentError("required for coincidence problems", key="map_T")
        if "psi" in doc:
            raise DocumentError("only allowed for strong_coupled problems", key="psi")
    else:
        if "psi" not in doc:
            raise DocumentError("required for strong_coupled problems", key="psi")
        for forbidden in ("map_T", "map_T_inverse"):
            if forbidden in doc:
                raise DocumentError(
                    "only allowed for coincidence problems", key=forbidden
                )

    map_t: Union[Expr, str, None] = None
    map_t_inverse: Optional[Expr] = None
    if kind == "coincidence":
        raw_t = doc["map_T"]
        map_t = "identity" if raw_t == "identity" else _parse_expr(raw_t, "map_T")
        if "map_T_inverse" in doc:
            if map_t == "identity":
                raise DocumentError(
                    "cannot be combined with map_T: identity", key="map_T_inverse"
                )
            map_t_inverse = _parse_expr(doc["map_T_inverse"], "map_T_inverse")

    phi_slot = ControlClass.PHI if kind == "coincidence" else ControlClass.ALTERING
    solve_opts, starts = _parse_solve(doc.get("solve"))
    return ProblemDocument(
        name=name,
        problem_kind=kind,
        space=_parse_space(doc["space"]),
        subset_a=_parse_subset(doc["subset_A"], "subset_A"),
        subset_b=_parse_subset(doc["subset_B"], "subset_B"),
        map_f=_parse_expr(doc["map_F"], "map_F"),
        map_t=map_t,
        map_t_inverse=map_t_inverse,
        phi=_parse_control(doc["phi"], "phi", phi_slot),
        psi=_parse_control(doc["psi"], "psi", ControlClass.ALTERING) if kind != "coincidence" else None,
        solve=solve_opts,
        starts=starts,
        check=_parse_check(doc.get("check")),
    )


def parse_problem_file(path) -> ProblemDocument:
    """Parse a document from disk; the problem name is the file stem."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read document {p}: {exc}") from exc
    return parse_problem(text, name=p.stem)


def build_problem(doc: ProblemDocument):
    """Compile a document into a runnable problem object."""
    try:
        coupling = CouplingMap.from_expression(doc.map_f)
        if doc.problem_kind == "coincidence":
            if doc.map_t == "identity":
                self_map = SelfMap.identity()
            else:
                self_map = SelfMap.from_expression(doc.map_t)
                if doc.map_t_inverse is not None:
                    self_map = self_map.with_inverse(doc.map_t_inverse, doc.space)
            return CoincidenceProblem(
                doc.space, doc.subset_a, doc.subset_b, coupling, self_map, doc.phi
            )
        return StrongCoupledProblem(
            doc.space, doc.subset_a, doc.subset_b, coupling, doc.phi, doc.psi
        )
    except (ParameterError, DomainError) as exc:
        raise DocumentError(str(exc)) from exc


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
