"""Problem documents: a small YAML format plus a registry of builtin problems.

A document describes one problem declaratively — carrier, the two subsets,
the coupling map, the self map (coincidence problems only), control
functions, solver options, and check sampling settings.  ``parse_problem``
turns text into a :class:`ProblemDocument`; ``build_problem`` compiles the
document into a runnable problem object.  Builtin problems are stored as
document templates and go through the same parser, so anything the registry
produces can also be written by hand.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

import yaml

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
from .errors import DocumentError, DomainError, ExprSyntaxError, ParameterError
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

_SOLVE_KEYS = {"tol", "max_iter", "preimage_tol", "seed", "starts"}
_CHECK_KEYS = {"grid_count", "grid_count_b", "jitter_count", "seed", "tol", "budget", "range_b"}

_CONTROL_FAMILIES = {
    "linear": ("slope",),
    "power": ("exponent",),
    "capped_linear": ("slope", "threshold"),
    "identity": (),
    "expr": ("text",),
}


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
    return float(_fraction(raw, key))


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
        return SubsetSpec.from_values([_float(v, key) for v in raw])
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
        fields = _CONTROL_FAMILIES[family]
        _reject_unknown(spec, {"family", *fields}, key)
        for name in fields:
            if name not in spec:
                raise DocumentError("required key is missing", key=f"{key}.{name}")
        if family == "linear":
            f = make_linear(_fraction(spec["slope"], f"{key}.slope"))
        elif family == "power":
            f = make_power(_float(spec["exponent"], f"{key}.exponent"))
        elif family == "capped_linear":
            f = make_capped_linear(
                _fraction(spec["slope"], f"{key}.slope"),
                _fraction(spec["threshold"], f"{key}.threshold"),
            )
        elif family == "identity":
            f = identity_control()
        else:
            f = control_from_text(_expr_text(spec["text"], f"{key}.text"))
        return with_declared_class(f, slot)
    except (ParameterError, ExprSyntaxError) as exc:
        raise DocumentError(str(exc), key=key) from exc


def _expr_text(raw, key: str) -> str:
    if not isinstance(raw, str):
        raise DocumentError(f"expected an expression string, got {raw!r}", key=key)
    return raw


def _parse_starts(raw, key: str) -> tuple[tuple[Point, Point], ...]:
    if not isinstance(raw, list):
        raise DocumentError(f"expected a list of [x0, y0] pairs, got {raw!r}", key=key)
    starts = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError(
                f"expected a pair [x0, y0], got {pair!r}", key=f"{key}[{i}]"
            )
        starts.append(
            (
                Point.real(_float(pair[0], f"{key}[{i}]")),
                Point.real(_float(pair[1], f"{key}[{i}]")),
            )
        )
    return tuple(starts)


def _parse_solve(raw) -> tuple[SolveOptions, tuple[tuple[Point, Point], ...]]:
    if raw is None:
        return SolveOptions(), ()
    spec = _mapping(raw, "solve")
    _reject_unknown(spec, _SOLVE_KEYS, "solve")
    try:
        opts = SolveOptions(
            tol=_float(spec["tol"], "solve.tol") if "tol" in spec else 1e-9,
            max_iter=_int(spec.get("max_iter", 10_000), "solve.max_iter"),
            preimage_tol=(
                _float(spec["preimage_tol"], "solve.preimage_tol")
                if "preimage_tol" in spec
                else 1e-9
            ),
            seed=_int(spec.get("seed", 0), "solve.seed"),
        )
    except ParameterError as exc:
        raise DocumentError(str(exc), key="solve") from exc
    starts = _parse_starts(spec["starts"], "solve.starts") if "starts" in spec else ()
    return opts, starts


def _parse_check(raw) -> CheckSettings:
    if raw is None:
        return CheckSettings()
    spec = _mapping(raw, "check")
    _reject_unknown(spec, _CHECK_KEYS, "check")
    jitter = _int(spec.get("jitter_count", 0), "check.jitter_count")
    seed = _int(spec.get("seed", 0), "check.seed")
    try:
        plan = SamplePlan(_int(spec.get("grid_count", 21), "check.grid_count"), jitter, seed)
        plan_b = None
        if "grid_count_b" in spec:
            plan_b = SamplePlan(_int(spec["grid_count_b"], "check.grid_count_b"), jitter, seed)
    except ParameterError as exc:
        raise DocumentError(str(exc), key="check") from exc
    return CheckSettings(
        plan=plan,
        plan_b=plan_b,
        tol=_float(spec.get("tol", 1e-9), "check.tol"),
        budget=_int(spec.get("budget", DEFAULT_QUADRUPLE_BUDGET), "check.budget"),
        range_b=_parse_subset(spec["range_b"], "check.range_b") if "range_b" in spec else None,
    )


def parse_problem(text: str, name: str = "problem") -> ProblemDocument:
    """Parse YAML document text into a :class:`ProblemDocument`.

    All shape errors are reported as :class:`DocumentError` with the dotted
    key path of the offending entry (for example ``phi.slope``).
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise DocumentError(f"document is not valid YAML: {exc}") from exc
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


_PLATEAU_COINCIDENCE = """\
problem_kind: coincidence
space: "(-5, 5)"
subset_A: "[0, 2]"
subset_B: "[0, 4]"
map_F: "piecewise { 0 <= x and x <= 2 and 0 <= y and y <= 2 => 2 ; else => (x + y) / 24 ; }"
map_T: "piecewise { 0 <= x and x <= 2 => 2 ; 2 < x and x <= 4 => 4 ; }"
phi: {family: capped_linear, slope: 2/3, threshold: 47/24}
solve:
  starts: [[1, 1]]
check:
  grid_count: 21
  grid_count_b: 41
  range_b: "[0, 2]"
"""

_MIN_STRONG = """\
problem_kind: strong_coupled
space: "[0, 3]"
subset_A: [1]
subset_B: [1, 2]
map_F: "min(x, y)"
phi: {family: power, exponent: 2}
psi: {family: identity}
solve:
  starts: [[1, 1], [1, 2]]
"""

_NEGATIVE_MIDPOINT = """\
problem_kind: strong_coupled
space: "[0, 1]"
subset_A: "[0, 1]"
subset_B: "[0, 1]"
map_F: "(x + y) / 2"
phi: {family: linear, slope: 1/10}
psi: {family: identity}
solve:
  starts: [[0, 1]]
"""


def _banach_linear(k) -> str:
    rate = _fraction(k, "k")
    if not 0 < rate < 1:
        raise DocumentError(f"must satisfy 0 < k < 1, got {k!r}", key="k")
    return f"""\
problem_kind: strong_coupled
space: "[0, 1]"
subset_A: "[0, 1]"
subset_B: "[0, 1]"
map_F: "{rate / 2} * (x + y) + {(1 - rate) / 2}"
phi: {{family: linear, slope: {1 - rate}}}
psi: {{family: identity}}
solve:
  starts: [[0, 1]]
"""


_REGISTRY = {
    "banach-linear": (_banach_linear, {"k": Fraction(1, 2)}),
    "example-2.1.9": (_PLATEAU_COINCIDENCE, {}),
    "example-2.2.3": (_MIN_STRONG, {}),
    "negative-midpoint": (_NEGATIVE_MIDPOINT, {}),
}


def registry_names() -> list[str]:
    """Names of the builtin problems, sorted."""
    return sorted(_REGISTRY)


def builtin_registry(name: str, **params) -> ProblemDocument:
    """Render a builtin problem as a document.

    ``banach-linear`` accepts a contraction rate ``k`` (default 1/2); the
    other entries take no parameters.
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
        text = template(**{**defaults, **params})
    else:
        text = template
    return parse_problem(text, name=name)
