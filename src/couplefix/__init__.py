"""Sampled verification and iteration engines for coupled fixed point problems.

The package splits into layers: metric spaces and subsets (``metric``),
a tiny expression language (``expr``), control functions with their class
checks (``controls``), problem objects (``problems``), sampled hypothesis
checks (``checks``, with ``levelset`` for exact contraction planes),
iteration engines and diagnostics (``solve``), YAML problem documents plus
the builtin registry (``documents``), and a command line front end
(``cli``).

The package root exports what the README's Library section uses, the types
those names take, and the error classes; every other name is imported from
its submodule.
"""

__version__ = "0.1.0"

from .controls import (
    ControlClass,
    control_from_text,
    identity_control,
    make_capped_linear,
    make_linear,
    make_power,
    with_declared_class,
)
from .documents import build_problem, builtin_registry
from .errors import (
    BudgetError,
    CoupleFixError,
    DocumentError,
    DomainError,
    ExprEvalError,
    ExprSyntaxError,
    ParameterError,
)
from .metric import Interval, MetricSpace, Point, SamplePlan, SubsetSpec
from .problems import CoincidenceProblem, CouplingMap, SelfMap, StrongCoupledProblem
from .solve import IterationTrace, brute_force_search, iterate_strong_coupled, trace_diagnostics

__all__ = [
    "__version__",
    "BudgetError",
    "CoincidenceProblem",
    "ControlClass",
    "CoupleFixError",
    "CouplingMap",
    "DocumentError",
    "DomainError",
    "ExprEvalError",
    "ExprSyntaxError",
    "Interval",
    "IterationTrace",
    "MetricSpace",
    "ParameterError",
    "Point",
    "SamplePlan",
    "SelfMap",
    "StrongCoupledProblem",
    "SubsetSpec",
    "brute_force_search",
    "build_problem",
    "builtin_registry",
    "control_from_text",
    "identity_control",
    "iterate_strong_coupled",
    "make_capped_linear",
    "make_linear",
    "make_power",
    "trace_diagnostics",
    "with_declared_class",
]
