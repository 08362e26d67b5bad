"""Command line front end: check, solve, and demo problem documents.

Exit codes: 0 = checks pass / iteration converged (or stopped at an early
coincidence), 1 = at least one check reported violations, 2 = the iteration
hit its step limit or tripped a diagnostic, 3 = the document, arguments or
an output path could not be used (unusable arguments print the usage
first), 4 = a self-map preimage could not be found, 5 = an internal error
(a bug, reported as one ``internal error:`` line on stderr).

Human-readable output goes to stdout.  ``--json`` writes the machine report
to a file, or to stderr when the path is ``-``, so stdout never mixes the
two.  The JSON is byte-identical across runs except for ``timing_ms``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

from . import __version__
from .checks import (
    check_coupling,
    check_phi_psi_contraction,
    check_phi_T_contraction,
    check_range_compatibility,
    check_scc_map,
)
from .controls import check_altering, check_phi_class
from .documents import (
    CheckSettings,
    ProblemDocument,
    build_problem,
    builtin_registry,
    parse_problem_file,
    registry_names,
)
from .errors import (CoupleFixError, DocumentError, DomainError, ParameterError, at_least_two,
                     nonnegative)
from .metric import (
    Point,
    SamplePlan,
    check_metric_axioms,
    sampled_diameter,
    subset_intersection,
    subset_values,
)
from .report import CheckReport
from .solve import (
    IterationTrace,
    SolveOptions,
    SolveReport,
    SolveStatus,
    iterate_starts,
    multi_start_verdict,
)

TRACE_HEADER = "n,x_n,y_n,Tx_n,Ty_n,D_n,R_n,residual"

#: Violations kept per check in the JSON report; counts stay exact.
MAX_JSON_VIOLATIONS = 5

_STATUS_EXIT = {
    SolveStatus.CONVERGED: 0,
    SolveStatus.EARLY_COINCIDENCE: 0,
    SolveStatus.MAX_ITER_EXCEEDED: 2,
    SolveStatus.DIAGNOSTIC_VIOLATION: 2,
    SolveStatus.PREIMAGE_FAILURE: 4,
}


def load_document(source: str) -> ProblemDocument:
    """A source is a document path if it exists on disk, else a builtin name."""
    path = Path(source)
    if path.exists():
        return parse_problem_file(path)
    if source in registry_names():
        return builtin_registry(source)
    raise DocumentError(
        f"no such file or builtin problem: {source!r}; "
        f"builtins: {', '.join(registry_names())}"
    )


def _apply_overrides(doc: ProblemDocument, args) -> tuple[CheckSettings, SolveOptions]:
    plan, plan_b = doc.check.plan, doc.check.plan_b
    if args.samples is not None:
        grid_count = at_least_two("--samples", args.samples)
        plan, plan_b = SamplePlan(grid_count, plan.jitter_count, plan.seed), None
    jitter, seed = args.jitter, args.seed
    if jitter is not None:
        nonnegative("--jitter", jitter)

    def overridden(p: SamplePlan) -> SamplePlan:
        return SamplePlan(p.grid_count, p.jitter_count if jitter is None else jitter,
                          p.seed if seed is None else seed)

    plan = overridden(plan)
    if plan_b is not None:
        plan_b = overridden(plan_b)
    tol = doc.check.tol if args.tol is None else args.tol
    settings = CheckSettings(plan, plan_b, tol, doc.check.budget, doc.check.range_b)
    given = doc.solve
    opts = SolveOptions(given.tol if args.tol is None else args.tol,
                        given.max_iter if args.max_iter is None else args.max_iter,
                        given.preimage_tol)
    return settings, opts


def run_checks(problem, settings: CheckSettings) -> list[tuple[str, CheckReport]]:
    """The full check pipeline, in a fixed order, as (slot, report) pairs."""
    plan, plan_b, tol = settings.plan, settings.plan_b, settings.tol
    space, a, b = problem.space, problem.subset_a, problem.subset_b
    reports = [("space", check_metric_axioms(space, plan, tol))]

    t_max = 2.0 * sampled_diameter(space, [a, b], plan)
    if t_max <= 0.0:
        t_max = 1.0
    coincidence = problem.kind == "coincidence"
    check_control = check_phi_class if coincidence else check_altering
    for slot in ("phi",) if coincidence else ("phi", "psi"):
        try:
            reports.append((slot, check_control(getattr(problem, slot), t_max, plan, tol)))
        except DomainError as exc:  # a control value beyond the float range
            raise DomainError(f"{slot}: {exc}") from exc

    # the output lists a check's worst MAX_JSON_VIOLATIONS violations only
    keep = MAX_JSON_VIOLATIONS
    reports.append(("coupling", check_coupling(problem.coupling, a, b, plan, plan_b, keep)))
    if coincidence:
        t = problem.self_map
        reports.append(("self_map", check_scc_map(t, a, b, plan, tol, plan_b, keep)))
        range_report = check_range_compatibility(
            problem.coupling, t, a, b, plan, tol, plan_b, settings.range_b, keep
        )
        reports.append(("range", range_report))
    contraction = check_phi_T_contraction if coincidence else check_phi_psi_contraction
    reports.append(("contraction", contraction(problem, plan, tol, plan_b, settings.budget, keep)))
    return reports


def render_trace_csv(trace: IterationTrace) -> str:
    """One row per completed transition, floats at 17 significant digits."""

    def fmt(v) -> str:
        if v is None:
            return ""
        return "%.17g" % v if isinstance(v, float) else str(v)

    lines = [TRACE_HEADER]
    for s in trace.steps:
        lines.append(
            f"{s.n},{fmt(s.x)},{fmt(s.y)},{fmt(s.tx)},{fmt(s.ty)},"
            f"{fmt(s.d)},{fmt(s.r)},{fmt(s.residual)}"
        )
    return "\n".join(lines) + "\n"


def _fmt_num(v) -> str:
    return "%g" % v if isinstance(v, float) else str(v)


def _fmt_set(values) -> str:
    return "{" + ", ".join(_fmt_num(v) for v in values) + "}"


def _check_to_json(slot: str, report: CheckReport) -> dict:
    entry = report.to_dict(keep=MAX_JSON_VIOLATIONS)
    entry["slot"] = slot
    return entry


def _print_checks(reports: list[tuple[str, CheckReport]]) -> None:
    for slot, r in reports:
        label = f"{r.property_name} ({slot})" if slot in ("phi", "psi") else r.property_name
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] {label}: samples={r.samples_tested} violations={r.violation_count}")
        if not r.passed and r.violations:
            worst, = r.violations.largest(1)
            print(f"       worst: lhs={_fmt_num(worst.lhs)} rhs={_fmt_num(worst.rhs)} "
                  f"witness={worst.witness}")
    failed = sum(1 for _, r in reports if not r.passed)
    if failed:
        print(f"{failed} of {len(reports)} checks failed")
    else:
        print(f"all {len(reports)} checks passed")


def _print_solve(start: tuple[Point, Point], report: SolveReport) -> None:
    sx, sy = start
    lines = [f"solve from ({_fmt_num(sx.value)}, {_fmt_num(sy.value)}):",
             f"  status: {report.status.value}",
             f"  iterations: {report.iterations_used}"]
    if report.candidate is not None:
        cx, cy = report.candidate
        lines.append(f"  candidate: x = {_fmt_num(cx.value)}, y = {_fmt_num(cy.value)}")
    if report.residuals:
        parts = ", ".join(
            f"{k} = {_fmt_num(report.residuals[k])}" for k in sorted(report.residuals)
        )
        lines.append(f"  residuals: {parts}")
    if report.failure:
        parts = ", ".join(f"{k}={_fmt_num(v)}" for k, v in report.failure.items())
        lines.append(f"  failure: {parts}")
    print("\n".join(lines))


def _write_file(path: str, text: str, what: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ParameterError(f"cannot write the {what} to {path}: {exc.strerror or exc}") from None


def _json_parts(value, parts: list, indent: str) -> None:
    """Append ``json.dumps(value, sort_keys=True, indent=2)`` at nesting ``indent`` to
    ``parts``, without json's pure-Python encoder; TypeError at a type no report holds."""
    t = type(value)
    if t is str:
        parts.append(encode_basestring_ascii(value))
    elif t is float:
        parts.append(repr(value) if value - value == 0.0 else
                     "NaN" if value != value else "Infinity" if value > 0 else "-Infinity")
    elif t is int or t is bool or value is None:
        parts.append("null" if value is None else "true" if value is True
                     else "false" if value is False else int.__repr__(value))
    elif t is dict or t is list or t is tuple:
        if t is dict and not all(type(key) is str for key in value):
            raise TypeError("a key that is not a str")
        brackets, inner = "{}" if t is dict else "[]", indent + "  "
        sep = brackets[0] + "\n" + inner
        for item in sorted(value) if t is dict else value:
            parts.append(sep + encode_basestring_ascii(item) + ": " if t is dict else sep)
            _json_parts(value[item] if t is dict else item, parts, inner)
            sep = ",\n" + inner
        parts.append("\n" + indent + brackets[1] if value else brackets)
    else:
        raise TypeError(f"a {t.__name__}")


def _emit_json(payload: dict, dest: str) -> None:
    parts: list[str] = []
    try:
        _json_parts(payload, parts, "")
        text = "".join(parts) + "\n"
    except TypeError:  # a type that no report holds
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if dest == "-":
        sys.stderr.write(text)
    else:
        _write_file(dest, text, "--json report")


def _report_payload(doc, checks, solve, exit_code, t0) -> dict:
    return {
        "tool_version": __version__,
        "problem_name": doc.name,
        "checks": checks,
        "solve": solve,
        "timing_ms": (time.perf_counter() - t0) * 1000.0,
        "exit_code": exit_code,
    }


def _resolve_starts(doc: ProblemDocument, args) -> tuple[tuple[Point, Point], ...]:
    raw = getattr(args, "start", None)
    if raw:
        return tuple((Point.real(x), Point.real(y)) for x, y in raw)
    if doc.starts:
        return doc.starts
    raise DocumentError(
        "no start points: pass --start x0 y0 or add solve.starts to the document"
    )


def _solve_and_report(doc, problem, starts, opts, args, t0, checks) -> int:
    """Solve from every start in one batch (``solve.iterate_starts``), print
    and write the results; the exit code.

    Only the first start records a trace, and only for ``--trace``.  The
    multi-start verdict is that of a strong problem with several starts,
    else None.  ``checks`` is the JSON check section of the report (``None``
    for ``solve`` or without ``--json``).
    """
    strong = problem.kind == "strong_coupled"
    reports, trace = iterate_starts(problem, starts, opts, record=bool(args.trace))
    verdict = multi_start_verdict(problem, reports, opts) if strong and len(starts) > 1 else None
    for start, report in zip(starts, reports):
        _print_solve(start, report)
    if verdict is not None:
        print(f"multi-start verdict: {verdict}")
    if args.trace:
        _write_file(args.trace, render_trace_csv(trace), "--trace CSV")
    exit_code = max(_STATUS_EXIT[r.status] for r in reports)
    if args.json_path:
        solve = {"runs": [r.to_dict() for r in reports], "verdict": verdict}
        _emit_json(_report_payload(doc, checks, solve, exit_code, t0), args.json_path)
    return exit_code


def _print_demo_facts(problem, reports) -> None:
    if problem.kind == "coincidence":
        det = next(r for slot, r in reports if slot == "self_map").details
        for key, label in (("image_A_values", "self-map image of A"),
                           ("image_B_values", "self-map image of B"),
                           ("image_intersection_values", "image intersection")):
            if det.get(key) is not None:
                print(f"{label}: {_fmt_set(det[key])}")
    else:
        inter = subset_intersection(problem.subset_a, problem.subset_b)
        shown = _fmt_set(subset_values(inter)) if inter is not None else "{}"
        print(f"intersection of A and B: {shown}")


def _run_command(doc: ProblemDocument, args, t0: float) -> int:
    """``check``, ``solve`` or ``demo`` (``args.command``) on one document;
    the exit code.

    ``check`` and ``demo`` share the check phase, and a failing check ends
    ``demo`` there; ``solve`` and ``demo`` share :func:`_solve_and_report`.
    A missing start raises before the header for ``solve`` and after the
    checks for ``demo``, with no JSON written.
    """
    problem = build_problem(doc)
    settings, opts = _apply_overrides(doc, args)
    starts = _resolve_starts(doc, args) if args.command == "solve" else None
    print(f"problem: {doc.name} ({problem.kind})")
    checks = None
    if args.command != "solve":
        reports = run_checks(problem, settings)
        _print_checks(reports)
        if args.json_path:
            checks = [_check_to_json(slot, r) for slot, r in reports]
        if args.command == "demo":
            _print_demo_facts(problem, reports)
        passed = all(r.passed for _, r in reports)
        if args.command == "check" or not passed:
            exit_code = 0 if passed else 1
            if args.json_path:
                _emit_json(_report_payload(doc, checks, None, exit_code, t0), args.json_path)
            return exit_code
        starts = _resolve_starts(doc, args)
    return _solve_and_report(doc, problem, starts, opts, args, t0, checks)


def _add_source_and_flags(sp, command: str) -> None:
    """Sampling flags for the commands that check, iteration flags for those that solve."""
    sp.add_argument("source", help="builtin problem name or path to a document")
    sp.add_argument("--tol", type=float, default=None, help="tolerance override")
    if command == "solve":
        sp.set_defaults(samples=None, jitter=None, seed=None)
    else:
        sp.add_argument("--samples", type=int, default=None, help="grid count override")
        sp.add_argument("--jitter", type=int, default=None, help="extra jittered samples")
        sp.add_argument("--seed", type=int, default=None, help="sampling seed override")
    sp.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        default=None,
        help="write the JSON report to PATH, or to stderr when '-'",
    )
    if command == "check":
        sp.set_defaults(trace=None, start=None, max_iter=None)
    else:
        sp.add_argument("--max-iter", type=int, default=None, help="step limit override")
        sp.add_argument(
            "--trace",
            metavar="PATH",
            default=None,
            help="write the first run's iteration trace as CSV",
        )
        sp.add_argument(
            "--start",
            nargs=2,
            type=float,
            action="append",
            metavar=("X0", "Y0"),
            help="start pair; repeat for multiple starts",
        )


#: A negative number that argparse takes for a value, not an option, when
#: no option looks like one.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _start_pair(values: list[str]) -> list[float] | None:
    """The two values of a ``--start`` as argparse converts them, or None
    unless both are arguments argparse reads as values and ``float`` takes."""
    if len(values) != 2 or any(v.startswith("-") and not _NEGATIVE_NUMBER.match(v) for v in values):
        return None
    try:
        return [float(v) for v in values]
    except ValueError:
        return None


def _collapse_starts(args: list[str], spellings: set[str]):
    """``args`` with each run of well-formed ``--start X0 Y0`` options in a
    row cut to its first option, and the pairs cut from each run, keyed by
    the ordinal of its first option among the ``--start`` options before
    ``--``.

    A well-formed option takes its two values and cannot fail, so argparse
    does with the kept arguments what it does with all of them, except that
    it appends only the first pair of each run.
    """
    kept: list[str] = []
    cut: dict[int, list[list[float]]] = {}
    count, run, i = 0, None, 0
    while i < len(args) and args[i] != "--":
        pair = _start_pair(args[i + 1:i + 3]) if args[i] in spellings else None
        if pair is None:
            count += args[i] in spellings
            kept.append(args[i])
            run, i = None, i + 1
        elif run is None:
            kept += args[i:i + 3]
            run, count, i = count, count + 1, i + 3
        else:
            cut.setdefault(run, []).append(pair)
            i += 3
    return kept + args[i:], cut


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with unusable arguments exiting 3, not argparse's 2 (the
    step-limit code); subcommand parsers are of the same class.

    argparse takes time quadratic in the number of options given, so a run
    of repeated ``--start`` options is parsed as its first one and the
    other pairs are put back after it: the namespace and the errors are
    argparse's own.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        spellings = self._start_spellings()
        if not spellings:
            return super().parse_known_args(args, namespace)
        args, cut = _collapse_starts(sys.argv[1:] if args is None else list(args), spellings)
        namespace, extras = super().parse_known_args(args, namespace)
        if cut:
            namespace.start = [p for k, pair in enumerate(namespace.start)
                               for p in (pair, *cut.get(k, ()))]
        return namespace, extras

    def _start_spellings(self) -> set[str]:
        """The arguments argparse reads as the ``--start`` option: its name
        and the abbreviations no other option shares."""
        names = self._option_string_actions
        if "--start" not in names:
            return set()
        prefixes = ("--start"[:m] for m in range(3, len("--start")))
        return {"--start"} | {p for p in prefixes if [s for s in names if s.startswith(p)] == ["--start"]}


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="couplefix",
        description="Check and solve coupled fixed point problems.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help in (("check", "run the sampled hypothesis checks"),
                          ("solve", "run the iteration engine"),
                          ("demo", "run checks, then solve from document starts")):
        _add_source_and_flags(sub.add_parser(command, help=help), command)
    sub.add_parser("list", help="list builtin problems")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in registry_names():
            print(name)
        return 0
    t0 = time.perf_counter()
    try:
        return _run_command(load_document(args.source), args, t0)
    except CoupleFixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
