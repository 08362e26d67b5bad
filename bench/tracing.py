"""Traced runs: spans around calls into each couplefix layer, from outside it.

Nothing in ``couplefix`` knows about tracing.  ``instrument`` replaces the
module attributes through which the command line reaches each layer with
wrappers that record a span (name, start, end, parent span, job id, pass),
and restores them on exit.  Calls too frequent for a span each (the
coupling F, the self map T and ``eval_control`` inside the contraction
kernel) get counters of calls and busy time instead, charged as child time
to the span they run in, so every layer's self time stays exact.

A span's layer is the part of its name before the first dot.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import statistics
from dataclasses import dataclass
from time import perf_counter

from couplefix import CouplingMap, SelfMap, cli, documents, report, solve
from couplefix import checks as checks_mod

LAYERS = ("documents", "expr", "controls", "metric", "checks", "report", "cli", "solve")

#: (module, attribute, span name): the public calls each layer is entered by.
#: ``cli`` imports most of them by name, so the wrapper goes where the
#: caller looks the name up.
SPAN_POINTS = (
    (documents, "parse_problem", "documents.parse"),
    (cli, "build_problem", "documents.build"),
    (cli, "run_checks", "cli.run_checks"),
    (cli, "check_metric_axioms", "metric.axioms"),
    (cli, "sampled_diameter", "metric.diameter"),
    (cli, "check_phi_class", "controls.class_check"),
    (cli, "check_altering", "controls.class_check"),
    (cli, "check_coupling", "checks.coupling"),
    (cli, "check_scc_map", "checks.scc_map"),
    (cli, "check_range_compatibility", "checks.range"),
    (cli, "check_phi_T_contraction", "checks.contraction"),
    (cli, "check_phi_psi_contraction", "checks.contraction"),
    (report.CheckReport, "to_dict", "report.to_dict"),
    (cli, "_emit_json", "cli.json"),
    (cli, "iterate_coincidence", "solve.iterate"),
    (cli, "iterate_strong_coupled", "solve.iterate"),
    (solve, "iterate_strong_coupled", "solve.iterate"),
    (cli, "multi_start_unique", "solve.multi_start"),
    (solve, "grid_preimage", "solve.preimage"),
)

#: Counters: name -> layer their busy time belongs to.
COUNTERS = {"f": "expr", "t": "expr", "control": "controls"}


@dataclass
class Span:
    name: str
    job: int
    pass_no: int
    parent: int | None
    start: float
    end: float = 0.0
    child: float = 0.0  # time covered by child spans and counted calls

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = 0
        self.pass_no = 0
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.pass_counters: dict[int, tuple[dict, dict]] = {}
        self._stack: list[int] = []
        self.missing: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sp = Span(name, self.job, self.pass_no,
                  self._stack[-1] if self._stack else None, perf_counter())
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()
            if sp.parent is not None:
                self.spans[sp.parent].child += sp.end - sp.start

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def counted(self, fn, key: str):
        """Count calls of ``fn`` and their busy time, without a span each."""
        self.calls.setdefault(key, 0)
        self.busy.setdefault(key, 0.0)
        calls, busy, stack, spans = self.calls, self.busy, self._stack, self.spans

        def call(*args):
            t0 = perf_counter()
            out = fn(*args)
            dt = perf_counter() - t0
            calls[key] += 1
            busy[key] += dt
            if stack:
                spans[stack[-1]].child += dt
            return out

        return call

    def begin_pass(self, pass_no: int) -> None:
        self.pass_no = pass_no
        for key in self.calls:
            self.calls[key], self.busy[key] = 0, 0.0

    def end_pass(self) -> None:
        self.pass_counters[self.pass_no] = (dict(self.calls), dict(self.busy))

    def counting_problem(self, problem):
        """The same problem with F and T behind counters, built with the
        public ``CouplingMap`` / ``SelfMap`` constructors."""
        f = problem.coupling
        changes = {"coupling": CouplingMap(self.counted(f.fn, "f"), source=f.source)}
        t = getattr(problem, "self_map", None)
        if t is not None:
            changes["self_map"] = SelfMap(self.counted(t.fn, "t"),
                                          preimage_fn=t.preimage_fn, source=t.source)
        return dataclasses.replace(problem, **changes)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the command line's calls into every layer through ``tracer``."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for owner, attr, name in SPAN_POINTS:
            if attr in owner.__dict__:
                patch(owner, attr, tracer.wrap(owner.__dict__[attr], name))
            else:
                tracer.missing.append(f"{owner.__name__}.{attr}")
        patch(checks_mod, "eval_control", tracer.counted(checks_mod.eval_control, "control"))
        build = cli.build_problem

        def build_counting(doc):
            built = build(doc)
            with tracer.span("bench.instrument"):
                return tracer.counting_problem(built)

        patch(cli, "build_problem", build_counting)
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _per_call(calls: int, busy: float, scale: float) -> float:
    return busy / calls * scale if calls else 0.0


def layer_metrics(tracer: Tracer, passes: list[dict]) -> dict[str, float]:
    """Per-layer numbers of the traced passes.

    ``*_ms`` span metrics are milliseconds per pass (median over traced
    passes), except ``documents.parse_ms`` / ``build_ms``, which are per
    call; ``*_us`` metrics are microseconds per call over the whole run;
    counts are per pass (median).  ``passes`` holds, per traced pass, the
    facts its jobs reported.
    """
    traced = sorted(tracer.pass_counters)
    by_pass = {p: {} for p in traced}  # span name -> seconds
    n_by_pass = {p: {} for p in traced}  # span name -> spans
    self_by_pass = {p: {layer: 0.0 for layer in LAYERS} for p in traced}
    for s in tracer.spans:
        if s.pass_no not in by_pass:
            continue
        by_pass[s.pass_no][s.name] = by_pass[s.pass_no].get(s.name, 0.0) + s.end - s.start
        n_by_pass[s.pass_no][s.name] = n_by_pass[s.pass_no].get(s.name, 0) + 1
        if s.layer in self_by_pass[s.pass_no]:
            self_by_pass[s.pass_no][s.layer] += s.self_time
    for p, (_, busy) in tracer.pass_counters.items():
        for key, layer in COUNTERS.items():
            self_by_pass[p][layer] += busy.get(key, 0.0)

    def ms(name):
        return _median([by_pass[p].get(name, 0.0) * 1e3 for p in traced])

    def per_call_ms(name):
        return _median([(s.end - s.start) * 1e3 for s in tracer.spans if s.name == name])

    def per_pass(key, agg=sum):
        values = ([f[key] for f in pf if key in f] for pf in passes)
        return [agg(v) for v in values if v]

    def fact(key, agg=sum):
        return _median(per_pass(key, agg))

    counters = tracer.pass_counters.values()
    calls = {k: sum(c.get(k, 0) for c, _ in counters) for k in COUNTERS}
    busy = {k: sum(b.get(k, 0.0) for _, b in counters) for k in COUNTERS}

    def rate(work, name):
        t = sum(by_pass[p].get(name, 0.0) for p in traced)
        return sum(work) / t if t > 0 else 0.0

    runs, converged = sum(per_pass("runs")), sum(per_pass("converged"))
    cli_main = [s for s in tracer.spans if s.name == "cli.main" and s.pass_no in by_pass]

    out = {
        "documents.parse_ms": per_call_ms("documents.parse"),
        "documents.build_ms": per_call_ms("documents.build"),
        "expr.eval_us": _per_call(calls["f"] + calls["t"], busy["f"] + busy["t"], 1e6),
        "problems.f_calls": _median([c.get("f", 0) for c, _ in counters]),
        "problems.t_calls": _median([c.get("t", 0) for c, _ in counters]),
        "controls.eval_us": _per_call(calls["control"], busy["control"], 1e6),
        "controls.class_check_ms": ms("controls.class_check"),
        "metric.axioms_ms": ms("metric.axioms"),
        "metric.axioms_triples_per_s": rate(per_pass("axiom_samples"), "metric.axioms"),
        "metric.diameter_ms": ms("metric.diameter"),
        "checks.contraction_ms": ms("checks.contraction"),
        "checks.contraction_quads": fact("quadruples"),
        "checks.contraction_quads_total": fact("total_quadruples"),
        "checks.contraction_quads_per_s": rate(per_pass("quadruples"), "checks.contraction"),
        "checks.stride": fact("stride", agg=max),
        "checks.points_per_axis": fact("points_per_axis", agg=min),
        "checks.coupling_ms": ms("checks.coupling"),
        "checks.range_ms": ms("checks.range"),
        "checks.scc_map_ms": ms("checks.scc_map"),
        "checks.violations": fact("violations"),
        "report.to_dict_ms": ms("report.to_dict"),
        "cli.json_ms": ms("cli.json"),
        "cli.overhead_ms": _median([
            sum(s.self_time for s in cli_main if s.pass_no == p) * 1e3 for p in traced
        ]),
        "solve.iterate_ms": ms("solve.iterate"),
        "solve.steps": fact("steps"),
        "solve.preimage_us": _median(
            [(s.end - s.start) * 1e6 for s in tracer.spans if s.name == "solve.preimage"]
        ),
        "solve.preimage_calls": _median(
            [n_by_pass[p].get("solve.preimage", 0) for p in traced]),
        "solve.converged_share": converged / runs if runs else 0.0,
        "solve.multi_start_ms": ms("solve.multi_start"),
        "solve.brute_ms": ms("solve.brute"),
        "solve.brute_pairs_per_s": rate(per_pass("pairs_scanned"), "solve.brute"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = _median([self_by_pass[p][layer] * 1e3 for p in traced])
    return out
