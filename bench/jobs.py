"""Workloads of the couplefix benchmark: generated inputs, jobs and output checks.

A workload is a fixed list of jobs that run one after another as a *pass*.
Each job calls a public entry point the way a user does:
``couplefix.cli.main`` with stdout captured and ``--json`` written to a file,
or ``couplefix.solve.brute_force_search``.  Its ``verify`` compares the
output with values derived from the mathematics of the problem (never with
values recorded from an earlier run) and returns the list of mismatches, so
a wrong answer counts as a failed job instead of a fast one.

The workload seed only shapes the inputs: the ``--seed`` passed to the check
jobs, which places their jittered sample points, and the start points of the
solve jobs.  The expected outputs below hold for every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from couplefix import SamplePlan, brute_force_search, cli

WORKLOADS = ("check-pass", "check-fail", "solve-scan")

#: Documented exit codes of the ``couplefix`` command.
EXIT_OK, EXIT_VIOLATIONS, EXIT_PREIMAGE = 0, 1, 4


@dataclass(frozen=True)
class Sizes:
    """How much work one pass does."""

    samples: int = 81  # --samples of every check job
    jitter: int = 2  # --jitter of every check job; the seed places the points
    coincidence_starts: int = 100  # half with y0 <= 2, half with y0 > 2
    coincidence_chunk: int = 10  # starts per `solve example-2.1.9` call
    banach_starts: int = 300
    brute_grid: int = 201  # brute-force grid per axis on example-2.1.9


#: A few seconds for the whole self-test.
TINY = Sizes(samples=9, jitter=2, coincidence_starts=4, coincidence_chunk=2,
             banach_starts=4, brute_grid=21)


@dataclass(frozen=True)
class Expect:
    """What the mathematics of each builtin problem says its outputs must be.

    * example-2.1.9 and banach-linear satisfy every hypothesis, so every
      check passes; negative-midpoint breaks only the contraction
      inequality (the midpoint map has ratio 1/2 on the diagonal direction
      but phi(t) = t/10 asks for psi(M) - phi(M) = 0.9 M).
    * example-2.1.9: T = 2 on A = [0, 2], and F = 2 on [0, 2]^2, so a start
      with y0 <= 2 already is a coincidence pair and the iteration stops on
      it.  For y0 > 2 the first target F(y0, x0) = (x0 + y0)/24 is not in
      T(A) = {2}, so the preimage step must fail.
    * banach-linear (k = 1/2): F(x, y) = (x + y)/4 + 1/4 has the unique
      strong coupled fixed point 1/2.
    * brute force on example-2.1.9: the coincidence pairs on an n x n grid
      of A x B are all (a, b) with b <= 2, that is n * ((n - 1)//2 + 1).
    """

    check_exit_pass: int = EXIT_OK
    check_exit_fail: int = EXIT_VIOLATIONS
    failing_slots: tuple[str, ...] = ("contraction",)
    coincidence_split: float = 2.0
    banach_fixed_point: float = 0.5
    witnesses_rechecked: int = 3


def brute_force_pairs(n: int) -> int:
    """Coincidence pairs of example-2.1.9 on the n x n grid of [0, 2] x [0, 4]."""
    return n * ((n - 1) // 2 + 1)


@dataclass
class Outcome:
    """What one job produced, after verification."""

    errors: list[str]
    facts: dict = field(default_factory=dict)


@dataclass
class Job:
    """One closed-loop request: ``run`` is timed, ``verify`` is not."""

    name: str
    kind: str  # "check", "solve" or "scan"
    run: Callable[[], object]
    verify: Callable[[object], Outcome]
    span: str = "cli.main"  # span name of the whole job in a traced run


@dataclass
class CliResult:
    exit_code: int
    report: dict


def cli_job(name: str, kind: str, argv: list[str], json_path: Path,
            verify: Callable[[CliResult], Outcome]) -> Job:
    """A job that runs ``couplefix <argv> --json <json_path>`` in-process."""
    argv = [*argv, "--json", str(json_path)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(code) -> Outcome:
        try:
            report = json.loads(json_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return Outcome([f"{name}: no readable --json report ({exc})"])
        json_path.unlink()
        return verify(CliResult(code, report))

    return Job(name, kind, run, check)


# ---------------------------------------------------------------------------
# check jobs


def _fourth_root(n: int) -> int | None:
    r = round(n ** 0.25)
    for c in (r - 1, r, r + 1):
        if c >= 0 and c ** 4 == n:
            return c
    return None


def grid_row(entry: dict, full_points: int) -> tuple[dict, list[str]]:
    """The effective grid of a contraction check, and what is wrong with it.

    Both subsets are single intervals sampled with the same plan, so the
    full grid has ``full_points`` per axis and the thinned one the same
    number of points on the A and B axes.
    """
    details = entry.get("details") or {}
    quads = entry.get("samples_tested")
    total = details.get("total_quadruples")
    stride = details.get("stride")
    points = _fourth_root(quads) if isinstance(quads, int) else None
    row = {
        "stride": stride,
        "points_per_axis_a": points,
        "points_per_axis_b": points,
        "quadruples": quads,
        "total_quadruples": total,
    }
    errors = []
    if total != full_points ** 4:
        errors.append(f"total_quadruples {total} != {full_points}^4")
    if points is None or points < 2 or quads > total:
        errors.append(f"{quads} quadruples is not a square grid of at most {total}")
    if not isinstance(stride, int) or stride < 1:
        errors.append(f"stride {stride!r} is not a positive integer")
    return row, errors


def _contraction_witness_errors(entry: dict, count: int, tol: float) -> list[str]:
    """Re-evaluate negative-midpoint witnesses: F = (x + y)/2, phi = t/10, psi = t."""
    errors = []
    shown = entry.get("violations") or []
    if not shown:
        return ["contraction failed without a reported witness"]
    for v in shown[:count]:
        tag, x, y, u, v2 = v["witness"]
        lhs = abs((x + y) / 2 - (u + v2) / 2)
        m = max(abs(x - u), abs(y - v2))
        rhs = m - m / 10
        if tag != "contraction" or not lhs > rhs + tol:
            errors.append(f"witness {v['witness']} does not violate: {lhs} <= {rhs} + {tol}")
        elif abs(lhs - v["lhs"]) > 1e-12 or abs(rhs - v["rhs"]) > 1e-12:
            errors.append(f"witness {v['witness']} reports lhs/rhs {v['lhs']}/{v['rhs']}, "
                          f"plain arithmetic gives {lhs}/{rhs}")
    return errors


def check_verifier(problem: str, sizes: Sizes, expect: Expect, fails: bool, seed: int):
    full = sizes.samples + sizes.jitter
    want_exit = expect.check_exit_fail if fails else expect.check_exit_pass
    want_failing = set(expect.failing_slots) if fails else set()

    def verify(res: CliResult) -> Outcome:
        errors = []
        report = res.report
        if res.exit_code != want_exit:
            errors.append(f"exit code {res.exit_code}, expected {want_exit}")
        if report.get("exit_code") != res.exit_code:
            errors.append(f"--json exit_code {report.get('exit_code')} != {res.exit_code}")
        checks = {c["slot"]: c for c in report.get("checks") or []}
        failing = {slot for slot, c in checks.items() if c["verdict"] == "fail"}
        if failing != want_failing:
            errors.append(f"failing checks {sorted(failing)}, expected {sorted(want_failing)}")
        contraction = checks.get("contraction")
        facts = {
            "samples": sum(c["samples_tested"] for c in checks.values()),
            "violations": sum(c["violation_count"] for c in checks.values()),
            "axiom_samples": checks["space"]["samples_tested"] if "space" in checks else 0,
        }
        if contraction is None:
            errors.append("no contraction check in the report")
        else:
            row, grid_errors = grid_row(contraction, full)
            errors += grid_errors
            facts.update(row, points_per_axis=row["points_per_axis_a"],
                         grid=dict(row, jitter=sizes.jitter, seed=seed))
            if fails:
                if contraction["violation_count"] < 1:
                    errors.append("contraction reported no violations")
                errors += _contraction_witness_errors(
                    contraction, expect.witnesses_rechecked, 1e-9)
        return Outcome([f"{problem}: {e}" for e in errors], facts)

    return verify


# ---------------------------------------------------------------------------
# solve jobs


def coincidence_starts(rng: random.Random, count: int) -> list[tuple[float, float]]:
    """Starts over A x B = [0, 2] x [0, 4], half with y0 <= 2 and half with y0 > 2.

    The split is fixed so that every seed asks for the same amount of
    preimage searching; only the positions move.
    """
    starts = []
    for i in range(count):
        x0 = 2.0 * rng.random()
        y0 = 2.0 * rng.random() if i % 2 == 0 else 4.0 - 2.0 * rng.random()
        starts.append((x0, y0))
    return starts


def coincidence_verifier(starts, expect: Expect):
    def verify(res: CliResult) -> Outcome:
        errors = []
        runs = (res.report.get("solve") or {}).get("runs") or []
        if len(runs) != len(starts):
            return Outcome([f"example-2.1.9: {len(runs)} runs for {len(starts)} starts"])
        any_failure = False
        for (x0, y0), run in zip(starts, runs):
            if y0 <= expect.coincidence_split:
                cand = run.get("candidate") or {}
                if run["status"] != "Converged" or (cand.get("x"), cand.get("y")) != (x0, y0):
                    errors.append(f"start ({x0!r}, {y0!r}): {run['status']} at {cand}, "
                                  "expected Converged at the start pair")
            else:
                any_failure = True
                if run["status"] != "PreimageFailure":
                    errors.append(f"start ({x0!r}, {y0!r}): {run['status']}, "
                                  "expected PreimageFailure")
        want_exit = EXIT_PREIMAGE if any_failure else EXIT_OK
        if res.exit_code != want_exit:
            errors.append(f"exit code {res.exit_code}, expected {want_exit}")
        facts = _solve_facts(runs)
        return Outcome([f"example-2.1.9: {e}" for e in errors], facts)

    return verify


def banach_verifier(starts, expect: Expect, tol: float = 1e-9):
    fixed = expect.banach_fixed_point

    def verify(res: CliResult) -> Outcome:
        errors = []
        solve = res.report.get("solve") or {}
        runs = solve.get("runs") or []
        if len(runs) != len(starts):
            errors.append(f"{len(runs)} runs for {len(starts)} starts")
        if solve.get("verdict") != "consistent":
            errors.append(f"multi-start verdict {solve.get('verdict')!r}, expected 'consistent'")
        for (x0, y0), run in zip(starts, runs):
            cand = run.get("candidate") or {}
            near = all(
                isinstance(cand.get(k), float) and abs(cand[k] - fixed) <= 10 * tol
                for k in ("x", "y")
            )
            if run["status"] != "Converged" or not near:
                errors.append(f"start ({x0!r}, {y0!r}): {run['status']} at {cand}, "
                              f"expected Converged at {fixed}")
        if res.exit_code != EXIT_OK:
            errors.append(f"exit code {res.exit_code}, expected {EXIT_OK}")
        return Outcome([f"banach-linear: {e}" for e in errors], _solve_facts(runs))

    return verify


def _solve_facts(runs: list[dict]) -> dict:
    return {
        "samples": len(runs),
        "runs": len(runs),
        "converged": sum(1 for r in runs if r["status"] == "Converged"),
        "steps": sum(r["iterations_used"] for r in runs),
    }


def brute_job(problem, sizes: Sizes) -> Job:
    n = sizes.brute_grid
    plan = SamplePlan(grid_count=n)
    want = brute_force_pairs(n)

    def run():
        return brute_force_search(problem, plan)

    def verify(pairs) -> Outcome:
        errors = []
        if len(pairs) != want:
            errors.append(f"{len(pairs)} pairs, expected {n} x {(n - 1) // 2 + 1} = {want}")
        bad = [(a.value, b.value) for a, b in pairs
               if not (0.0 <= a.value <= 2.0 and 0.0 <= b.value <= 2.0)]
        if bad:
            errors.append(f"{len(bad)} pairs outside [0, 2] x [0, 2], first {bad[0]}")
        facts = {"samples": n * n, "pairs_scanned": n * n, "pairs_found": len(pairs)}
        return Outcome([f"brute force: {e}" for e in errors], facts)

    return Job("brute-force example-2.1.9", "scan", run, verify, span="solve.brute")


# ---------------------------------------------------------------------------
# workloads


def documents_used(workload: str) -> tuple[str, ...]:
    return {
        "check-pass": ("example-2.1.9", "banach-linear"),
        "check-fail": ("negative-midpoint",),
        "solve-scan": ("example-2.1.9", "banach-linear"),
    }[workload]


def build_jobs(workload: str, seed: int, workdir: Path, problems: dict,
               sizes: Sizes = Sizes(), expect: Expect = Expect()) -> list[Job]:
    """The jobs of one pass, with inputs drawn from ``seed``.

    ``problems`` maps document names to problems built during set-up; only
    jobs that call a library function directly use them.
    """
    rng = random.Random(seed)
    check_seed = rng.randrange(2 ** 31)

    def check(problem: str, fails: bool) -> Job:
        argv = ["check", problem, "--samples", str(sizes.samples),
                "--jitter", str(sizes.jitter), "--seed", str(check_seed)]
        verify = check_verifier(problem, sizes, expect, fails, check_seed)
        return cli_job(f"check {problem}", "check", argv, workdir / f"{problem}.json", verify)

    if workload == "check-pass":
        return [check("example-2.1.9", False), check("banach-linear", False)]
    if workload == "check-fail":
        return [check("negative-midpoint", True)]
    if workload != "solve-scan":
        raise ValueError(f"unknown workload {workload!r}")

    c_starts = coincidence_starts(rng, sizes.coincidence_starts)
    b_starts = [(rng.random(), rng.random()) for _ in range(sizes.banach_starts)]

    def start_args(starts):
        return [a for x0, y0 in starts for a in ("--start", repr(x0), repr(y0))]

    # Short calls of a few starts each, rather than one long call, so that
    # every call is timed against the host speed of its own moment (see
    # reference.py) and a run holds many of them.
    step = sizes.coincidence_chunk
    chunks = [c_starts[i:i + step] for i in range(0, len(c_starts), step)]
    return [
        *(cli_job(f"solve example-2.1.9 #{k}", "solve",
                  ["solve", "example-2.1.9", *start_args(chunk)],
                  workdir / f"solve-coincidence-{k}.json", coincidence_verifier(chunk, expect))
          for k, chunk in enumerate(chunks)),
        cli_job("solve banach-linear", "solve",
                ["solve", "banach-linear", *start_args(b_starts)],
                workdir / "solve-banach.json", banach_verifier(b_starts, expect)),
        brute_job(problems["example-2.1.9"], sizes),
    ]
