"""The couplefix benchmark.

    python3 bench/run.py --workload check-pass --seed 1 --seconds 35 --trace 0

One run is one workload in its own process: a single client in a closed
loop, so a job starts only when the one before it has finished, and a pass
is the workload's job list run once.  Passes repeat for ``--seconds`` and
every output is verified (see ``jobs.py``).  With ``--trace 0`` the run
reports the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics
(see ``tracing.py`` and ``layers.json``) plus the tracing overhead.
``--workload all`` runs every workload, each in its own process.

Times are normalised for the speed of the shared host (see
``reference.py``): each job's wall seconds are rescaled by a fixed reference
loop timed right before and right after it, to the seconds the job takes on
a host that runs the loop in ``reference.REFERENCE_S``.  The raw wall times
are printed beside them and kept in the run's record.

End-to-end metrics (``--trace 0``), medians over the run's set-ups and
passes:

* ``setup_s``: importing couplefix and parsing and building every document
  the workload uses, in a fresh interpreter; median of several set-ups,
  each normalised by the reference timed in the same interpreter.
* ``pass_s``: normalised seconds of one pass, as the sum over the pass's
  jobs of each job's median.  On check-pass and check-fail this is the time
  of the check jobs (printed as ``check_s``); on solve-scan it is the solve
  jobs (``solve_s``) plus the brute-force scan (``scan_s``).
* ``samples_per_s``: samples of a pass over ``pass_s``.  For check jobs these are
  the ``samples_tested`` of every check in the ``--json`` report (printed as
  ``check_samples_per_s``), so a run that checks less reads as slower; for
  solve-scan they are the starts solved plus the brute-force pairs scanned.
* ``peak_rss_mb``: peak resident memory of the workload process.

The summary also prints ``failed_share``: jobs whose output failed
verification or raised, over jobs attempted, and the wall-clock
``setup_wall_s`` and ``pass_wall_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record of the run
(provenance, per-job times, effective grids, errors, and with tracing the
spans) is written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_RUNS = 9
#: Passes run even when one pass outlasts ``--seconds``.
MIN_PASSES = 2
#: Percentiles offered for the tail of a timed metric, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)

#: Imports couplefix and parses and builds the given builtin documents in a
#: fresh interpreter; prints the seconds that took, then the reference loop's
#: seconds right before and right after.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import reference
reference.loop()
before = reference.timed_loop()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import couplefix, couplefix.cli
for name in sys.argv[3:]:
    couplefix.build_problem(couplefix.builtin_registry(name))
t1 = time.perf_counter()
print(t1 - t0, before, reference.timed_loop())
"""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# provenance and statistics


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_before": os.getloadavg(),
    }


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest offered percentile with at least ten samples above it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def describe(name: str, unit: str, values: list[float], value: float | None = None,
             what: str = "median") -> str:
    """``name: value unit (what; pXX v; n=N)`` for a timed metric; ``value``
    is the median of ``values`` unless given, and the tail is of ``values``."""
    if value is None:
        value = statistics.median(values)
    t = tail(values)
    spread = f"p{t[0]} {t[1]:.6g}" if t else "no percentile has 10 samples above it"
    return f"{name}: {value:.6g} {unit} ({what}; {spread}; n={len(values)})"


# ---------------------------------------------------------------------------
# passes


class Run:
    """Everything one run measured, pass by pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.passes: list[dict] = []  # {"traced", "times": {job: s}, "kinds", "facts": [...]}
        self.grids: dict[str, dict] = {}

    def run_pass(self, jobs, tracer=None) -> None:
        """Run every job once.  The reference loop is timed between jobs, so
        each job has one right before and one right after it."""
        record = {"traced": tracer is not None, "times": {}, "norm": {}, "kinds": {},
                  "facts": []}
        before = reference.timed_loop()
        for job in jobs:
            self.attempted += 1
            t0 = perf_counter()
            try:
                if tracer is None:
                    raw = job.run()
                else:
                    tracer.job += 1
                    with tracer.span(job.span):
                        raw = job.run()
                elapsed = perf_counter() - t0
                after = reference.timed_loop()
                outcome = job.verify(raw)
            except Exception:  # a job that raises is a failed job; keep the traceback
                elapsed = perf_counter() - t0
                after = reference.timed_loop()
                errors = [f"{job.name} raised:\n{traceback.format_exc()}"]
            else:
                errors = outcome.errors
                record["facts"].append(outcome.facts)
                if "grid" in outcome.facts:
                    self.grids.setdefault(job.name, outcome.facts["grid"])
            record["times"][job.name] = elapsed
            record["norm"][job.name] = reference.normalise(elapsed, before, after)
            before = after
            record["kinds"][job.name] = job.kind
            if errors:
                self.failed += 1
                self.errors += errors
                for e in errors:
                    print(f"FAILED {e}", flush=True)
        self.passes.append(record)

    def loop(self, seconds: float, next_pass) -> None:
        """Run passes until the next one would end after ``seconds``."""
        t_start = perf_counter()
        walls: list[float] = []
        while True:
            elapsed = perf_counter() - t_start
            if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
                return
            t0 = perf_counter()
            next_pass(len(walls) + 1)
            walls.append(perf_counter() - t0)

    def totals(self, traced: bool, kinds=None, key: str = "norm") -> list[float]:
        """Per-pass seconds of the jobs of the given kinds (all kinds by
        default): normalised (``norm``) or wall (``times``) seconds."""
        return [
            sum(t for job, t in p[key].items() if kinds is None or p["kinds"][job] in kinds)
            for p in self.passes if p["traced"] == traced
        ]

    def pass_time(self, traced: bool, kinds=None, key: str = "norm") -> float:
        """The time of a typical pass: the sum over its jobs of each job's
        median over the run.  Every job has as many samples as there are
        passes, so a short job that met a slow moment of the host weighs
        no more than its own median allows."""
        passes = [p for p in self.passes if p["traced"] == traced]
        return sum(
            statistics.median(p[key][job] for p in passes)
            for job, kind in passes[0]["kinds"].items() if kinds is None or kind in kinds
        )

    def samples(self) -> list[float]:
        """Per-pass samples of the untraced passes."""
        return [sum(f.get("samples", 0) for f in p["facts"])
                for p in self.passes if not p["traced"]]


def measure_setup(names: tuple[str, ...]) -> tuple[list[float], list[float]]:
    """Normalised and wall seconds of ``SETUP_RUNS`` set-ups."""
    norm, wall = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(BENCH), str(SRC), *names],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, before, after = map(float, proc.stdout.split()[-3:])
        norm.append(reference.normalise(seconds, before, after))
        wall.append(seconds)
    return norm, wall


def end_to_end(run: Run, setup: tuple[list[float], list[float]],
               workload: str) -> tuple[dict, list[str]]:
    """The end-to-end metrics of an untraced run and their summary lines.
    ``setup`` holds the normalised and the wall seconds of the set-ups."""
    setup, setup_wall = setup
    pass_s = run.pass_time(False)
    rates = [s / t for s, t in zip(run.samples(), run.totals(False))]
    samples_per_s = statistics.median(run.samples()) / pass_s
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": pass_s,
        "samples_per_s": samples_per_s,
        "peak_rss_mb": rss_mb,
    }

    def part(name, kinds, key="norm"):
        return describe(name, "s", run.totals(False, kinds, key), run.pass_time(False, kinds, key),
                        "sum of per-job medians")

    lines = [
        describe("setup_s", "s", setup),
        part("pass_s", None),
        describe("samples_per_s", "1/s", rates, samples_per_s, "samples over pass_s"),
    ]
    if workload.startswith("check"):
        lines += [
            part("check_s", {"check"}),
            describe("check_samples_per_s", "1/s", rates, samples_per_s,
                     "samples over check_s"),
        ]
    else:
        lines += [part("solve_s", {"solve"}), part("scan_s", {"scan"})]
    lines += [
        describe("setup_wall_s", "s", setup_wall),
        part("pass_wall_s", None, "times"),
        f"peak_rss_mb: {rss_mb:.6g} MB",
    ]
    return metrics, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes=None, expect=None) -> tuple[Run, dict, list[str], list]:
    """Set up and run one workload; returns the run, its metrics, the summary
    lines and, when traced, the spans.  ``sizes`` and ``expect`` default to
    the benchmark's own (the self-test passes tiny sizes and wrong values)."""
    import couplefix
    import jobs

    sizes = sizes or jobs.Sizes()
    expect = expect or jobs.Expect()
    names = jobs.documents_used(workload)
    setup = ([], []) if trace else measure_setup(names)
    problems = {n: couplefix.build_problem(couplefix.builtin_registry(n)) for n in names}
    run = Run()
    spans = []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="jobs-", dir=OUT) as tmp:
        job_list = jobs.build_jobs(workload, seed, Path(tmp), problems, sizes, expect)
        if not trace:
            run.loop(seconds, lambda n: run.run_pass(job_list))
            metrics, lines = end_to_end(run, setup, workload)
        else:
            import tracing

            tracer = tracing.Tracer()
            counted = {k: tracer.counting_problem(p) for k, p in problems.items()}
            traced_jobs = jobs.build_jobs(workload, seed, Path(tmp), counted, sizes, expect)

            def next_pass(n):
                if n % 2:
                    run.run_pass(job_list)
                    return
                tracer.begin_pass(n)
                with tracing.instrument(tracer):
                    run.run_pass(traced_jobs, tracer)
                tracer.end_pass()

            run.loop(seconds, next_pass)
            metrics = tracing.layer_metrics(tracer, [p["facts"] for p in run.passes if p["traced"]])
            overhead = run.pass_time(True) - run.pass_time(False)
            metrics["trace.overhead_ms"] = overhead * 1e3
            layers = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))
            lines = [f"{k}: {v:.6g} [{layers[k]['layer']} -> {', '.join(layers[k]['moves'])}]"
                     for k, v in metrics.items()]
            if tracer.missing:
                lines.append(f"not traced (attribute missing): {', '.join(tracer.missing)}")
            spans = tracer.spans
    lines.append(f"failed_share: {run.failed / run.attempted:.6g} "
                 f"({run.failed} of {run.attempted} jobs)")
    for job, row in run.grids.items():
        lines.append(f"grid {job}: " + " ".join(f"{k}={v}" for k, v in row.items()))
    return run, metrics, lines, spans


def result_line(run: Run, metrics: dict, declared: list[dict]) -> str:
    """The final stdout line; the metric names must be exactly the declared ones."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise ValueError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    return json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "couplefix" / "__init__.py").is_file():
        print(f"error: no couplefix sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(names, args)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names} or all")
    sys.path.insert(0, str(SRC))
    import couplefix

    if not Path(couplefix.__file__).resolve().is_relative_to(SRC):
        print(f"error: couplefix imported from {couplefix.__file__}, not {SRC}", file=sys.stderr)
        return 2

    prov = provenance()
    run, metrics, lines, spans = run_workload(args.workload, args.seed, args.seconds,
                                              bool(args.trace))
    last = result_line(run, metrics, spec["per_layer" if args.trace else "end_to_end"])
    prov["loadavg_after"] = os.getloadavg()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "provenance": prov, "metrics": metrics, "summary": lines, "grids": run.grids,
              "passes": run.passes, "errors": run.errors}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans:
        (OUT / f"{tag}-spans.jsonl").write_text(
            "".join(json.dumps(vars(s)) + "\n" for s in spans), encoding="utf-8")
    print("provenance: " + json.dumps(prov))
    print("\n".join(lines))
    print(last)
    return 0


def run_all(names: list[str], args) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
