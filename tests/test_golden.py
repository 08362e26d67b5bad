"""Golden reports: the command line's output for fixed runs, byte for byte.

Each case runs ``couplefix`` in-process and compares its exit code, its
stdout, its ``--json`` report with the ``timing_ms`` lines dropped, and (for
``--trace`` runs) the trace CSV against the files under ``tests/golden/``.
The files are the reference: a deliberate change of output edits them by
hand and says why.
"""

from pathlib import Path

import pytest

from couplefix.cli import main

GOLDEN = Path(__file__).with_name("golden")
DOCUMENTS = Path(__file__).parent

CASES = {
    "demo-banach-linear": ["demo", "banach-linear"],
    "demo-example-2.1.9": ["demo", "example-2.1.9"],
    "demo-example-2.2.3": ["demo", "example-2.2.3"],
    "demo-negative-midpoint": ["demo", "negative-midpoint"],
    "check-banach-linear-81": [
        "check", "banach-linear", "--samples", "81", "--jitter", "2", "--seed", "5",
    ],
    "check-example-2.1.9-81": [
        "check", "example-2.1.9", "--samples", "81", "--jitter", "2", "--seed", "5",
    ],
    "check-example-2.2.3-tiny-tol": [
        "check", "example-2.2.3", "--tol", "1e-17", "--jitter", "2", "--seed", "4",
    ],
    "check-negative-midpoint-81": [
        "check", "negative-midpoint", "--samples", "81", "--jitter", "2", "--seed", "5",
    ],
    "demo-expr-capped": ["demo", str(DOCUMENTS / "expr-capped.yaml")],
    "check-expr-minmax": ["check", str(DOCUMENTS / "expr-minmax.yaml")],
    "check-inverse-coincidence-81": [
        "check", str(DOCUMENTS / "inverse-coincidence.yaml"), "--samples", "81", "--jitter",
        "2", "--seed", "5",
    ],
    # stride 1 at grid 41: 199,680 violations, 99,680 of them past the cap
    "check-negative-midpoint-full-41": [
        "check", str(DOCUMENTS / "negative-midpoint-full.yaml"), "--samples", "41",
    ],
    # stride 1 at grid 41: every quadruple tested, and the check passes
    "check-banach-linear-full-41": [
        "check", str(DOCUMENTS / "banach-linear-full.yaml"), "--samples", "41",
    ],
    "check-tent-strong-81": [
        "check", str(DOCUMENTS / "tent-strong.yaml"), "--samples", "81", "--jitter", "2",
        "--seed", "5",
    ],
    "solve-banach-linear-trace": [
        "solve", "banach-linear", "--start", "0", "1", "--start", "0.5", "0.25", "--trace",
    ],
    "solve-inverse-coincidence-trace": [
        "solve", str(DOCUMENTS / "inverse-coincidence.yaml"), "--trace",
    ],
    "solve-example-2.1.9-trace": [
        "solve", "example-2.1.9", "--start", "1", "1", "--start", "1", "3", "--trace",
    ],
    # untraced runs: a multi-start verdict, a converged and a failed
    # preimage search, a step limit, and an orbit that leaves its subsets
    "solve-banach-linear-three-starts": [
        "solve", "banach-linear", "--start", "0", "1", "--start", "0.3", "0.7",
        "--start", "1", "1",
    ],
    "solve-example-2.1.9-three-starts": [
        "solve", "example-2.1.9", "--start", "1", "1", "--start", "1", "3",
        "--start", "0.5", "2",
    ],
    "solve-banach-linear-max-iter-3": [
        "solve", "banach-linear", "--start", "0", "1", "--start", "1", "1", "--max-iter", "3",
    ],
    "solve-escaping-orbit": ["solve", str(DOCUMENTS / "escaping-orbit.yaml")],
}


def without_timing(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if '"timing_ms"' not in l) + "\n"


def run_case(argv, tmp_path, capsys):
    """(exit code, stdout, JSON without timing, trace CSV or None) of one run."""
    argv = list(argv)
    trace = None
    if argv[-1] == "--trace":
        trace = tmp_path / "trace.csv"
        argv.append(str(trace))
    report = tmp_path / "report.json"
    capsys.readouterr()
    code = main(argv + ["--json", str(report)])
    out = capsys.readouterr().out
    csv = trace.read_text(encoding="utf-8") if trace is not None else None
    return code, out, without_timing(report.read_text(encoding="utf-8")), csv


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, capsys):
    code, out, payload, csv = run_case(CASES[name], tmp_path, capsys)
    assert out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    assert payload == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert f'"exit_code": {code}' in payload
    if csv is not None:
        assert csv == (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
