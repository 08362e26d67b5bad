"""Golden report of a check that records coupling and range violations.

Every run in ``test_golden.py`` passes its coupling and range checks.  The
document ``escaping-coupling.yaml`` has an F that leaves B and swapped
images that miss T(A), so this run pins how both checks record, order and
report their violations, byte for byte.  ``escaping-one-sample.yaml`` has
A = B, so both checks scan one sample against itself, where F(y, x) over
the sample is F(x, y) transposed.
"""

from pathlib import Path

from test_golden import GOLDEN, run_case

DOCUMENT = Path(__file__).with_name("escaping-coupling.yaml")
ONE_SAMPLE = Path(__file__).with_name("escaping-one-sample.yaml")


def test_failing_check_matches_golden(tmp_path, capsys):
    code, out, payload, _ = run_case(["check", str(DOCUMENT)], tmp_path, capsys)
    assert code == 1
    assert out == (GOLDEN / "check-escaping-coupling.stdout").read_text(encoding="utf-8")
    assert payload == (GOLDEN / "check-escaping-coupling.json").read_text(encoding="utf-8")


def test_failing_one_sample_check_matches_golden(tmp_path, capsys):
    code, out, payload, _ = run_case(["check", str(ONE_SAMPLE)], tmp_path, capsys)
    assert code == 1
    assert out == (GOLDEN / "check-escaping-one-sample.stdout").read_text(encoding="utf-8")
    assert payload == (GOLDEN / "check-escaping-one-sample.json").read_text(encoding="utf-8")
