"""Golden report of a check that records coupling and range violations.

Every run in ``test_golden.py`` passes its coupling and range checks.  The
document ``escaping-coupling.yaml`` has an F that leaves B and swapped
images that miss T(A), so this run pins how both checks record, order and
report their violations, byte for byte.
"""

from pathlib import Path

from test_golden import GOLDEN, run_case

DOCUMENT = Path(__file__).with_name("escaping-coupling.yaml")


def test_failing_check_matches_golden(tmp_path, capsys):
    code, out, payload, _ = run_case(["check", str(DOCUMENT)], tmp_path, capsys)
    assert code == 1
    assert out == (GOLDEN / "check-escaping-coupling.stdout").read_text(encoding="utf-8")
    assert payload == (GOLDEN / "check-escaping-coupling.json").read_text(encoding="utf-8")
