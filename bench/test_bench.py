"""Self-test of the benchmark: every workload at a tiny size, in seconds.

    python3 -m pytest bench
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import run  # noqa: E402

SPEC = run.load_spec()
LAYERS = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

#: One deliberately wrong expectation per workload.
WRONG = {
    "check-pass": {"check_exit_pass": jobs.EXIT_VIOLATIONS},
    "check-fail": {"failing_slots": ("space",)},
    "solve-scan": {"banach_fixed_point": 0.25},
}


def tiny(workload, trace=False, **wrong):
    return run.run_workload(workload, seed=5, seconds=0.0, trace=trace,
                            sizes=jobs.TINY, expect=jobs.Expect(**wrong))


def test_declared_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(jobs.WORKLOADS)


def test_layer_map_covers_every_per_layer_metric():
    assert set(LAYERS) == PER_LAYER
    for name, row in LAYERS.items():
        assert set(row["moves"]) <= END_TO_END, name
        assert set(row["shows_on"]) | set(row["flat_on"]) <= set(jobs.WORKLOADS), name


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_tiny_workload_is_correct_and_reports_declared_metrics(workload):
    result, metrics, lines, _ = tiny(workload)
    assert result.failed == 0, result.errors
    assert result.attempted >= len(jobs.documents_used(workload))
    assert set(metrics) == END_TO_END
    assert all(v > 0 for v in metrics.values()), metrics
    line = json.loads(run.result_line(result, metrics, SPEC["end_to_end"]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert any(s.startswith("failed_share: 0 ") for s in lines)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result, metrics, _, spans = tiny(workload, trace=True)
    assert result.failed == 0, result.errors
    assert set(metrics) == PER_LAYER
    assert {s.job for s in spans if s.parent is None} == set(range(1, max(s.job for s in spans) + 1))
    assert all(s.end >= s.start for s in spans)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_wrong_expected_value_counts_as_failed(workload):
    result, _, lines, _ = tiny(workload, **WRONG[workload])
    assert result.failed >= 1
    share = result.failed / result.attempted
    assert f"failed_share: {share:.6g} ({result.failed} of {result.attempted} jobs)" in lines


def test_brute_force_pairs_formula():
    # Grid points b_i = 4 i / (n - 1) with b_i <= 2, times n points of A.
    assert jobs.brute_force_pairs(201) == 201 * 101
    assert jobs.brute_force_pairs(21) == 21 * 11
