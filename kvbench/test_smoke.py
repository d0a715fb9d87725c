"""Smoke test of the benchmark itself, at toy size.

Run from the repository root:  python3 -m pytest -q kvbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_reports_every_metric_and_repeats_counts(workload):
    run.smoke(workload)


def test_predictions_name_known_workloads_and_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    predictions = json.loads((HERE / "predictions.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(predictions["workloads"]) == workloads == set(WORKLOADS)
    for p in predictions["predictions"]:
        assert set(p["layer"] + p["moves"]) <= metrics, p
        assert set(p["on"] + p["not_on"]) <= workloads, p
