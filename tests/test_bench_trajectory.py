"""The committed benchmark trajectory (``BENCH_*.json`` at the repository
root) names only workloads and metrics that ``BENCHMARK.json`` declares."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUANTILES = {"median", "q1", "q3"}


def test_bench_trajectory_names_benchmark_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert ROOT / "BENCH_kvsim.json" in paths
    for path in paths:
        entries = json.loads(path.read_text())["entries"]
        assert entries, path
        for entry in entries:
            assert re.fullmatch(r"[0-9a-f]{7,40}", entry["commit"]), entry
            assert entry["workload"] in workloads, entry
            assert entry["seeds"] and all(
                isinstance(seed, int) for seed in entry["seeds"])
            assert set(entry["end_to_end"]) == set(end_to_end), entry
            for name, stats in entry["end_to_end"].items():
                assert stats["unit"] == end_to_end[name]
                assert set(stats) - {"unit"} == QUANTILES
                assert stats["q1"] <= stats["median"] <= stats["q3"]
            assert entry["per_layer"], entry
            assert set(entry["per_layer"]) <= per_layer, entry
