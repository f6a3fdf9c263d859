"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench -q``.

They drive ``run.py`` in quick mode (tiny trajectory budgets) and are not
part of the tier-1 suite, which collects ``tests/`` only.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]

#: Counts later changes may cite as claims: they must repeat exactly.
REPEATABLE_COUNTS = (
    "dd.multiply_calls",
    "service.chunks_per_job",
    "service.journal.records",
    "fsync.calls",
    "stochastic.strata.attempts",
    "exact.superop_applications",
)

_runs: dict = {}


def run_quick(workload: str, trace: int, seed: int = 5, attempt: int = 0) -> dict:
    key = (workload, trace, seed, attempt)
    if key not in _runs:
        completed = subprocess.run(
            [
                sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                "--seconds", "1", "--trace", str(trace), "--quick",
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        assert completed.returncode == 0, completed.stderr
        _runs[key] = json.loads(completed.stdout.strip().splitlines()[-1])
    return _runs[key]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_every_metric_with_its_unit(workload, trace):
    result = run_quick(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {metric["name"]: metric["unit"] for metric in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])
    if trace:
        assert result["metrics"]["trace.spans"]["value"] > 0
        assert result["metrics"]["trace.orphans"]["value"] == 0
    else:
        for metric in BENCHMARK["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = run_quick(workload, 1)["metrics"]
    second = run_quick(workload, 1, attempt=1)["metrics"]
    for name in REPEATABLE_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_traced_runs_exercise_what_each_workload_was_chosen_for():
    friendly = run_quick("stream-friendly", 1)["metrics"]
    hostile = run_quick("stream-hostile", 1)["metrics"]
    exact = run_quick("exact-rho", 1)["metrics"]
    assert friendly["stochastic.strata.attempts"]["value"] > 0
    assert hostile["exact.cost.worst_case"]["value"] > 0
    assert hostile["exact.cost.measured"]["value"] > 0
    assert exact["service.chunks_per_job"]["value"] == 0
    assert exact["dd.multiply_matrices_s"]["value"] > 0
    assert exact["exact.superop_applications"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
