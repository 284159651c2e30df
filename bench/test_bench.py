"""Checks of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench/test_bench.py

Count metrics must repeat exactly between two traced runs of the same
seed, so that claims resting on them (LP solves per point, filter calls)
compare like with like.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import COUNT_METRICS, LAYERS, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_count_metrics_repeat_exactly(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    assert set(first["metrics"]) == {name for name, _, _ in PER_LAYER}
    for name in COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name
    shares = sum(first["metrics"][f"{layer}.share"]["value"] for layer in LAYERS)
    assert 0.99 < shares <= 1.0 + 1e-9


def test_end_to_end_metrics_match_the_benchmark_file():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    result = _result("anticorr3-wsd", 0)
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "anticorr3-classify", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
