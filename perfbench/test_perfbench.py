"""Self-checks of the benchmark.

    python3 -m pytest perfbench -q

Two traced runs of one commit, workload and seed must agree exactly on
the operation count, the output bytes and every count metric; runs on
different backends must not be compared; and without the program's
sources the benchmark must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat(workload):
    results = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "11", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    first, second = results
    assert first["correct"] and first["failed"] == 0
    assert first["attempted"] == second["attempted"] >= 100
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if m["unit"] in ("count", "B")} for r in results
    ]
    assert any(k.endswith(".calls") for k in counts[0])
    assert counts[0] == counts[1]


def test_compare_refuses_other_backend(tmp_path):
    run = {"backend": "python", "workload": "analyze-generic", "seed": 1, "seconds": 10, "trace": 0}
    metrics = {"ops_per_s": {"value": 10.0, "unit": "1/s"}}
    paths = []
    for backend in ("python", "cython"):
        path = tmp_path / f"{backend}.json"
        path.write_text(json.dumps({"run": {**run, "backend": backend}, "metrics": metrics}))
        paths.append(str(path))
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), *paths], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2
    assert "backend" in proc.stderr


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "analyze-generic", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
