"""Smoke tests of the benchmark: every workload at smoke size, and the checks.

    python3 -m pytest pathbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from pathbench.checks import PairCheck  # noqa: E402
from repro import PointSet  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "pathbench" / "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def smoke(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return bench(
        "--workload", workload, "--seed", "3", "--seconds", "2",
        "--trace", str(trace), "--scale", "smoke", *extra,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload: str) -> None:
    completed = smoke(workload, 0)
    assert completed.returncode == 0, completed.stderr
    result = result_of(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        reading = result["metrics"][metric["name"]]
        assert reading["unit"] == metric["unit"]
        assert reading["value"] > 0
    record = json.loads(completed.stdout.strip().splitlines()[-2].removeprefix("record "))
    assert record["seed"] == 3 and record["inputs"]["l"] == 100.0
    assert "numpy_version" in record["runtime"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_prints_every_per_layer_metric(workload: str) -> None:
    completed = smoke(workload, 1)
    assert completed.returncode == 0, completed.stderr
    metrics = result_of(completed)["metrics"]
    assert [name for name in metrics] == [metric["name"] for metric in SPEC["per_layer"]]
    assert 0.5 < metrics["trace.coverage"]["value"] <= 1.0
    assert metrics["core.attempts_per_pair"]["value"] >= 1.0
    if workload == "service-mixed":
        assert metrics["artifacts.attach_s"]["value"] > 0
        assert metrics["dynamic.update_ms"]["value"] > 0
        assert metrics["service.transport_ms"]["value"] > 0
    else:
        assert metrics["core.count_s"]["value"] > 0


def test_a_corrupted_reply_fails_the_run() -> None:
    completed = smoke("session-uniform", 0, "--corrupt", "1")
    assert completed.returncode == 1
    result = result_of(completed)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["success_rate"]["value"] < 1.0
    assert "outside the window" in completed.stderr


def test_a_directory_without_the_program_is_refused(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "pathbench", tmp_path / "pathbench")
    completed = bench(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def points(xs: list[float], ys: list[float], first_id: int) -> PointSet:
    ids = np.arange(first_id, first_id + len(xs))
    return PointSet(xs=np.array(xs), ys=np.array(ys), ids=ids)


def test_checks_reject_short_replies_far_pairs_and_deleted_points() -> None:
    r_points = points([0.0, 500.0], [0.0, 500.0], first_id=0)
    s_points = points([50.0, 520.0], [50.0, 480.0], first_id=10)
    checker = PairCheck(r_points, s_points, half_extent=100.0)
    assert checker.check([[0, 10], [1, 11]], t=2)
    assert not checker.check([[0, 10]], t=2)
    assert not checker.check([[0, 11], [1, 11]], t=2)
    assert not checker.check([[0, 99], [1, 11]], t=2)
    checker.delete_s(np.array([10]), acknowledged_at=5.0)
    assert checker.check([[0, 10], [1, 11]], t=2, sent_at=4.0)
    assert not checker.check([[0, 10], [1, 11]], t=2, sent_at=6.0)
    checker.insert_s(np.array([12]), np.array([10.0]), np.array([10.0]))
    assert checker.check([[0, 12], [1, 11]], t=2, sent_at=6.0)
    assert len(checker.failures) == 4
