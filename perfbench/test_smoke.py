"""The benchmark harness's own test: brief runs of every workload.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs in smoke mode, plain and traced; every metric named in
BENCHMARK.json must be printed with its unit.  Copies of the checkout with a
corrupted expected output must abort with ``"correct": false``, and a
directory without hklat's sources must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("paper", "queries", "basis", "ladder")


def run(root: Path, workload: str, trace: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600, cwd=root)


def copy_checkout(tmp_path: Path, *parts: str) -> Path:
    ignore = shutil.ignore_patterns("out", "__pycache__")
    for part in parts:
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)


def _corrupt_golden(root: Path) -> None:
    path = root / "tests" / "golden" / "table_p19.csv"
    path.write_text(path.read_text().replace("19,1,1", "19,1,2"))


def _corrupt_queries(root: Path) -> None:
    path = root / "perfbench" / "expected" / "queries.json"
    data = json.loads(path.read_text())
    for item in data["local-actions"].values():  # every deck has one
        item["out"] = item["out"].replace("family 1", "family 3")
    path.write_text(json.dumps(data))


def _corrupt_basis(root: Path) -> None:
    path = root / "perfbench" / "expected" / "queries.json"
    data = json.loads(path.read_text())
    for cmd in ("invariants", "embed"):  # every deck has a small-rank query of each
        for item in data[cmd].values():
            item["out"] += "corrupted\n"
    path.write_text(json.dumps(data))


def _corrupt_ladder(root: Path) -> None:
    path = root / "perfbench" / "expected" / "ladder.json"
    data = json.loads(path.read_text())
    for rung in data["rungs"]:
        if rung["name"] == "U(3)":
            rung["expect"]["det"] = 9  # the true determinant is -9
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("workload, corrupt", [
    ("paper", _corrupt_golden),
    ("queries", _corrupt_queries),
    ("basis", _corrupt_basis),
    ("ladder", _corrupt_ladder),
])
def test_wrong_answer_aborts(tmp_path, workload, corrupt):
    root = copy_checkout(tmp_path, "perfbench", "src", "tests/golden")
    corrupt(root)
    proc = run(root, workload)
    assert proc.returncode == 1
    assert "wrong answer" in proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False


def test_refuses_a_checkout_without_sources(tmp_path):
    root = copy_checkout(tmp_path, "perfbench")
    proc = run(root, "paper")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
