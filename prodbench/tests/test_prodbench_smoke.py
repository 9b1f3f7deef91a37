"""Tiny-size end-to-end runs of each workload through the CLI."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "prodbench" / "MANIFEST.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "prodbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["paper_quick", "advise_cold", "advise_hot"])
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = MANIFEST["per_layer"] if trace == "1" else MANIFEST["end_to_end"]
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for spec in specs:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        layers = {k: m["value"] for k, m in result["metrics"].items()}
        assert layers["trace.hash_match"] == 1
        assert layers["gate.error_ratio"] == 0
        if workload == "advise_cold":
            assert layers["serve.cells_computed"] > 0
            assert layers["serve.cache_hit_ratio"] == 0
            assert layers["hw.accesses"] > 0
        if workload == "advise_hot":
            assert layers["serve.cells_computed"] == 0
            assert layers["serve.cells_hot"] > 0
            assert layers["hw.accesses"] == 0 and layers["sweep.cells_executed"] == 0
        if workload == "paper_quick":
            assert layers["sweep.cells_executed"] > 0
            assert layers["store.put_calls"] == layers["sweep.cells_executed"]
    assert not (ROOT / ".prodbench_tmp").exists()


def test_all_runs_every_workload_in_one_command():
    proc = _run(ROOT, "--workload", "all", "--seed", "3", "--seconds", "0",
                "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {f"{w}.{s['name']}"
                                      for w in ("paper_quick", "advise_cold", "advise_hot")
                                      for s in MANIFEST["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "prodbench", tmp_path / "prodbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "--workload", "paper_quick", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
