"""Smoke test of the benchmark itself: a short run keeps the output contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd, trace):
    argv = ["--workload", "cli-small", "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_reports_every_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_same_seed_same_documents():
    first = [(d.command, d.text, d.flags) for d in corpus.block("extend-graded", 7, 0)]
    again = [(d.command, d.text, d.flags) for d in corpus.block("extend-graded", 7, 0)]
    other = [(d.command, d.text, d.flags) for d in corpus.block("extend-graded", 8, 0)]
    assert first == again
    assert first != other
