"""Toy-size smoke test of the benchmark.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import model
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def in_checkout(monkeypatch):
    monkeypatch.chdir(ROOT)


def bench(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                    specs=workloads.TOY)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


def failed_ratio_line(lines):
    return next(line.split() for line in lines if line.split()[0] == "failed_ratio")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_declared_metric_is_reported(capsys, workload, trace):
    code, result, lines = bench(capsys, workload, trace)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    assert (code, result["correct"], result["failed"]) == (0, True, 0)
    assert result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        if not trace:
            assert result["metrics"][metric["name"]]["value"] > 0
    assert failed_ratio_line(lines)[1] == "0.000000"


def test_wrong_cli_expectation_counts_as_failure(capsys, monkeypatch):
    real = model.verify_step

    def wrong_after_first_op(store, divergences=0, report=False):
        step = real(store, divergences, report)
        if store.epoch == 1 and divergences == 0:
            return dataclasses.replace(step, exit_code=1)
        return step

    monkeypatch.setattr(model, "verify_step", wrong_after_first_op)
    code, result, lines = bench(capsys, "cli-session")
    assert (code, result["correct"], result["failed"]) == (1, False, 1)
    assert failed_ratio_line(lines)[2] == f"1/{result['attempted']}"


def test_wrong_fault_table_counts_as_failure(capsys, monkeypatch):
    monkeypatch.setattr(model, "WEIGHT_ONLY_MISSES", frozenset({"flip-byte"}))
    code, result, lines = bench(capsys, "lib-churn")
    assert (code, result["correct"], result["failed"]) == (1, False, 1)
    assert float(failed_ratio_line(lines)[1]) > 0


def test_fails_without_program_sources():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lib-churn", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
