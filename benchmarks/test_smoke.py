"""Smoke test of the benchmark harness at reduced sizes.

Run from the repository root: ``python3 -m pytest -q benchmarks/test_smoke.py``.
It is not part of the tier-1 suite (``testpaths`` there is ``tests``).
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_and_no_op_failed(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # correct also requires the traced call counts to match
    # workloads.expected_counts exactly
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.split()[:2] == ["ops_failed_frac", "0.0000"] for line in lines)
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] == got["value"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


#: the trial counts of the CLI defaults, which the benchmark halves
CLI_TRIALS = {"success": {"trials": 1000, "lambda_trials": 10000},
              "witneg": {"trials": 1000},
              "differential": {"trials": 1000, "lambda_trials": 10000},
              "tomo": {"trials": 1000}}


@pytest.mark.parametrize("workload, trial_rng, lambda_min, repeats", [
    ("hypothesis", 120_000, 15, 5), ("tomography", 8_200, 0, 0)])
def test_exact_trace_counts_at_cli_default_trials(tmp_path, workload, trial_rng,
                                                  lambda_min, repeats):
    cmds = [(cmd, {**opts, **CLI_TRIALS.get(cmd, {})})
            for cmd, opts in workloads.WORKLOADS[workload]]
    rep = run.run_rep(tmp_path / "rep", 0, cmds, True, 170)
    assert [op["problems"] for op in rep["ops"]] == [[]] * len(cmds)
    counts = rep["result"]["trace"]
    assert counts["stats.trial_rng.calls"] == trial_rng
    assert counts["stats.lambda_min.calls"] == lambda_min
    assert counts["stats.lambda_min.repeat_calls"] == repeats
    expected = workloads.expected_counts(cmds)
    assert {key: counts[key] for key in expected} == expected
