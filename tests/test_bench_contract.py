"""The benchmark under ``bench/`` imports the package by name and call
shape, and checks the outputs of its workloads; a change to ``src/`` that
breaks either fails here, in the fast suite, rather than only when the
benchmark runs."""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.mark.parametrize("args", [["selftest.py"], ["run.py", "--help"]])
def test_bench_script_runs(tmp_path, args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, args[0]), *args[1:]],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["train", "select_narrow"])
def test_bench_checks_pass_on_a_short_run(workload):
    """One short run of a workload passes the benchmark's own output checks:
    the forward reference, the recomputed selections, and the finite-difference
    checks of the input VJP and of the parameter gradients.  The only
    operation allowed to fail is the gradient point at scale 5, which
    diverges on the benchmark's checkpoint."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "1", "--seconds", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout + proc.stderr
    failures = [line for line in proc.stderr.splitlines() if line.startswith("operation failed:")]
    if workload == "train":
        assert result["failed"] == 0 and not failures, proc.stderr
    for line in failures:
        assert "grad batch (n=1, scale=5.0) diverged" in line, line
