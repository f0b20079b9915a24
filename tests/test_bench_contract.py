"""The benchmark under ``bench/`` imports the package by name and call
shape; a change to ``src/`` that breaks either fails here, in the fast
suite, rather than only when the benchmark runs."""

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
