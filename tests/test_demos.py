"""The quick demos under ``demos/`` run to completion against the package;
a change to ``src/`` that breaks one fails here, in the fast suite.  Demos
02, 04 and 05 take from several seconds to minutes and are run by hand."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["01_schedule_and_identities.py", "03_train_and_sample.py"])
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
