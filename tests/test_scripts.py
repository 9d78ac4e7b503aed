"""The scripts under ``scripts/`` run end to end on a small input.

No other test imports them, so a change to the package that breaks one
would otherwise go unnoticed.
"""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["scripts/verify_builtins.py", "--skip-slow", "--max-degree", "2"],
    ["scripts/homology_survey.py", "--only", "Z/2", "--max-degree", "2"],
], ids=["verify_builtins", "homology_survey"])
def test_script_exits_0(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
