"""The scripts under ``scripts/`` run end to end on a small input, and
``verdictbench/tables.py --check`` recomputes the benchmark's reference
tables and finds them unchanged.

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
    ["scripts/verify_builtins.py"],
    ["scripts/homology_survey.py", "--only", "Z/2", "--max-degree", "2"],
    ["scripts/src_lines.py"],
    ["scripts/peak_rss.py", "homology", "--builtin", "sweedler", "--calculus", "k",
     "--max-degree", "2"],
    # recomputes the benchmark's reference tables through the cobar oracle
    ["verdictbench/tables.py", "--check"],
], ids=["verify_builtins", "homology_survey", "src_lines", "peak_rss",
        "benchmark_tables_check"])
def test_script_exits_0(argv):
    # no bytecode is written, so nothing lands under verdictbench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
