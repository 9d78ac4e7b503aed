"""The scripts under ``scripts/`` run end to end on a small input, and
``verdictbench/tables.py --check`` recomputes the benchmark's reference
tables and finds them unchanged.  ``scripts/bench_inputs.py`` writes
round 0 of every workload into a temporary folder, and
``scripts/bench_reports.py`` runs the verdicts of such a folder.

No other test imports them, so a change to the package that breaks one
would otherwise go unnoticed.
"""
import json
import os
import pathlib
import shutil
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
    run(argv)


def run(argv):
    # no bytecode is written, so nothing lands under verdictbench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_bench_inputs_writes_round_0_of_every_workload(tmp_path):
    run(["scripts/bench_inputs.py", "3001", str(tmp_path)])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["dga_certify", "module_corpus", "cotor_homology"])
    for folder in tmp_path.iterdir():
        verdicts = json.loads((folder / "verdicts.json").read_text())
        assert verdicts and all(v["expect"] and v["label"] for v in verdicts)
        inputs = {a for v in verdicts for a in v["argv"] if a.endswith(".json")}
        assert inputs and all((folder / a).is_file() for a in inputs)
        # the input files and verdicts.json, nothing else
        assert len(inputs) + 1 == len(list(folder.iterdir()))


def test_bench_reports_runs_each_verdict_in_its_folder(tmp_path):
    # a passing verdict, one that reads a relative path and fails, and one
    # that argparse refuses
    folder = tmp_path / "workload"
    folder.mkdir()
    shutil.copy(ROOT / "tests" / "sweedler_curved.json", folder / "curved.json")
    argvs = [["verify-hopf", "--builtin", "group:Z2"],
             ["homology", "--builtin", "sweedler", "--module", "curved.json",
              "--compare-cotor", "--max-degree", "3"],
             ["verify-hopf", "--builtin"]]
    (folder / "verdicts.json").write_text(json.dumps(
        [{"argv": a, "expect": "pass", "label": str(k)} for k, a in enumerate(argvs)]))
    run(["scripts/bench_reports.py", str(tmp_path)])
    assert sorted(p.name for p in folder.iterdir()) == [
        "curved.json", "reports.jsonl", "verdicts.json"]
    reports = [json.loads(line) for line in (folder / "reports.jsonl").read_text().splitlines()]
    assert [r["argv"] for r in reports] == argvs
    assert [r["code"] for r in reports] == [0, 2, 2]
    passed = reports[0]["stdout"]
    assert passed["status"] == "pass" and "timing_ms" not in passed and not reports[0]["stderr"]
    assert reports[1]["stderr"] == ("error: unexpected failure: "
                                    "ValueError('connection is not flat')\n")
    assert reports[2]["stdout"] == "" and "usage:" in reports[2]["stderr"]
