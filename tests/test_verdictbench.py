"""The benchmark's span recorder still sees every layer it names.

``verdictbench/spans.py`` wraps hopfcalc entry points by name and sums
their spans into per-layer metrics.  An entry point that is renamed, or
no longer called on the path a verdict takes, would read 0 in a traced
run without any error.  This test installs the recorder in a fresh
process, runs one verdict per subcommand, and asserts that every span
name of ``ENTRY_POINTS`` is recorded and every per-layer metric is
nonzero.  ``PYTHONDONTWRITEBYTECODE`` keeps the run from writing into
``verdictbench/``.
"""
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

KZ2 = {"field": "Q", "dim": 2, "basis": ["1", "g"],
       "mul": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]],
       "unit": [[0, 1]], "comul": [[0, 0, 0, 1], [1, 1, 1, 1]],
       "counit": [[0, 1], [1, 1]], "antipode": [[0, 0, 1], [1, 1, 1]]}
TRIVIAL = {"dim": 1, "action": [[0, 0, 0, 1], [1, 0, 0, 1]], "coaction": [[0, 0, 0, 1]]}

TRACE = """
import contextlib, io, json, sys
import spans
from hopfcalc import cli

recorder = spans.Recorder()
spans.install(recorder)
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes,
                  "names": sorted({s[spans.NAME] for s in recorder.spans}),
                  "entry_points": sorted({name for name, _, _ in spans.ENTRY_POINTS}),
                  "metrics": spans.layer_metrics(recorder.spans, [1.0])}))
"""


def test_every_entry_point_span_is_recorded(tmp_path):
    hopf, module = tmp_path / "kz2.json", tmp_path / "trivial.json"
    hopf.write_text(json.dumps(KZ2))
    module.write_text(json.dumps(TRIVIAL))
    verdicts = [
        ["verify-hopf", "--hopf", str(hopf)],
        ["verify-dga", "--builtin", "group:Z2", "--max-degree", "2"],
        ["check-module", "--hopf", str(hopf), "--module", str(module), "--condition", "yd"],
        ["homology", "--builtin", "group:Z2", "--module", "trivial", "--compare-cotor",
         "--max-degree", "2"],
        ["tensor", "--builtin", "group:Z2", "--yd-module", "trivial",
         "--ayd-module", "trivial"],
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "verdictbench")]))
    env.pop("HOPFCALC_MAX_DEGREE", None)
    proc = subprocess.run([sys.executable, "-c", TRACE, json.dumps(verdicts)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] == [0] * len(verdicts)
    assert got["names"] == got["entry_points"]
    assert [k for k, v in got["metrics"].items() if not v > 0] == []
