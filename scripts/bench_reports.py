"""Run the verdicts that ``bench_inputs.py`` wrote and record their reports.

    python scripts/bench_reports.py OUT

For each OUT/<workload>/verdicts.json written by ``scripts/bench_inputs.py``,
every verdict's argv runs in this process through ``hopfcalc.cli.main``,
with that folder as the working directory, so that its relative input paths
resolve.  OUT/<workload>/reports.jsonl gets one line per verdict, in order:
its argv, exit code, stdout and stderr.  A stdout that is a JSON object is
kept as that object without its ``timing_ms``, the one field that changes
from run to run; any other stdout is kept as text.  So two checkouts whose
trees for the same inputs differ (``diff -r``) gave some verdict a
different report, exit code or error.

Nothing is written outside OUT, and no bytecode is written.
"""
import argparse
import contextlib
import io
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_verdict(main, argv):
    """(exit code, stdout, stderr) of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def without_timing(stdout: str):
    try:
        body = json.loads(stdout)
    except ValueError:
        return stdout
    if not isinstance(body, dict):
        return stdout
    body.pop("timing_ms", None)
    return body


def write_reports(main, folder: str) -> int:
    """Run the verdicts of ``folder``/verdicts.json and write
    ``folder``/reports.jsonl; return the number of verdicts."""
    with open(os.path.join(folder, "verdicts.json")) as fh:
        verdicts = json.load(fh)
    lines = []
    with contextlib.chdir(folder):
        for v in verdicts:
            code, out, err = run_verdict(main, v["argv"])
            lines.append(json.dumps({"argv": v["argv"], "code": code,
                                     "stdout": without_timing(out), "stderr": err},
                                    sort_keys=True))
    with open(os.path.join(folder, "reports.jsonl"), "w") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return len(verdicts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src")]
    from hopfcalc import cli
    out = os.path.abspath(args.out)
    for name in sorted(os.listdir(out)):
        folder = os.path.join(out, name)
        if os.path.isfile(os.path.join(folder, "verdicts.json")):
            print(f"{name}: {write_reports(cli.main, folder)} verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
