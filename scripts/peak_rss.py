"""Run one ``hopfcalc`` command line in a child process and print its exit
code, its wall time and its peak resident set size.  Usage::

    python scripts/peak_rss.py homology --builtin taft:3:2 --field F7 \\
        --calculus k --max-degree 6

The child is ``python -m hopfcalc.cli`` with the arguments given, run with
this checkout's ``src`` first on ``PYTHONPATH``; its report goes to
/dev/null, its stderr passes through, and its exit code is this script's.
The wall time includes the interpreter's start-up and imports.  The peak
is the child's ``ru_maxrss`` (``RUSAGE_CHILDREN``, read once it has been
waited for), in MB of 2^20 bytes as the benchmark reports it.  The output
is one JSON line::

    {"exit": 0, "wall_s": 0.512, "peak_rss_mb": 176.1}
"""
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    started = time.perf_counter()
    code = subprocess.run([sys.executable, "-m", "hopfcalc.cli", *argv], env=env,
                          stdout=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - started
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(json.dumps({"exit": code, "wall_s": round(wall, 3), "peak_rss_mb": round(peak, 1)}))
    return code


if __name__ == "__main__":
    sys.exit(main())
