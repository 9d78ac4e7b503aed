"""The benchmark's client: one process, one verdict at a time, no threads.

    python3 worker.py SRC --ready          import hopfcalc.cli, print the time
    python3 worker.py SRC PLAN RESULT      run the rounds listed in PLAN

Every verdict is one ``hopfcalc.cli.main(argv)`` call with its standard
output and error captured.  A ``speed.Sampler`` probes the speed of the
machine before, during and after each verdict; the time its probes take
during the verdict is taken out of the verdict's time.  With
``"trace": true`` in the plan the layers are wrapped first (see
``spans.py``); the spans stay in memory and are written to RESULT with
everything else when the last round ends.
"""
import sys
import time

sys.path.insert(0, sys.argv[1])
from hopfcalc import cli  # noqa: E402

READY = time.time()

import gc  # noqa: E402

# What exists once hopfcalc is imported lives as long as the process; frozen,
# it is left out of every collection, so the full collection between
# verdicts below only visits what the verdicts left behind.
gc.freeze()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import speed  # noqa: E402


def run(plan: dict) -> dict:
    os.environ.pop("HOPFCALC_MAX_DEGREE", None)
    recorder = None
    if plan["trace"]:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)
    sampler = speed.Sampler()
    rounds = []
    verdict = 0
    for argvs in plan["rounds"]:
        records = []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            if recorder is not None:
                recorder.verdict = verdict
            # collect what the previous verdict left, outside the timing, so
            # that every verdict starts from the same heap
            gc.collect()
            sampler.arm()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            sampler.disarm()
            seconds = time.perf_counter() - t0 - sampler.spent
            records.append([code, seconds, out.getvalue(), err.getvalue(), sampler.scale()])
            verdict += 1
        rounds.append(records)
    return {"rounds": rounds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "spans": recorder.spans if recorder is not None else []}


def main(argv) -> int:
    if argv[2:] == ["--ready"]:
        print(repr(READY))
        return 0
    with open(argv[2]) as fh:
        plan = json.load(fh)
    result = run(plan)
    with open(argv[3], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
