"""Steadiness check: run every workload repeatedly and compare two sets.

    python3 verdictbench/steady.py [--runs 10] [--sets 2] [--seed-base 1000] [--traced 2]

Each set runs every workload of BENCHMARK.json --runs times with a fresh
seed per run (seed-base + 100 * set + run), alternating the workload order
from one run to the next.  For every end-to-end metric the command prints each set's
median and quartiles and the spread (q3 - q1) / median, and says whether

  * every spread is within the metric's bound in BENCHMARK.json,
  * the second set's median is not worse than the first's by more than
    the bound, and
  * the share of failed verdicts is the same in every run.

--traced N adds N pairs of runs per workload, an untraced run followed at
once by a traced run of the same seed, and prints the tracing overhead:
the median over the pairs of traced wall_s minus untraced wall_s.  Pairs
keep the machine's slow drift in speed out of the difference.  All run
outputs are kept in verdictbench/results/.  Exit status 0 means steady.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out.update(workload=workload, seed=seed, trace=trace, elapsed=time.time() - start)
    print(f"  {workload:15s} seed {seed:5d} trace {trace} ({out['elapsed']:.0f} s): "
          f"correct={out['correct']} "
          f"attempted={out['attempted']} failed={out['failed']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()
                     if not trace or k.startswith("trace.")), flush=True)
    return out


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--traced", type=int, default=0)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]

    runs = []
    for s in range(args.sets):
        print(f"set {s + 1}", flush=True)
        for i in range(args.runs):
            order = names if (s * args.runs + i) % 2 == 0 else names[::-1]
            for w in order:
                r = run_once(bench, w, args.seed_base + 100 * s + i, 0)
                r["set"] = s
                runs.append(r)
    pairs = {w: [] for w in names}
    for i in range(args.traced):
        for w in names:
            plain, traced = (run_once(bench, w, args.seed_base + 900 + i, t) for t in (0, 1))
            plain["set"] = None
            runs += [plain, traced]
            pairs[w].append((plain["metrics"]["wall_s"]["value"],
                             traced["metrics"]["trace.wall_s"]["value"]))

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as fh:
        json.dump(runs, fh, indent=1)

    ok = True
    for w in names:
        plain = [r for r in runs if r["workload"] == w and not r["trace"] and r["set"] is not None]
        shares = {r["failed"] / r["attempted"] for r in plain}
        wrong = [r["seed"] for r in plain if not r["correct"]]
        print(f"\n{w}: failed share {sorted(shares)}"
              + (f", WRONG VERDICTS on seeds {wrong}" if wrong else ""))
        ok &= len(shares) <= 1 and not wrong
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = None
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in plain if r["set"] == s]
                if len(vals) < 2:
                    continue
                med, q1, q3, sp = spread(vals)
                verdict = "ok"
                if sp > bound:
                    verdict, ok = "SPREAD > bound", False
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    if worse > bound:
                        verdict, ok = f"median worse by {worse:.1%}", False
                print(f"  {name:15s} set {s + 1}: median {med:12.4f} {m['unit']:4s} "
                      f"q1 {q1:12.4f} q3 {q3:12.4f} spread {sp:6.1%} "
                      f"(bound {bound:.0%}, a third {bound / 3:.1%}) {verdict}")
        if pairs[w]:
            over = statistics.median(t - u for u, t in pairs[w])
            base = statistics.median(u for u, _ in pairs[w])
            print(f"  tracing overhead: {over:+.3f} s ({over / base:+.1%}), median of "
                  f"{len(pairs[w])} pairs: " + ", ".join(f"{t - u:+.2f}" for u, t in pairs[w]))
    print(f"\nruns saved to {os.path.relpath(path, ROOT)}; {'STEADY' if ok else 'NOT STEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
