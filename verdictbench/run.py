"""Verdict benchmark for hopfcalc.

    python3 verdictbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (dga_certify, module_corpus or cotor_homology) from the
root of a checkout and prints, as its last line, one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones.  See README.md for what each workload runs and why.

A run:
 1. starts SETUP_SAMPLES processes that only import hopfcalc.cli, timing
    launch to ready (set-up) while it probes the machine's speed, and as
    many again after step 3;
 2. writes the input files of max(1, round(S / 30)) rounds from the seed,
    with the expected outcome of every verdict (workloads.py, oracle.py);
 3. starts one client process (worker.py) that runs the rounds, one
    hopfcalc.cli.main call per verdict, and times each while it probes the
    machine's speed;
 4. checks every exit code and report against the expected outcome.
Nothing but the verdicts and the client's probes runs while the client
measures.

Every time is reported at the reference machine speed, scaled by the
probes of its own interval (speed.py; README.md, "Machine speed").
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import oracle
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 4           # before the client, and as many again after it
RUN_LIMIT_S = 170           # a run must end well within 180 s


def launch_to_ready(argv, timeout: float):
    """Start a client and wait for it; return (launch time, completed
    process)."""
    env = dict(os.environ)
    env.pop("HOPFCALC_MAX_DEGREE", None)
    t0 = time.time()
    proc = subprocess.run([sys.executable, WORKER, SRC] + argv, env=env, timeout=timeout,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"client exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return t0, proc


def check(v, code: int, out: str):
    """None if the verdict's exit code and report are what ``v.expect``
    says, else the reason they are not."""
    e = v.expect
    if "malformed" in e:
        return None if code == 2 else f"exit {code} on malformed input ({e['malformed']})"
    try:
        doc = json.loads(out)
    except ValueError:
        return f"exit {code} without a JSON report"
    status = {0: "pass", 1: "fail"}.get(code)
    if doc.get("status") != status:
        return f"exit {code} with report status {doc.get('status')!r}"
    if "dga" in e:
        return "DGA verdict failed" if code else oracle.dga_report_error(doc["checks"], e["dga"])
    if "module" in e:
        want = "pass" if e["module"] else "fail"
        checks = doc["checks"]
        if status != want or len(checks) != 1 or checks[0]["status"] != want:
            return f"report says {status}, the oracle says {want}"
        if want == "fail" and "witness" not in checks[0]:
            return "failure without a witness"
        return None
    if "tensor" in e:
        names = sorted(c["name"] for c in doc["checks"] if c["status"] == "pass")
        if code or names != ["tensor_ayd", "tensor_connection", "tensor_flat"]:
            return "tensor of YD-flat and AYD-flat is not AYD-flat"
        if doc["result_dim"] != e["tensor"]:
            return f"tensor has dimension {doc['result_dim']}, expected {e['tensor']}"
        return None
    table = e["homology"]
    if code or doc.get("homology") != {f"H_{n}": d for n, d in enumerate(table)}:
        return f"homology {doc.get('homology')}, expected {table}"
    if e["compare"]:
        D = len(table)
        names = sorted(c["name"] for c in doc["checks"] if c["status"] == "pass")
        want = sorted(["degree_dims_equal", f"homology_dims={table}"]
                      + [f"differential_equal[{n}]" for n in range(D)])
        if names != want:
            return "cobar comparison did not pass every check"
    return None


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) distribution.

    A single order statistic of 17-19 verdicts of very different cost
    jumps with the noise of the one verdict it lands on; this estimate
    spreads its weight over the verdicts around the quantile."""
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    cdf = betainc(p * (n + 1), (1 - p) * (n + 1), [i / n for i in range(n + 1)])
    return float(sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args, workdir: str) -> dict:
    import spans
    import workloads

    deadline = time.time() + RUN_LIMIT_S
    setup = []

    sampler = speed.Sampler()

    def sample_setup():
        for _ in range(SETUP_SAMPLES):
            sampler.arm()
            t0, proc = launch_to_ready(["--ready"], 60)
            sampler.disarm()
            setup.append((float(proc.stdout) - t0) * sampler.scale())

    sample_setup()

    builder = workloads.Builder(workdir, args.seed)
    nrounds = max(1, round(args.seconds / workloads.ROUND_SECONDS))
    rounds = [builder.round(args.workload, r) for r in range(nrounds)]
    plan = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "result.json")
    with open(plan, "w") as fh:
        json.dump({"trace": bool(args.trace),
                   "rounds": [[v.argv for v in rnd] for rnd in rounds]}, fh)

    launch_to_ready([plan, result_path], max(1.0, deadline - time.time()))
    with open(result_path) as fh:
        result = json.load(fh)
    sample_setup()
    scale = [rec[4] for rnd in result["rounds"] for rec in rnd]

    attempted = failed = 0
    problems = []
    durations = []
    for rnd, measured in zip(rounds, result["rounds"]):
        for v, (code, seconds, out, err, _) in zip(rnd, measured):
            durations.append(seconds * scale[attempted])
            attempted += 1
            problem = check(v, code, out)
            if problem is None:
                continue
            if "malformed" in v.expect:
                failed += 1
            else:
                problems.append(f"{v.label}: {problem} [{' '.join(v.argv)}] {err.strip()}")
    for p in problems[:10]:
        print(f"wrong verdict: {p}", file=sys.stderr)

    setup_s = hd_quantile(setup, 0.5)
    per_round = len(rounds[0])
    round_s = statistics.median(sum(durations[k:k + per_round])
                                for k in range(0, len(durations), per_round))
    wall_s = setup_s + round_s
    print(f"machine speed: median scale {statistics.median(scale):.3f}; unscaled round "
          f"{sum(rec[1] for rec in result['rounds'][0]):.3f} s", file=sys.stderr)
    if args.trace:
        layers = spans.layer_metrics(result["spans"], scale)
        metrics = {name: metric(value, spans.LAYER_METRICS[name][0])
                   for name, value in layers.items()}
        metrics["trace.wall_s"] = metric(wall_s, "s")
        metrics["trace.spans"] = metric(len(result["spans"]), "count")
        metrics["machine.scale"] = metric(statistics.median(scale), "ratio")
    else:
        metrics = {
            "wall_s": metric(wall_s, "s"),
            "setup_s": metric(setup_s, "s"),
            "verdicts_per_s": metric(per_round / round_s, "1/s"),
            "verdict_p50_ms": metric(hd_quantile(durations, 0.5) * 1000, "ms"),
            "verdict_p90_ms": metric(hd_quantile(durations, 0.9) * 1000, "ms"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["dga_certify", "module_corpus", "cotor_homology"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hopfcalc", "cli.py")):
        print(f"error: no hopfcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(HERE, "work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        summary = measure(args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(HERE, "work"))
        except OSError:
            pass
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
