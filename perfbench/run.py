#!/usr/bin/env python3
"""Build and run the partree repository benchmark.

One run of one workload, as BENCHMARK.json's command does it:

    python3 perfbench/run.py --workload gw-hot --seed 1 --seconds 25 --trace 0

Steadiness mode runs the workloads interleaved (A B C A B C ...), one
seed per round, so host drift spreads over all of them, and prints each
end-to-end metric's median, quartiles and quartile spread next to its
bound from BENCHMARK.json:

    python3 perfbench/run.py --steady 10 [--seconds 25] [--seed 1] [--trace 1]

The Go program is built from the checkout's sources with every build
product (binary, build cache, temporary files, span files) kept under
.bench_build/perfbench in the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BENCH = os.path.join(ROOT, "BENCHMARK.json")


def build():
    """Builds the benchmark; exits with the build's error on failure."""
    for d in ("gocache", "gopath", "tmp"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    try:
        res = subprocess.run(["go", "build", "-buildvcs=false", "-o", BINARY, "."], cwd=HERE, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except OSError as e:
        sys.exit(f"perfbench: cannot run the go toolchain: {e}")
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        sys.exit(f"perfbench: build failed (exit {res.returncode})")


def run_once(workload, seed, seconds, trace, capture):
    """Runs one workload; returns (exit code, stdout or None)."""
    spans = os.path.join(BUILD, f"spans-{workload}-{seed}.jsonl")
    cmd = [BINARY, "-workload", workload, "-seed", str(seed), "-seconds", str(seconds),
           "-trace", str(trace), "-bench", BENCH, "-spans", spans]
    res = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None, text=True)
    return res.returncode, res.stdout


def steady(args):
    with open(BENCH) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}
    values = {w: {} for w in workloads}
    hosts = set()
    for r in range(args.steady):
        seed = args.seed + r
        for w in workloads:
            code, out = run_once(w, seed, seconds, args.trace, capture=True)
            if code != 0:
                sys.exit(f"perfbench: {w} seed {seed} exited {code}")
            lines = out.strip().splitlines()
            hosts.update(l for l in lines if l.startswith("host:"))
            res = json.loads(lines[-1])
            line = "" if args.trace else " ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items()) if k in bounds)
            print(f"round {r + 1} {w} seed={seed} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {line}", flush=True)
            if not res["correct"] or res["failed"]:
                sys.exit(f"perfbench: {w} seed {seed} answered wrongly")
            for k, v in res["metrics"].items():
                values[w].setdefault(k, []).append(v["value"])
    print()
    for h in sorted(hosts):
        print(h)
    print(f"{'workload':10} {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    worst = 0.0
    for w in workloads:
        for k in sorted(values[w]):
            vs = values[w][k]
            if k not in bounds or len(vs) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            b = bounds[k]
            flag = ""
            if b is not None:
                worst = max(worst, spread / b)
                flag = " OVER" if spread > b else (" >1/3" if spread > b / 3 else "")
            print(f"{w:10} {k:34} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {b if b is not None else '-':>6}{flag}")
    if not args.trace:
        print(f"\nworst spread / bound: {worst:.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="ROUNDS", help="interleaved steadiness rounds")
    args = ap.parse_args()
    if args.steady is None and (not args.workload or args.seconds is None):
        ap.error("need --workload and --seconds, or --steady")
    build()
    if args.steady is not None:
        steady(args)
        return
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace, capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main()
