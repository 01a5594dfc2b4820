#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs every workload of BENCHMARK.json in two interleaved sets of N
runs, each run with its own seed (set 1 takes seeds 1..N, set 2 seeds
N+1..2N), and prints for every end-to-end metric and set the median,
the first and third quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median next to the metric's bound, then how far the
second set's median lies from the first set's.

It fails (exit 1) where the bounds are meant to hold: a spread above
its bound (setup_s aside, whose spread is reported only), a median
worse in the second set than in the first by more than the bound, a
run that is not correct, or a share of failed operations that differs
between runs.
A spread above a third of its bound is marked "> target": such a
metric is not yet steady enough for two sets of runs of the same code
to stay within the bound reliably. Run it from the repository root:

    python3 e2ebench/steady.py -n 10
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

SETS = 2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", type=int, default=10, help="runs per workload and set")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]

    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        sets = [[] for _ in range(SETS)]
        for i in range(args.n):
            for k, runs in enumerate(sets):
                seed = k * args.n + i + 1
                cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                start = time.time()
                p = subprocess.run(cmd, capture_output=True, text=True)
                wall = time.time() - start
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or not lines:
                    sys.stderr.write(p.stderr)
                    sys.exit(f"{name} seed {seed}: exit {p.returncode}")
                res = json.loads(lines[-1])
                runs.append(res)
                values = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.4g}" for m in metrics)
                print(f"{name} set {k + 1} seed {seed}: {wall:.1f}s correct={res['correct']} "
                      f"failed {res['failed']}/{res['attempted']} {values}", flush=True)

        print(f"\n{name}: {SETS} sets of {args.n} runs")
        print(f"{'metric':14} {'set':>3} {'median':>10} {'Q1':>10} {'Q3':>10} {'spread':>7} {'bound':>6} {'drift':>7}")
        for m in metrics:
            first = None
            for k, runs in enumerate(sets):
                vals = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                flag = ""
                if spread > m["bound"] and m["name"] != "setup_s":
                    flag, ok = "  > bound", False
                elif spread > m["bound"] / 3:
                    flag = "  > target"
                drift = ""
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first
                    if m["better"] == "higher":
                        worse = -worse
                    drift = f"{worse:+7.3f}"
                    if worse > m["bound"]:
                        flag, ok = flag + "  drift > bound", False
                print(f"{m['name']:14} {k + 1:3} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                      f"{spread:7.3f} {m['bound']:6.2f} {drift:>7}{flag}")
        runs = [r for s in sets for r in s]
        shares = {(r["failed"], r["attempted"]) for r in runs}
        print(f"failed/attempted: {sorted(shares)}\n")
        if len({f / a for f, a in shares}) != 1 or any(not r["correct"] for r in runs):
            ok = False

    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
