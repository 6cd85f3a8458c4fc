#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Run from the repository root:

    python3 perfbench/steady.py                       # every workload, 10 seeds each
    python3 perfbench/steady.py --workloads advise-mix --runs 5
    python3 perfbench/steady.py --save first.json
    python3 perfbench/steady.py --save second.json --compare first.json

It runs each workload --runs times through perfbench/run.py, with seeds
1 to --runs, at BENCHMARK.json's run_seconds and with tracing off.
For every end-to-end metric it prints the median and quartiles of the
runs (statistics.quantiles, n=4) and the spread: the distance between
the quartiles as a share of the median. A spread above the metric's
bound fails; one above a third of the bound is
flagged. With --compare it also fails any metric whose median is worse
than the saved set's by more than its bound. Every run must report
correct=true and no failed operations. The exit code is 0 only if every
check holds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--save", help="write the measured values to this JSON file")
    p.add_argument("--compare", help="JSON file of an earlier --save to compare medians against")
    args = p.parse_args()

    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    ok = True
    saved = {}
    for wl in args.workloads.split(","):
        values = {name: [] for name in metrics}
        for seed in range(1, args.runs + 1):
            res = run_once(wl, seed, seconds)
            if not res["correct"] or res["failed"] != 0:
                print(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}")
                ok = False
            for name in metrics:
                values[name].append(res["metrics"][name]["value"])
        saved[wl] = values
        print(f"{wl}: {args.runs} runs x {seconds}s")
        for name, m in metrics.items():
            xs = values[name]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med if med else float("inf")
            status = "ok"
            if spread > m["bound"]:
                status, ok = "FAIL spread", False
            elif spread > m["bound"] / 3:
                status = "wide"
            line = (f"  {name:18s} median {med:12.4f} {m['unit']:4s} q1 {q1:12.4f} q3 {q3:12.4f} "
                    f"spread {spread:6.3f} bound {m['bound']:.3f}")
            if wl in earlier:
                before = statistics.median(earlier[wl][name])
                change = (med - before) / before if before else 0.0
                worse = change if m["better"] == "lower" else -change
                line += f" vs earlier {change:+.3f}"
                if worse > m["bound"]:
                    status, ok = "FAIL median", False
            print(f"{line}  {status}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
