#!/usr/bin/env python3
"""Steadiness check: run the benchmark once per seed and report, for each
end-to-end metric, the median, the interquartile distance as a share of
the median (the spread), and that spread against the metric's bound in
BENCHMARK.json.

    python3 perfbench/steady.py --workload exact-bnb --runs 10 [--first-seed 1]

Run from the root of a source checkout. A spread above a third of the
bound (setup_s excepted) is flagged; the benchmark is meant to stay below
that on every workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    for seed in range(a.first_seed, a.first_seed + a.runs):
        cmd = bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = json.loads(r.stdout.strip().split("\n")[-1])
        if r.returncode != 0 or not last["correct"]:
            sys.exit("seed %d: exit %d, correct=%s" % (seed, r.returncode, last["correct"]))
        for name in values:
            values[name].append(last["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join("%s=%.6g" % (k, v[-1]) for k, v in values.items())), flush=True)
    print("%-16s %12s %8s %6s" % ("metric", "median", "spread", "bound"))
    for m in metrics:
        v = values[m["name"]]
        sp = stats.spread(v) if len(v) >= 2 else float("nan")
        bound = m["bound"]
        flag = "" if m["name"] == "setup_s" or not sp > bound / 3 else "  <-- above bound/3"
        print("%-16s %12.6g %8.4f %6.3f%s" % (m["name"], statistics.median(v), sp, bound, flag))


if __name__ == "__main__":
    main()
