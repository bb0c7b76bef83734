#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's spread: the distance between the first and third quartile of its
values (statistics.quantiles, n=4) as a share of their median, next to the
bound BENCHMARK.json gives it.

    python3 perfbench/spread.py --workload paper_disk --seeds 1-10 \
        [--seconds 30] [--log runs.jsonl]

Run from the root of a checkout. Each run's result line is appended to the
log (one JSON object per line) so that sets can be compared afterwards.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--log")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            print("seed %d failed (exit %d)" % (seed, r.returncode))
            continue
        result = json.loads(lines[-1])
        if args.log:
            with open(args.log, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    "result": result}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"])
            for k, v in sorted(result["metrics"].items()))), flush=True)

    print("%-14s %12s %9s %7s %7s" % ("metric", "median", "spread", "bound",
                                      "ok"))
    for m in spec["end_to_end"]:
        v = values.get(m["name"], [])
        if len(v) < 2:
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = m["name"] == "setup_s" or spread <= m["bound"] / 3
        print("%-14s %12.6g %9.4f %7.3f %7s" % (
            m["name"], med, spread, m["bound"], "yes" if ok else "NO"))


if __name__ == "__main__":
    main()
