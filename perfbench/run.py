#!/usr/bin/env python3
"""Builds and runs the riotshare benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (which builds the riot library from this checkout's sources) in
Release mode under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench;
later runs rebuild incrementally. The benchmark binary prints a report;
this script checks that it carries every metric BENCHMARK.json names and
prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). The traced run also writes its spans to
<build>/traces/<workload>-seed<n>.json.

Exits non-zero without a result line when the build fails, the sources are
missing, the run fails or times out, or an output differs from its
reference.
"""

import argparse
import hashlib
import json
import os
import socket
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    src = os.path.join(ROOT, "perfbench")
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("riot sources not found next to perfbench/")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "riot_perfbench"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "riot_perfbench")


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts without
    git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    binary = build(out)
    trace_dir = os.path.join(out, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(
        trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_out]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    report = None
    for line in r.stdout.splitlines():
        if line.startswith("REPORT "):
            report = json.loads(line[len("REPORT "):])
        else:
            print(line)
    if r.returncode != 0 or report is None:
        fail("run failed (exit %d)" % r.returncode)

    found = report["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = found.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s (%s) missing from the report" %
                 (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    meta = {"host": socket.gethostname(), "nproc": report["nproc"],
            "compiler": report["compiler"], "build_type": report["build_type"],
            "git_sha": git_sha(), "source_digest": source_digest(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "failures": report["failures"], "invalid": report["invalid"]}
    if report["build_type"] != "Release":
        print("WARNING: %s build: timings are not comparable (Debug also "
              "turns the plan linter on)" % report["build_type"])
    print("META " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": True, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
