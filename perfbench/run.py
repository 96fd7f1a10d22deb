#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (release profile, build directory
.bench_build, dune's shared cache off so nothing is written outside the
checkout), runs one measurement and relays its output.  The last line of
standard output is the JSON result; it is printed only when the run exits
cleanly and it reports exactly the metrics BENCHMARK.json declares, each
with the declared unit and direction.  Any other outcome exits non-zero
without a result.
With --workload all it runs every workload in turn and ends with one table
of every metric, ops and ops_failed per workload.
"""

import argparse
import json
import os
import re
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(need):
            die("%s not found: run from the root of a full checkout" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if proc.returncode != 0:
        die("build failed")


# A metric line of main.exe: "name value unit (lower|higher is better)".
METRIC_LINE = re.compile(r"^(\S+) +\S+ +(\S+) +\((lower|higher) is better\)$")


def check_metrics(declared, kind, lines, result):
    """The result's metrics must be exactly the declared ones, and each
    metric line must give the declared unit and direction."""
    expected = {m["name"]: (m["unit"], m["better"]) for m in declared[kind]}
    printed = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m and m.group(1) in expected:
            printed[m.group(1)] = (m.group(2), m.group(3))
    got = {name: (m["unit"], printed.get(name, (None, None))[1])
           for name, m in result["metrics"].items()}
    if got != expected:
        die("printed metrics differ from BENCHMARK.json %s: %s"
            % (kind, sorted(set(got.items()) ^ set(expected.items()))))


def run_one(declared, workload, seed, seconds, trace):
    """Run one measurement; return its output lines and parsed result."""
    os.makedirs(os.path.join(BUILD_DIR, "spans"), exist_ok=True)
    spans = os.path.join(BUILD_DIR, "spans", "%s-seed%d.jsonl" % (workload, seed))
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die("benchmark exited with code %d" % proc.returncode)

    result = json.loads(lines[-1])
    check_metrics(declared, "per_layer" if trace else "end_to_end",
                  lines[:-1], result)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("result has keys %s" % sorted(result))
    if trace:
        lines.insert(-1, "spans written to " + spans)
    return lines, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all' for a table "
                         "of every workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build()
    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    names = [w["name"] for w in declared["workloads"]]
    if args.workload not in names + ["all"]:
        die("unknown workload %r" % args.workload)

    if args.workload != "all":
        lines, _ = run_one(declared, args.workload, args.seed, args.seconds,
                           args.trace)
        print("\n".join(lines), flush=True)
        return

    # Every workload in turn, then one table: metric rows, workload columns.
    results = {}
    for w in names:
        lines, results[w] = run_one(declared, w, args.seed, args.seconds,
                                    args.trace)
        print("\n".join(lines[:-1]), flush=True)
    rows = [("ops", lambda r: r["attempted"]),
            ("ops_failed", lambda r: r["failed"])]
    kind = "per_layer" if args.trace else "end_to_end"
    rows += [(m["name"] + " (" + m["unit"] + ")",
              lambda r, n=m["name"]: r["metrics"][n]["value"])
             for m in declared[kind]]
    width = max(len(r[0]) for r in rows)
    print("\n%-*s" % (width, "") + "".join("%20s" % w for w in names))
    for label, get in rows:
        print("%-*s" % (width, label)
              + "".join("%20.6g" % get(results[w]) for w in names))
    if any(r["failed"] for r in results.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
