#!/usr/bin/env python3
"""Run one workload of the repository's benchmark (see README.md here).

Usage, from the repository root:

    python3 bench/suite/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

Builds snapea_bench and the snapea_serve daemon from this checkout's
sources into .bench_build/suite (configured once, incremental after),
runs the workload, checks that every metric BENCHMARK.json names was
reported with its unit, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics; --trace 1 makes a traced run, reports the per-layer
metrics, writes a Chrome trace under .bench_build/suite/traces/ and
prints the tracing overhead against the last untraced run of the same
workload.  Exits non-zero, without a result line, when the run cannot
finish, and non-zero with "correct": false when a check fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
SUITE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "suite")
BENCH_BIN = os.path.join(BUILD, "snapea_bench")
RESULTS = os.path.join(BUILD, "results")
TRACES = os.path.join(BUILD, "traces")

# A run must end within 180 s; the bench gets this long, then its whole
# process group (the daemon and its workers too) is killed.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd):
    """Run a build step; its output goes to stderr, stdout stays clean."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{' '.join(cmd)} exited {proc.returncode}")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources (CMakeLists.txt, src/) in the "
             "working directory; run from the repository root")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            run_logged(["cmake", "-S", SUITE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        run_logged(["cmake", "--build", BUILD, "--target", "snapea_bench",
                    "-j", jobs])


def stop_group(pgid):
    """Kill whatever is left of the bench's process group and wait."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def check_trace(path):
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"trace {path} is not Chrome trace-event JSON: {e}")
    if not events or any(e.get("ph") != "X" for e in events):
        fail(f"trace {path} holds no complete events")
    print(f"trace: {path} ({len(events)} spans)")


def print_overhead(workload, traced, spec):
    """Traced minus untraced, per end-to-end metric."""
    path = os.path.join(RESULTS, f"{workload}.untraced.json")
    if not os.path.isfile(path):
        print("tracing overhead: no untraced run of this workload yet")
        return
    with open(path) as f:
        base = json.load(f)["metrics"]
    print("tracing overhead (traced - untraced):")
    for m in spec["end_to_end"]:
        name = m["name"]
        if name in base and name in traced:
            d = traced[name]["value"] - base[name]["value"]
            print(f"  {name:<28} {d:+.6g} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]")

    build()
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    out = os.path.join(RESULTS, f"{tag}-trace{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [BENCH_BIN, "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--out", out]
    trace_path = None
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        trace_path = os.path.join(TRACES, f"{tag}.json")
        cmd += ["--trace-out", trace_path]

    sys.stdout.flush()
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail(f"snapea_bench did not finish within {RUN_TIMEOUT_S} s")
    stop_group(proc.pid)
    if not os.path.isfile(out):
        fail(f"snapea_bench exited {rc} without a report")
    with open(out) as f:
        report = json.load(f)

    section, wanted = (("per_layer", spec["per_layer"]) if args.trace
                       else ("metrics", spec["end_to_end"]))
    got = report[section]
    bad = [m["name"] for m in wanted
           if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]
    if bad:
        fail(f"metrics missing or in another unit: {', '.join(bad)}")
    if args.trace:
        check_trace(trace_path)
        print_overhead(args.workload, report["metrics"], spec)
    else:
        shutil.copyfile(out, os.path.join(RESULTS,
                                          f"{args.workload}.untraced.json"))

    correct = bool(report["correct"]) and rc == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: got[m["name"]] for m in wanted},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
