#!/usr/bin/env python3
"""The T_lookup ledger benchmark: build, run, check, report.

Run from the root of a checkout of this repository:

    python3 tlookup_bench/run.py --workload uq-open --seed 1 --seconds 40 --trace 0

It configures and builds this directory's CMake package (the repository's
libraries from source, Release) under .bench_build/tlookup, runs the
tlookup_ledger binary, echoes its human-readable ledger, and prints as the
last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1.  A traced run also writes a Chrome trace
to .bench_build/tlookup/traces/.  See README.md next to this file.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "tlookup")
BINARY = os.path.join(BUILD, "tlookup_ledger")
WORKLOADS = ("uq-open", "sweep-inline")


def fail(msg):
    print(f"tlookup_bench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once (Release) and brings the ledger binary up to date."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found at {ROOT}: run from a checkout of the repository")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "tlookup_ledger", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_ledger(workload, seed, seconds, trace, inject_uq=0.0, echo=True):
    """Runs the ledger binary once and returns its LEDGER record."""
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--out", traces]
    if inject_uq:
        cmd += ["--inject-uq", str(inject_uq)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("tlookup_ledger timed out")
    ledger = None
    for line in proc.stdout.splitlines():
        if line.startswith("LEDGER "):
            ledger = json.loads(line[len("LEDGER "):])
        elif echo:
            print(line)
    if proc.returncode != 0 or ledger is None:
        fail(f"tlookup_ledger exited with {proc.returncode}")
    return ledger


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be in [1, 60]")

    build()
    ledger = run_ledger(args.workload, args.seed, args.seconds, args.trace == 1)
    metrics = {}
    correct = bool(ledger["correct"])
    for m in expected_metrics(args.trace == 1):
        got = ledger["metrics"].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            print(f"tlookup_bench: metric {m['name']} missing or not finite", file=sys.stderr)
            correct = False
            continue
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for why in ledger["failures"]:
        print(f"tlookup_bench: check failed: {why}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": int(ledger["attempted"]),
                      "failed": int(ledger["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
