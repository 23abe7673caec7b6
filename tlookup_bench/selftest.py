#!/usr/bin/env python3
"""Layer-sensitivity self-test of the T_lookup ledger.

Run from the root of a checkout:

    python3 tlookup_bench/selftest.py [--pairs 3] [--seconds 20]

The benchmark's uq decorator busy-waits an extra 20% of every call it
times (tlookup_ledger --inject-uq 0.2); measured runs never set this.  The
test passes when
  * on uq-open, where the uq layer is nearly all of the work, max_qps_slo
    detects the slowdown: the injected median is worse than the baseline
    median by more than that metric's bound in BENCHMARK.json, or -- the
    rule for a change smaller than the run-to-run spread -- every injected
    run reads worse than every baseline run; and
  * on sweep-inline, where the traced uq share of service time is a
    minority, qps moves by no more than that share predicts
    (1 - 1/(1 + 0.2 * share)) plus a stated noise allowance.
Baseline and injected runs alternate, with the same seed in each pair.
"""
import argparse
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build-and-run helpers)

INJECT = 0.2
NOISE_ALLOWANCE = 0.05  # qps drop beyond the prediction still read as noise


def bound(name):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        for m in json.load(f)["end_to_end"]:
            if m["name"] == name:
                return m["bound"]
    raise KeyError(name)


def paired(workload, metric, pairs, seconds):
    """Per-run values of `metric`, baseline and injected."""
    base, injected = [], []
    for i in range(pairs):
        seed = 9000 + i
        for inj, out in ((0.0, base), (INJECT, injected)):
            ledger = run.run_ledger(workload, seed, seconds, False, inj, echo=False)
            if not ledger["correct"]:
                run.fail(f"{workload} seed {seed}: checks failed: {ledger['failures']}")
            out.append(ledger["metrics"][metric]["value"])
    return base, injected


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()
    run.build()
    ok = True

    base, inj = paired("uq-open", "max_qps_slo", args.pairs, args.seconds)
    b, i = statistics.median(base), statistics.median(inj)
    drop, limit = 1.0 - i / b, bound("max_qps_slo")
    separated = max(inj) < min(base)
    detected = drop > limit or separated
    ok &= detected
    print(f"uq-open max_qps_slo: baseline {[round(x) for x in base]}, "
          f"injected {[round(x) for x in inj]}")
    print(f"  median drop {drop:.3f} (bound {limit}), every injected run below every "
          f"baseline run: {separated} -> {'detected' if detected else 'NOT detected'}")

    traced = run.run_ledger("sweep-inline", 9000, args.seconds, True, echo=False)
    share = traced["metrics"]["uq.share_frac"]["value"]
    predicted = 1.0 - 1.0 / (1.0 + INJECT * share)
    base, inj = paired("sweep-inline", "qps", args.pairs, args.seconds)
    b, i = statistics.median(base), statistics.median(inj)
    drop = 1.0 - i / b
    within = share < 0.5 and drop <= predicted + NOISE_ALLOWANCE
    ok &= within
    print(f"sweep-inline qps: uq share {share:.3f}, predicted drop {predicted:.3f}, "
          f"baseline {b:.0f}/s, injected {i:.0f}/s, drop {drop:.3f} "
          f"(allowance {NOISE_ALLOWANCE}) -> {'as predicted' if within else 'NOT as predicted'}")
    print("layer-sensitivity self-test", "PASSED" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
