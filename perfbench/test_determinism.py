#!/usr/bin/env python3
"""The benchmark's own test: on the sim-failover workload, the counts a
round produces are a pure function of the seed.

    python3 perfbench/test_determinism.py [--seed N] [--seconds S]

Runs the simulator workload twice untraced and twice traced with one seed
(through run.py, so each run is also correctness-checked), and asserts that
every deterministic count is identical across the repeated runs: messages
per commit, views, events per commit, minor words per commit, the
unavailability window and the simulated-clock latency percentiles, plus the
detector, selection and signature counts. Exits non-zero on any mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["sim-failover"]
END_TO_END = ["msgs_per_commit", "committed_frac"]
PER_LAYER = [
    "sim.events_per_commit", "gc.minor_words_per_commit", "sim.unavail_ms",
    "sim.commit_p50_ms", "sim.commit_p99_ms", "crypto.sigs_per_commit",
    "fd.open_expect_mean", "fd.open_expect_max", "fd.expectations_per_commit",
    "fd.timeouts", "fd.false_suspicions", "core.quorums_issued",
    "core.updates_merged", "core.qsel_msgs_per_commit",
    "xpaxos.msg_bytes_per_commit", "xpaxos.view_change_bytes", "xpaxos.views",
    "client.latency_samples",
]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, universal_newlines=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    mismatches = 0
    for w in WORKLOADS:
        for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
            a = run(w, args.seed, args.seconds, trace)
            b = run(w, args.seed, args.seconds, trace)
            for name in names:
                va, vb = a[name]["value"], b[name]["value"]
                ok = va == vb
                mismatches += not ok
                print("%-4s %-13s %-30s %r %r" % ("ok" if ok else "FAIL", w, name, va, vb))
    if mismatches:
        print("%d deterministic counts differ between runs" % mismatches)
        sys.exit(1)
    print("all deterministic counts identical")


if __name__ == "__main__":
    main()
