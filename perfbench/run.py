#!/usr/bin/env python3
"""Run one workload of the traffic benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/traffic.exe from source with dune (the first build in a
fresh checkout compiles the libraries it links), runs the workload, checks
that the metrics it reports are exactly the end-to-end set (--trace 0) or
the per-layer set (--trace 1) that BENCHMARK.json declares, with the
declared units, and prints one JSON object as the last line of standard
output. Exits non-zero without printing a result if the build fails, the
run fails, or a correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "traffic.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail("cannot read BENCHMARK.json: %s" % exc)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    # Keep every build artefact inside the checkout (no shared dune cache).
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "--display", "quiet", "perfbench/traffic.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("workload run timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("workload run failed (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["attempted"] < 1:
        fail("correctness check failed")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("metric %s not reported" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s in %s, declared %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": True, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
