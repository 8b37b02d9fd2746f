#!/usr/bin/env python3
"""Build and run the FACTOR benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload arm_flow --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --self-test

The first form builds perfbench/main.exe with dune, runs one workload and
relays its output; the last line is the JSON result.  --trace 1 prints the
per-layer metrics of a traced run instead of the end-to-end ones.
--self-test runs every workload at toy size in both modes and checks that
each printed metric is well named and listed in BENCHMARK.json.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170


def build():
    # The shared dune cache lives outside the checkout; keep every
    # build artifact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    return proc.returncode == 0 and os.path.exists(EXE)


def result_of(stdout):
    """The JSON result on the last line, or None if it is malformed."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def run(args):
    proc = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            label = "%s --trace %d" % (w["name"], trace)
            rc, out = run(["--workload", w["name"], "--seed", "1", "--seconds", "1",
                           "--trace", str(trace), "--quick"])
            res = result_of(out)
            if rc != 0 or res is None:
                problems.append("%s: exit %d, no result line" % (label, rc))
                continue
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s: correct=%s failed=%s attempted=%s" % (
                    label, res["correct"], res["failed"], res["attempted"]))
            got = {n: m.get("unit") for n, m in res["metrics"].items()}
            for n in got:
                if not NAME.match(n):
                    problems.append("%s: bad metric name %r" % (label, n))
            if got != expected[trace]:
                problems.append("%s: metrics %s differ from BENCHMARK.json" % (
                    label, sorted(set(got.items()) ^ set(expected[trace].items()))))
            print("self-test %-28s %d metrics" % (label, len(got)))
    for p in problems:
        print("self-test FAIL: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if a.self_test:
        return self_test()
    if not a.workload:
        ap.error("--workload is required")
    rc, out = run(["--workload", a.workload, "--seed", str(a.seed),
                   "--seconds", str(a.seconds), "--trace", str(a.trace)])
    if rc != 0 or result_of(out) is None:
        sys.stderr.write(out)
        print("perfbench: run failed (exit %d)" % rc, file=sys.stderr)
        return rc or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
