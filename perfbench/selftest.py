#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at tiny scale, timed and traced,
with every correctness gate on, and checks the result contract:

  * the last stdout line is {"correct", "attempted", "failed", "metrics"}
    with correct == true, attempted >= 1 and failed == 0;
  * every run reports exactly the metrics BENCHMARK.json declares for
    it, each in its declared unit: every end-to-end metric in a timed
    run, every per-layer one in a traced run, on every workload.

Lists every violation and then exits non-zero. Takes about a minute,
plus the build of perfbench_driver on a first call. Its run records go
to .bench_build/selftest-results/, apart from the measured ones.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", "7", "--seconds", "3",
                   "--trace", str(trace), "--scale", "tiny", "--results",
                   os.path.join(ROOT, ".bench_build", "selftest-results")]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            tag = "%s trace=%d" % (workload, trace)
            lines = proc.stdout.strip().split("\n")
            if proc.returncode != 0:
                problems.append("%s: exit %d\n%s%s" % (
                    tag, proc.returncode, proc.stdout[-2000:],
                    proc.stderr[-2000:]))
                continue
            result = json.loads(lines[-1])
            for line in lines:
                if line.startswith("gate ") and not line.endswith(" ok"):
                    problems.append("%s: %s" % (tag, line))
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append("%s: result keys %s" % (tag, sorted(result)))
            if result.get("correct") is not True:
                problems.append("%s: correct is not true" % tag)
            if not result.get("attempted", 0) >= 1 or result.get("failed"):
                problems.append("%s: attempted %s failed %s" % (
                    tag, result.get("attempted"), result.get("failed")))
            metrics = result.get("metrics", {})
            for name, m in metrics.items():
                if declared[trace].get(name) != m.get("unit"):
                    problems.append("%s: undeclared metric %s [%s]" % (
                        tag, name, m.get("unit")))
            for name in sorted(set(declared[trace]) - set(metrics)):
                problems.append("%s: declared metric %s not reported" % (
                    tag, name))
            print("%-22s correct=%s attempted=%d metrics=%d" % (
                tag, result.get("correct"), result.get("attempted", 0),
                len(result.get("metrics", {}))))
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
