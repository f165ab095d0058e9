#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload construct|assemble|serve \
        --seed N --seconds S --trace 0|1 [--scale full|tiny]

Run from the root of a checkout. Builds perfbench_driver (perfbench/driver.cpp,
linked against the parahash library from this checkout's sources) into
.bench_build/, runs one workload, records host and build metadata, and
prints its result object as the last line of standard output:

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

Everything it writes stays under .bench_build/ in the checkout: the
build tree, the per-run work directory (removed after the run) and one
JSON record per run in .bench_build/results/ (the input of compare.py).
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("construct", "assemble", "serve")
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then (re)builds the perfbench_driver target."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        die("no parahash sources next to perfbench/ (run from a checkout)")
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # the compiler's scratch files too
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "perfbench_driver", "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT, env=env) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build failed (see .bench_build/build.log)")


def source_digest():
    """sha256 over the library and benchmark sources (stands in for the
    git SHA in checkouts that are not git repositories)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        return None


def filesystem_of(path):
    """Filesystem type of the mount holding `path` (from /proc/mounts)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                mnt = parts[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                        and len(mnt) > len(best):
                    best, fstype = mnt, parts[2]
    except OSError:
        pass
    return fstype


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_steal_s():
    """Seconds of CPU time the hypervisor took from this VM, summed over
    CPUs (the steal column of /proc/stat); 0 where unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--results", default=os.path.join(BUILD_ROOT, "results"),
                    help="directory that receives one JSON record per run")
    args = ap.parse_args()

    build()
    work = os.path.join(BUILD_ROOT, "work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(work, "tmp"))
    cmd = [DRIVER, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--scale", args.scale, "--work", work]
    steal0 = cpu_steal_s()
    # Its own process group, so a timeout takes down perfbench_driver's build
    # and daemon children with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        die("perfbench_driver timed out")
    sys.stderr.write(stderr)
    lines = stdout.rstrip("\n").split("\n")
    trace_file = os.path.join(work, "trace.json")
    trace_blob = open(trace_file).read() if os.path.isfile(trace_file) else None
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        die("perfbench_driver failed with exit code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("perfbench_driver result has unexpected keys")

    host = {}
    for line in lines:
        if line.startswith("host "):
            host = dict(kv.split("=", 1) for kv in line[5:].split(" ", 2))
    meta = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": host.get("compiler", "unknown"),
        "build_type": host.get("build_type", "unknown"),
        "simd_level": host.get("simd_level", "unknown"),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "work_fs": filesystem_of(work),
        "cpu_steal_s": round(cpu_steal_s() - steal0, 2),
    }
    os.makedirs(args.results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = "%s-s%d-t%d-%s-%d" % (args.workload, args.seed, args.trace, stamp,
                                 os.getpid())
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "scale": args.scale, "meta": meta, "result": result}
    with open(os.path.join(args.results, name + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    if trace_blob is not None:
        with open(os.path.join(args.results, name + ".trace.json"), "w") as f:
            f.write(trace_blob)

    for line in lines[:-1]:
        print(line)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
