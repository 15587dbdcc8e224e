#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold-open --seed 1 --seconds 25 --trace 0

The first run configures and builds perfbench/ (the EasyView library from
src/ plus the perfbench binary) with CMake under $CARGO_TARGET_DIR (default
.bench_build); later runs rebuild incrementally. The binary's output is
passed through, and a copy of it goes to <build>/perfbench/reports/. Its last
stdout line is the JSON result; the exit status is the binary's (1 when an
output check failed, 2 when the arguments or the sources are wrong).
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("cold-open", "warm-browse", "cohort-analysis")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_digest(root):
    """Commit id, or a digest of src/ and perfbench/ outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                            build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "ide", "PvpServer.h")):
        fail("no EasyView sources under " + os.path.join(root, "src"))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    reports = os.path.join(build_dir, "reports")
    os.makedirs(reports, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out-dir", reports,
           "--commit", source_digest(root)]
    try:
        run = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %d s" % RUN_TIMEOUT_S, 1)
    sys.stderr.write(run.stderr)
    sys.stdout.write(run.stdout)
    name = "%s-seed%d-trace%d.txt" % (args.workload, args.seed, args.trace)
    with open(os.path.join(reports, name), "w") as f:
        f.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
