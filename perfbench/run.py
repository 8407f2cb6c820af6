#!/usr/bin/env python3
"""Build and run the ubac end-to-end benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload churn_serve --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles ../src) into
.bench_build/; later runs only rebuild what changed. Result files and
Perfetto traces go to .bench_out/. The last line of standard output is the
JSON result of ubac_perfbench; the exit code is 0 only when every
correctness gate passed. See perfbench/METRICS.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("configure_mci", "churn_serve", "overload_batch", "all")
FAULTS = ("wrong-alpha", "double-release", "small-recorder")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "ubac_perfbench")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=FAULTS,
                        help="inject a fault to check that its gate fails")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 0 < args.seconds <= 3600:
        parser.error("--seconds must be in (0, 3600]")
    return args


def build():
    """Configure once, then build incrementally. Output goes to stderr so
    the last line of stdout stays the result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "admission", "controller.hpp")):
        fail("ubac sources not found under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "ubac_perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step %s failed: %s" % (step[:2], err), 3)
        if done.returncode != 0:
            fail("build step %s exited with %d" % (step[:2], done.returncode), 3)


def revision():
    """The git commit when there is one, else a digest of the sources the
    benchmark compiles, so that results of one tree share one stamp."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if sha.returncode == 0 and sha.stdout.strip():
                return "git-" + sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def check_result(line):
    """The result line must be one JSON object with exactly these keys."""
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int) and result["attempted"] >= 1)


def main(argv):
    args = parse_args(argv)
    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR, "--revision", revision()]
    if args.inject:
        command += ["--inject", args.inject]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        sys.stdout.write(err.stdout.decode() if isinstance(err.stdout, bytes)
                         else (err.stdout or ""))
        fail("ubac_perfbench did not finish within %d s" % RUN_TIMEOUT_S, 4)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode == 0 and not check_result(lines[-1]):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("ubac_perfbench printed no valid result line", 5)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode if done.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
