#!/usr/bin/env python3
"""Builds and runs the tmerge end-to-end benchmark (e2ebench/README.md).

    python3 e2ebench/run.py --workload batch-pathtrack --seed 1 --seconds 45 --trace 0
    python3 e2ebench/run.py --selftest

Run from the repository root. The first call configures and builds the
tmerge libraries and the benchmark from source into the build directory
($CARGO_TARGET_DIR if set, else .bench_build); later calls rebuild
incrementally. The benchmark's report goes to stdout and ends with one
JSON line {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
Chrome trace of the run is written into the build directory.

Exits 2 without a result when the sources or the build are missing or
broken, and passes on the benchmark's own non-zero exit codes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    return 2


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "e2ebench")


def build(out_dir, targets):
    """Configures (once) and builds `targets`; build logs go to stderr."""
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out_dir, "-j", "3", "--target"] + targets,
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness's own tests")
    args = parser.parse_args(argv)
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    return args


def main(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("tmerge sources not found under " + ROOT +
                    "; run from a full checkout")
    out_dir = build_dir()
    try:
        build(out_dir, ["e2ebench_test"] if args.selftest else ["e2e_bench"])
    except (OSError, subprocess.CalledProcessError) as error:
        return fail("build failed: %s" % error)

    if args.selftest:
        test = os.path.join(out_dir, "e2ebench_test")
        if not os.path.isfile(test):
            return fail("GoogleTest not found; the harness tests were not built")
        return subprocess.run([test], check=False).returncode

    command = [os.path.join(out_dir, "e2e_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            out_dir, "trace_%s_%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        return fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        return fail("the benchmark printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return fail("malformed result line: " + lines[-1])
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
