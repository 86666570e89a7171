#!/usr/bin/env python3
"""Build and run the ExCovery end-to-end benchmark (one workload per call).

    python3 e2ebench/run.py --workload paper_loss --seed 1 --seconds 10 --trace 0

Configures and builds this directory's CMake package, which compiles the
repository's src/ libraries and the e2e_bench binary, into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench, relative to the
repository root). Build output goes to build.log there. The binary then runs
with the same arguments; with --trace 1 its span log is written next to the
build as spans-<workload>-<seed>.json. The last line of standard output is
the result JSON, and the exit code is the binary's (non-zero when the
correctness gate fails or the build is impossible).

Workloads: paper_loss, mesh_load, geo_churn (see README.md).
Seeds: 1 is the default; 9001 is held out for confirming later claims.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_loss", "mesh_load", "geo_churn")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(out_dir):
    """Configure (first time) and build e2e_bench; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no ExCovery sources next to this directory "
                 "(expected src/CMakeLists.txt); nothing to build")
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "e2e_bench",
                  "-j", jobs])
    with open(os.path.join(out_dir, "build.log"), "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                sys.exit("e2ebench: build failed, see "
                         + os.path.join(out_dir, "build.log"))
    return os.path.join(out_dir, "e2e_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-package", action="store_true",
                        help="self-test: flip one package byte before the "
                             "correctness gate, which must then fail")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.json")]
    if args.corrupt_package:
        command.append("--corrupt-package")
    sys.stdout.flush()
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main())
