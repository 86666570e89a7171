#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark: a short run of every workload.

    python3 e2ebench/selftest.py

For each workload it checks that
  * every metric BENCHMARK.json names is printed with its unit, the
    end-to-end ones untraced and the per-layer ones traced;
  * the percentile run_ms_tail names has at least 10 samples beyond it;
  * the "work:" line is identical in two invocations at the same seed;
  * the correctness gate trips (non-zero exit, "correct": false) when one
    byte of the serialised package is flipped.
Exits 0 when every check holds.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3
# mesh_load is tested too, although BENCHMARK.json does not list it.
WORKLOADS = ("paper_loss", "mesh_load", "geo_churn")
TAIL = re.compile(r"^run_ms_tail: p(\d+) of (\d+) run attempts, (\d+) beyond it$")


def invoke(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace), *extra]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, lines, result, done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        work_lines = []
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, lines, result, stderr = invoke(workload, trace)
            passed = code == 0 and result is not None and result["correct"]
            check(passed, f"{workload} trace={trace}: gate passes"
                  + ("" if passed else "\n" + stderr.rstrip()))
            if result is None:
                continue
            printed = result["metrics"]
            wrong = [m["name"] for m in metrics
                     if printed.get(m["name"], {}).get("unit") != m["unit"]]
            check(not wrong, f"{workload} trace={trace}: all {len(metrics)}"
                  f" metrics printed with their units {wrong or ''}".rstrip())
            work_lines += [l for l in lines if l.startswith("work: ")]
            if trace == 0:
                tails = [TAIL.match(l) for l in lines if TAIL.match(l)]
                check(len(tails) == 1 and int(tails[0].group(3)) >= 10,
                      f"{workload}: tail percentile has >= 10 samples beyond"
                      f" it ({tails[0].group(0) if tails else 'no tail line'})")
        check(len(work_lines) == 2 and work_lines[0] == work_lines[1],
              f"{workload}: work line repeats at seed {SEED}")

        code, _, result, _ = invoke(workload, 0, "--corrupt-package")
        check(code != 0 and result is not None and not result["correct"],
              f"{workload}: gate trips on a package with one flipped byte")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
