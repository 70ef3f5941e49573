#!/usr/bin/env python3
"""Builds gaia_bench from this checkout and runs one workload of record.

    python3 gaia_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout; the first call configures and compiles, later
calls only rebuild what changed. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where metrics are BENCHMARK.json's
end_to_end metrics (--trace 0) or per_layer metrics (--trace 1). Build output
and diagnostics go to stderr. Without the repository sources next to this
directory the build fails and nothing is printed on stdout.
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
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", cmake_dir, "--target", "gaia_bench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(cmake_dir, "gaia_bench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)

    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    report_path = os.path.join(build_dir, "report-%s.json" % tag)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--json", report_path,
               "--workdir", os.path.join(build_dir, "work")]
    if args.trace:
        command += ["--trace", os.path.join(build_dir, "trace-%s.json" % tag)]
    try:
        run = subprocess.run(command, stdout=sys.stderr,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("gaia_bench ran past %d s" % RUN_TIMEOUT_S)
    if not os.path.exists(report_path):
        fail("gaia_bench exited with %d and wrote no report" % run.returncode)
    with open(report_path) as f:
        report = json.load(f)["runs"][0]
    os.remove(report_path)

    metrics = {}
    for metric in wanted:
        got = report["metrics"].get(metric["name"])
        if got is None:
            fail("gaia_bench did not report " + metric["name"])
        if got["unit"] != metric["unit"]:
            fail("%s reported in %s, expected %s"
                 % (metric["name"], got["unit"], metric["unit"]))
        metrics[metric["name"]] = got
    for error in report["errors"]:
        print("gaia_bench: " + error, file=sys.stderr)
    correct = bool(report["correct"]) and run.returncode == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
