#!/usr/bin/env python3
"""Smoke test for gaia_bench: all four workloads at --smoke scale.

    smoke_check.py GAIA_BENCH BENCHMARK_JSON

Asserts that every BENCHMARK.json metric is printed with its unit for every
workload, that failed_ratio is 0, that the traced replays reproduced the
served bytes (and Fit's loss history), that each Chrome trace loads, that the
request-stream digest is a function of the seed, and that --repeat reports
the bounds BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys
import tempfile

WORKLOADS = ["online_skewed", "online_churn", "batch_sweep", "monthly_cycle"]
# Long enough for every workload to serve in each half of a traced run; the
# digest and --repeat runs need one pass or a few sweeps.
TRACED_SECONDS = "0.5"
SHORT_SECONDS = "0.3"


def run(binary, *args):
    result = subprocess.run([binary, *args], capture_output=True, text=True,
                            timeout=60)
    if result.returncode != 0:
        sys.exit("gaia_bench %s exited %d:\n%s%s" % (
            " ".join(args), result.returncode, result.stdout, result.stderr))
    return result.stdout


def parse(output):
    """{workload: {metric: (value, unit)}} from `workload metric value unit`."""
    runs = {}
    for line in output.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[1] != "error":
            runs.setdefault(fields[0], {})[fields[1]] = (fields[2], fields[3])
    return runs


def check(condition, message):
    if not condition:
        sys.exit("FAIL: " + message)


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    declared = spec["end_to_end"] + spec["per_layer"]
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        common = ["--smoke", "--workdir", os.path.join(tmp, "work")]
        short = common + ["--seconds", SHORT_SECONDS]
        trace = os.path.join(tmp, "trace.json")
        runs = parse(run(binary, "--workload", "all", "--seed", "1",
                         "--seconds", TRACED_SECONDS, "--trace", trace,
                         *common))
        check(sorted(runs) == sorted(WORKLOADS), "workloads run: %s" % sorted(runs))
        for workload, metrics in runs.items():
            for metric in declared:
                got = metrics.get(metric["name"])
                check(got is not None, "%s: %s not printed" % (workload, metric["name"]))
                check(got[1] == metric["unit"], "%s: %s in %s, expected %s" % (
                    workload, metric["name"], got[1], metric["unit"]))
            check(metrics["correct"][0] == "1", workload + ": run not correct")
            check(float(metrics["failed_ratio"][0]) == 0.0,
                  workload + ": failed_ratio is not 0")
            check(int(metrics["replay.requests"][0]) > 0, workload + ": no replay")
            check(int(metrics["replay.mismatches"][0]) == 0,
                  workload + ": replayed bytes differ from served bytes")
            with open(trace.replace(".json", "-%s.json" % workload)) as f:
                loaded = json.load(f)
            events = loaded["traceEvents"]
            check(len(events) > 0, workload + ": empty Chrome trace")
            ids = {event["args"]["id"] for event in events}
            requests = loaded["otherData"]["request_of_span"]
            check(len(requests) > 0 and all(int(s) in ids for s in requests),
                  workload + ": request ids do not name spans of the trace")

        digest = runs["online_churn"]["stream_digest"][0]
        same = parse(run(binary, "--workload", "online_churn", "--seed", "1",
                         *short))["online_churn"]["stream_digest"][0]
        other = parse(run(binary, "--workload", "online_churn", "--seed", "2",
                          *short))["online_churn"]["stream_digest"][0]
        check(same == digest, "same seed gave digest %s then %s" % (digest, same))
        check(other != digest, "seeds 1 and 2 gave the same digest")

        table = run(binary, "--workload", "batch_sweep", "--seed", "1",
                    "--repeat", "1", *short)
        bounds = {}
        for line in table.splitlines():
            fields = line.split()
            if len(fields) == 8 and fields[0] == "batch_sweep":
                bounds[fields[1]] = fields[6]
        for metric in spec["end_to_end"]:
            check(metric["name"] in bounds, "--repeat omits " + metric["name"])
            check(float(bounds[metric["name"]]) == metric["bound"],
                  "%s: --repeat bound %s, BENCHMARK.json %s" % (
                      metric["name"], bounds[metric["name"]], metric["bound"]))
    print("gaia_bench smoke: ok")


if __name__ == "__main__":
    main()
