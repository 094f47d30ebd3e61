#!/usr/bin/env python3
"""Builds and runs the selection-service benchmark.

Run from the repository root:

    python3 selbench/run.py --workload wire_1x1 --seed 1 --seconds 20 --trace 0

Configures and builds selbench/ (which compiles ../src) into .bench_build/,
then runs the benchmark binary. The last stdout line is the JSON result.
Build output goes to stderr.

An untraced run is split over several fresh processes sharing --seconds,
and their figures are combined (see combine()). Each process gets its own
randomized address-space layout, and the layout alone moves the serving
path's speed by up to a fifth; the processes also take turns over the
CPUs, whose speed on a shared host differs by as much. Averaging keeps
both out of the comparison between two builds. A traced run is one
process.

`--workload all` runs every workload in turn and ends with one JSON line
whose metric names are prefixed by the workload.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "selbench")
BINARY = os.path.join(BUILD, "selbench")
WORKLOADS = ["wire_1x1", "cap_storm", "fleet_4x3", "gp_ucb"]
# Processes per untraced run. Each gp_ucb process spends ~2 s training and
# computing reference answers, so it gets fewer.
PROCESSES = {"gp_ucb": 4}
DEFAULT_PROCESSES = 8


def build():
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.exit("selbench: library sources (src/) not found next to selbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "selbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("selbench: build step failed: " + " ".join(step))


def run_process(argv, cpu=None):
    """Runs the binary once, on `cpu` if given (it pins itself to one CPU of
    those it may use), echoing its output; returns the parsed result."""
    trace_dir = os.path.join(".bench_build", "traces")
    pin = None if cpu is None else lambda: os.sched_setaffinity(0, {cpu})
    result = subprocess.run([BINARY, *argv, "--trace-dir", trace_dir],
                            stdout=subprocess.PIPE, text=True, preexec_fn=pin)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode != 0:
        sys.exit(result.returncode)
    return json.loads(result.stdout.strip().splitlines()[-1])


def combine(results):
    """One result from several processes' results: timings are averaged,
    setup_s is the median, peak_rss_mb the maximum; the answer-quality
    figures are the same in every process."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name == "setup_s":
            value = statistics.median(values)
        elif name == "peak_rss_mb":
            value = max(values)
        else:
            value = statistics.fmean(values)
        metrics[name] = {"value": value, "unit": first["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def flag_value(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv[:-1] else None


def run_one(argv):
    """Runs one workload: several processes when untraced, else one."""
    if flag_value(argv, "--trace") == "1" or "--seconds" not in argv[:-1]:
        return run_process(argv)
    processes = PROCESSES.get(flag_value(argv, "--workload"),
                              DEFAULT_PROCESSES)
    at = argv.index("--seconds") + 1
    share = list(argv)
    share[at] = repr(float(argv[at]) / processes)
    cpus = sorted(os.sched_getaffinity(0))
    return combine([run_process(share, cpus[i % len(cpus)])
                    for i in range(processes)])


def main():
    argv = sys.argv[1:]
    build()
    if flag_value(argv, "--workload") == "all":
        at = argv.index("--workload") + 1
        combined = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
        for workload in WORKLOADS:
            argv[at] = workload
            result = run_one(argv)
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][workload + "." + name] = metric
        print(json.dumps(combined))
        return
    print(json.dumps(run_one(argv)))


if __name__ == "__main__":
    main()
