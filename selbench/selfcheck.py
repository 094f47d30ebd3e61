#!/usr/bin/env python3
"""Self-check of the selection-service benchmark.

Run from the repository root:

    python3 selbench/selfcheck.py

Builds the benchmark, then checks that it
  * counts every answer of a predictor that returns wrong configurations
    as failed, and reports correct = false;
  * refuses to produce numbers when ACSEL_FAULTS is set;
  * gives identical oracle_perf_pct, cap_violation_pct and
    predictor.calls_per_sel on two runs with one seed (calls_per_sel only
    where no batching race decides it: every workload but cap_storm,
    where it must stay below 1);
  * prints a traced ledger in which every layer the workload crosses
    takes time and those rows alone come within 5% of the traced
    end-to-end p50 (unattributed_ns stays small).
Exits non-zero on the first failed check.
"""
import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = "1"
DETERMINISTIC_CALLS = {"wire_1x1": 1.0, "fleet_4x3": 3.0, "gp_ucb": 1.0}
# The ledger rows each workload crosses; each must read above 0.
MEASURED_ROWS = {
    "wire_1x1": ["client.own_ns", "server.wait_ns", "predictor.predict_ns",
                 "scheduler.select_ns", "server.tail_ns"],
    "cap_storm": ["server.submit_ns", "server.wait_ns"],
    "fleet_4x3": ["fleet.own_ns", "server.wait_ns", "predictor.predict_ns",
                  "scheduler.select_ns", "server.tail_ns"],
}
MEASURED_ROWS["gp_ucb"] = MEASURED_ROWS["wire_1x1"]
UNATTRIBUTED_SHARE = 0.05


def bench(*argv, env=None):
    result = subprocess.run([run.BINARY, *argv, "--trace-dir",
                             os.path.join(".bench_build", "traces")],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)
    return result


def result_of(completed):
    if completed.returncode != 0:
        sys.exit("selfcheck: benchmark failed:\n" + completed.stderr)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        sys.exit(1)


def main():
    run.build()

    corrupt = result_of(bench("--workload", "wire_1x1", "--seed", "7",
                              "--seconds", SECONDS, "--trace", "0",
                              "--corrupt-predictor"))
    check(not corrupt["correct"] and corrupt["failed"] == corrupt["attempted"],
          "wrong-config predictor: %d of %d answers failed"
          % (corrupt["failed"], corrupt["attempted"]))

    env = dict(os.environ, ACSEL_FAULTS="node_loss")
    refused = bench("--workload", "wire_1x1", "--seed", "7", "--seconds",
                    SECONDS, "--trace", "0", env=env)
    check(refused.returncode != 0 and "{" not in refused.stdout,
          "ACSEL_FAULTS set: exit code %d, no result" % refused.returncode)

    for workload in run.WORKLOADS:
        plain = [result_of(bench("--workload", workload, "--seed", "3",
                                 "--seconds", SECONDS, "--trace", "0"))
                 for _ in range(2)]
        traced_runs = [bench("--workload", workload, "--seed", "3",
                             "--seconds", SECONDS, "--trace", "1")
                       for _ in range(2)]
        traced = [result_of(t) for t in traced_runs]
        for r in plain + traced:
            check(r["correct"] and r["failed"] == 0,
                  "%s: %d answers, 0 failed" % (workload, r["attempted"]))
        for name in ("oracle_perf_pct", "cap_violation_pct"):
            a, b = (r["metrics"][name]["value"] for r in plain)
            check(a == b, "%s: %s repeats (%s)" % (workload, name, a))
        a, b = (r["metrics"]["predictor.calls_per_sel"]["value"]
                for r in traced)
        if workload in DETERMINISTIC_CALLS:
            check(a == b == DETERMINISTIC_CALLS[workload],
                  "%s: predictor.calls_per_sel repeats (%s)" % (workload, a))
        else:
            check(0 < a < 1 and 0 < b < 1,
                  "%s: predictor.calls_per_sel below 1 (%s, %s)"
                  % (workload, a, b))
        p50 = float(re.search(r"traced p50 ([0-9.]+) ns",
                              traced_runs[0].stdout).group(1))
        layers = traced[0]["metrics"]
        for name in MEASURED_ROWS[workload]:
            check(layers[name]["value"] > 0,
                  "%s: %s measured (%.0f ns)"
                  % (workload, name, layers[name]["value"]))
        unattributed = layers["unattributed_ns"]["value"]
        check(abs(unattributed) < UNATTRIBUTED_SHARE * p50,
              "%s: unattributed_ns %.0f ns is under %d%% of the traced p50 "
              "(%.0f ns)" % (workload, unattributed,
                             100 * UNATTRIBUTED_SHARE, p50))
    print("selfcheck: all checks passed")


if __name__ == "__main__":
    main()
