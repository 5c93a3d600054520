#!/usr/bin/env python3
"""Self-tests of the host-cost benchmark (one to two minutes):

    python3 perfbench/selftest.py

1. A perturbed run -- matmul at another network seed, checked against the
   stored default-seed fingerprint -- is reported as failed, while the
   default seed passes.
2. Every metric name and unit the benchmark prints matches BENCHMARK.json,
   for every workload.
3. heap_peak_mb of a run does not depend on which run came before it.
"""

import json
import os
import subprocess
import sys

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def printed(workload, trace):
    """The result object `run.py` prints for a minimal run."""
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"),
         "--workload", workload, "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_perturbed_run_fails():
    expected = run.stored_fingerprint("matmul", run.DEFAULT_SEED)
    bad = run.measure("matmul", run.DEFAULT_SEED + 1, 0, 0, expected=expected)
    assert not bad["correct"], bad
    assert bad["failed"] == bad["attempted"], bad
    good = run.measure("matmul", run.DEFAULT_SEED, 0, 0)
    assert good["correct"] and good["failed"] == 0, good


def test_metric_names_match_benchmark_json():
    with open(BENCHMARK) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for w in run.WORKLOADS:
            got = printed(w, trace)
            assert got["correct"], (w, trace, got)
            units = {k: m["unit"] for k, m in got["metrics"].items()}
            assert units == want, (w, section, set(units) ^ set(want))


def test_heap_peak_independent_of_previous_run():
    alone = run.run_once("matmul", run.DEFAULT_SEED)["heap_peak_mb"]
    run.run_once("analyze", run.DEFAULT_SEED)  # a larger heap, run first
    after = run.run_once("matmul", run.DEFAULT_SEED)["heap_peak_mb"]
    assert abs(after - alone) <= 0.01 * alone, (alone, after)


def main():
    if not run.build():
        print("selftest: build failed", file=sys.stderr)
        return 2
    tests = [test_perturbed_run_fails,
             test_metric_names_match_benchmark_json,
             test_heap_peak_independent_of_previous_run]
    failures = 0
    for t in tests:
        try:
            t()
            print(f"ok   {t.__name__}")
        except AssertionError as e:
            failures += 1
            print(f"FAIL {t.__name__}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
