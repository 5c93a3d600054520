#!/usr/bin/env python3
"""Host-cost benchmark of the simulator.

    python3 perfbench/run.py --workload matmul --seed 17 --seconds 20 --trace 0

Builds perfbench/perfbench.exe with dune, then starts one process per run
(the heap peak is process-wide) until --seconds have passed, checks every
run's simulated output and prints medians. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the same
untraced loop is followed by one traced run, and the metrics are the
per-layer ones, which are also written with the traced run's spans to
perfbench/out/<workload>-seed<seed>.json. Without --workload every
workload runs in turn, and the last line maps each name to its result.
See perfbench/README.md.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("matmul", "nbody", "traffic", "analyze")
DEFAULT_SEED = 17
MIN_RUNS = 3
RUN_TIMEOUT_S = 120

# The metric names and units; BENCHMARK.json declares the same ones, and
# selftest.py checks that what run.py prints matches it.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "heap_peak_mb": "MB",
    "alloc_mwords": "Mword",
}

# Per-layer metrics and their units. A workload that does not run a layer
# reports 0 for it (README.md lists which).
PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.pending_hwm": "count",
    "sim.loop_frac": "fraction",
    "sim.dispatch_frac": "fraction",
    "net.msgs": "count",
    "net.local_msgs": "count",
    "net.link_xfers": "count",
    "net.startups": "count",
    "net.congestion_msgs": "count",
    "net.protocol_frac": "fraction",
    "mesh.route_ns": "ns",
    "core.reads": "count",
    "core.read_hit_ratio": "fraction",
    "core.writes": "count",
    "core.locks": "count",
    "core.copy_adds": "count",
    "core.invalidations": "count",
    "core.msgs_per_miss": "ratio",
    "core.strategy_frac": "fraction",
    "core.block_us_p50": "us",
    "core.block_us_p99": "us",
    "gc.minor_words_per_event": "word",
    "gc.promoted_words_per_event": "word",
    "gc.minor_collections": "count",
    "gc.major_collections": "count",
    "setup.network_s": "s",
    "setup.strategy_s": "s",
    "setup.app_s": "s",
    "par.windows": "count",
    "par.stall_frac": "fraction",
    "par.shard_imbalance": "ratio",
    "par.busy_s": "s",
    "par.barrier_s": "s",
    "obs.trace_events": "count",
    "obs.peak_msgs": "count",
    "obs.feed_ns_per_event": "ns",
    "obs.finalize_s": "s",
    "obs.analysis_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build perfbench.exe from source; False if the build fails."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        log(f"perfbench: cannot run dune: {e}")
        return False
    return done.returncode == 0 and os.path.exists(EXE)


def run_once(workload, seed, traced=False):
    """One run in a fresh process: perfbench.exe's JSON object, or None if the
    run raised, timed out or printed no result."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} timed out")
        return None
    if done.returncode != 0:
        log(f"perfbench: {workload} seed {seed} failed: {done.stderr.strip()}")
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"perfbench: {workload} seed {seed} printed no result")
        return None


def stored_fingerprint(workload, seed):
    """The committed fingerprint, which exists for the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    with open(FINGERPRINTS) as f:
        return json.load(f)["workloads"][workload]


def failed_runs(runs, expected):
    """Indices of failed runs. A run fails when it produced no result or its
    fingerprint differs from the expected one; without a stored fingerprint
    every run must agree with the others (the most common one wins)."""
    keys = [None if r is None else json.dumps(r["fingerprint"], sort_keys=True)
            for r in runs]
    if expected is not None:
        want = json.dumps(expected, sort_keys=True)
    else:
        seen = collections.Counter(k for k in keys if k is not None)
        want = seen.most_common(1)[0][0] if seen else None
    return [i for i, k in enumerate(keys) if k is None or k != want]


def loop(workload, seed, seconds):
    """Untraced runs for `seconds`: at least MIN_RUNS, then another one only
    while a run of median length would end in time."""
    runs, took = [], []
    start = time.monotonic()
    while (len(runs) < MIN_RUNS or
           time.monotonic() - start + statistics.median(took) <= seconds):
        t0 = time.monotonic()
        runs.append(run_once(workload, seed))
        took.append(time.monotonic() - t0)
    return runs


def median(runs, key):
    return statistics.median(r[key] for r in runs)


def span_median(runs, name):
    return statistics.median(
        sum(s["end_s"] - s["start_s"] for s in r["spans"] if s["name"] == name)
        for r in runs)


def end_to_end(untraced):
    return {k: median(untraced, k) for k in END_TO_END}


def per_layer(untraced, traced):
    """The traced run's layer counters plus what the untraced runs measure
    better: rates, GC counters and set-up spans (tracing inflates them)."""
    wall = median(untraced, "wall_s")
    events = traced["events"]
    gc = {k: statistics.median(r["gc"][k] for r in untraced)
          for k in untraced[0]["gc"]}
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(traced["layers"])
    values.update({
        "sim.events_per_s": events / wall,
        "gc.minor_words_per_event": gc["minor_words"] / events,
        "gc.promoted_words_per_event": gc["promoted_words"] / events,
        "gc.minor_collections": gc["minor_collections"],
        "gc.major_collections": gc["major_collections"],
        "setup.network_s": span_median(untraced, "setup.network"),
        "setup.strategy_s": span_median(untraced, "setup.strategy"),
        "setup.app_s": span_median(untraced, "setup.app"),
        "trace.overhead_frac": traced["wall_s"] / wall - 1.0,
    })
    return values


def write_trace(workload, seed, traced, values):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload}-seed{seed}.json")
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed,
                   "spans": traced["spans"], "per_layer": values}, f, indent=1)
    return path


def measure(workload, seed, seconds, trace, expected=None):
    """Run the benchmark; returns the result object run.py prints.
    `expected` overrides the stored fingerprint (self-tests only)."""
    if expected is None:
        expected = stored_fingerprint(workload, seed)
    runs = loop(workload, seed, seconds)
    if trace:
        runs.append(run_once(workload, seed, traced=True))
    bad = set(failed_runs(runs, expected))
    measured = [r for r in runs if r is not None]
    if not measured:
        return None
    untraced = [r for r in measured if not r["traced"]]
    if not untraced:
        return None
    if trace:
        traced = measured[-1] if measured[-1]["traced"] else None
        if traced is None:
            return None
        values = per_layer(untraced, traced)
        units = PER_LAYER
        log(f"spans and per-layer metrics -> "
            f"{write_trace(workload, seed, traced, values)}")
    else:
        values = end_to_end(untraced)
        units = END_TO_END
    return {
        "correct": not bad,
        "attempted": len(runs),
        "failed": len(bad),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def bless():
    """Record the default-seed fingerprint of every workload."""
    prints = {}
    for w in WORKLOADS:
        r = run_once(w, DEFAULT_SEED)
        if r is None:
            return 1
        prints[w] = r["fingerprint"]
    with open(FINGERPRINTS, "w") as f:
        json.dump({"seed": DEFAULT_SEED, "workloads": prints}, f, indent=1)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all four, in turn)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--bless", action="store_true",
                    help="rewrite fingerprints.json from default-seed runs")
    args = ap.parse_args()
    if not build():
        log("perfbench: build failed")
        return 2
    if args.bless:
        return bless()
    workloads = [args.workload] if args.workload else WORKLOADS
    results = {}
    for w in workloads:
        result = measure(w, args.seed, args.seconds, args.trace)
        if result is None:
            log(f"perfbench: no {w} run produced a measurement")
            return 1
        for k, m in result["metrics"].items():
            print(f"{w:8} {k:28} {m['value']:.6g} {m['unit']}")
        print(f"{w:8} {'fail_frac':28} "
              f"{result['failed'] / result['attempted']:.6g} fraction "
              f"({result['failed']}/{result['attempted']} runs)")
        results[w] = result
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
