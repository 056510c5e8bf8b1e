"""Benchmark entry point.

    python3 bench/run.py --workload census --seed 1 --seconds 25 --trace 0

Runs one workload of BENCHMARK.json against the library under ./src and
prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics. `--trace 0` reports the end-to-end
metrics from untraced runs; `--trace 1` reports the per-layer metrics
from a traced run and the tracing overhead. Every workload runs in fresh
worker processes (bench/worker.py), one at a time, so imports, set-up and
lazy table builds are paid as a user of a fresh process pays them, and
each worker has a core to itself. Times are scaled to the box's nominal
speed (bench/speed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("census", "queries")
DEADLINE_S = 170.0          # every run ends within 180 s
# fresh measuring processes per run, one after another: each runs its
# share of --seconds and reports its own set-up time
PROCESSES = {"census": 3, "queries": 2}
ROUND_STRIDE = 1000         # rounds apart that the processes of a run start


class WorkerError(RuntimeError):
    pass


def start(args, mode, seconds=None, first_round=0):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds or args.seconds), "--mode", mode,
           "--first-round", str(first_round)]
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def finish(procs, deadline):
    """Wait for every worker; returns their final JSON lines in order."""
    outs = []
    try:
        for proc in procs:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                raise WorkerError(f"worker exited with code {proc.returncode}")
            lines = stdout.strip().splitlines()
            if not lines:
                raise WorkerError("worker printed no result")
            outs.append(json.loads(lines[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return outs


def run_workers(args, modes, deadline):
    """Start the workers of one step together and wait for all of them."""
    return finish([start(args, mode) for mode in modes], deadline)


def merge_outcomes(parts):
    return {"correct": all(p["correct"] for p in parts),
            "attempted": sum(p["attempted"] for p in parts),
            "failed": sum(p["failed"] for p in parts)}


def end_to_end(args, deadline):
    """Untraced runs of whole rounds in fresh processes, one after another;
    their latencies are pooled and their set-up times give the median."""
    k = PROCESSES[args.workload]
    runs = []
    for part in range(k):
        runs += finish([start(args, "measure", args.seconds / k, part * ROUND_STRIDE)],
                       deadline)
    lat = sorted(x for r in runs for x in r["latencies"])
    if len(lat) >= 40:
        tail = statistics.quantiles(lat, n=100)[97]
    else:
        # a census run has about a dozen rounds, too few for a
        # percentile: the tail is the slowest
        tail = lat[-1]
    for r in runs:
        print(f"wall {r['wall_s']:.3f} s in {r['operations']} operations, "
              f"{r['refs']} speed references, median {r['ref_median_s'] * 1e3:.3f} ms, "
              f"set-up {r['setup_s']:.3f} s", file=sys.stderr)
    metrics = {"setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
               "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
               "classes_per_s": (sum(r["classes"] for r in runs)
                                 / sum(r["census_s"] for r in runs), "1/s"),
               "queries_per_s": (len(lat) / sum(lat), "1/s"),
               "query_p50_ms": (statistics.median(lat) * 1e3, "ms"),
               "query_p98_ms": (tail * 1e3, "ms")}
    return merge_outcomes(runs), metrics


def per_layer(args, deadline):
    """Traced and untraced passes of the same rounds side by side, one
    core each."""
    traced, untraced = run_workers(args, ["traced", "untraced"], deadline)
    metrics = dict(traced["metrics"])
    metrics["trace.overhead_s"] = (traced["busy_s"] - untraced["busy_s"], "s")
    return merge_outcomes([traced, untraced]), metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "p1covers", "__init__.py")):
        print("error: no p1covers sources under ./src next to the benchmark",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        outcome, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:34s} {value:16.6f} {unit}", file=sys.stderr)
    outcome["metrics"] = {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
