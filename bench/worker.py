"""One fresh workload process; `run.py` starts it and reads the JSON line
it prints last.

Modes:
  measure    set up, run whole rounds of the workload untraced for
             --seconds, check every output
  untraced   a fixed number of rounds, untraced
  traced     the same rounds with every layer boundary traced

The measured run scales every time it reports to the box's nominal
speed by reference samples taken between operations (speed.py); the
traced and untraced passes report wall times.
"""

from __future__ import annotations

import time

from speed import Speed, reference, scale  # speed.py sits next to this file

REF_START = reference()          # the core's speed as set-up begins
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import p1covers as P  # noqa: E402

if not os.path.abspath(P.__file__).startswith(SRC + os.sep):
    sys.exit(f"p1covers imported from {P.__file__}, not from {SRC}")

import censuses  # noqa: E402
import queries  # noqa: E402
from checks import CheckFailed, require  # noqa: E402

MIN_QUERIES = 500      # p98 needs ten samples above it
TRACE_ROUNDS = 3       # query rounds in a traced or untraced pass
MUL_OPERANDS = 2000
MUL_REPEATS = 7
# table path, packed-int path, digit-vector path (above 2^20 elements)
MUL_FIELDS = {"table": (3, 2), "packed": (3, 7), "digits": (7, 8)}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_done():
    """Set-up time so far, scaled by the references taken as it began and
    as it ended."""
    return scale(time.perf_counter() - T_START, REF_START, reference())


class Outcome:
    """Operations attempted and failed, and whether every check held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def attempt(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, fn, *args):
        try:
            fn(*args)
        except CheckFailed as exc:
            self.correct = False
            print(f"check failed: {exc}", file=sys.stderr)

    def as_json(self):
        return {"attempted": self.attempted, "failed": self.failed, "correct": self.correct}


class Tally:
    """Operations timed between speed references: their wall times, their
    rounds, and the classes of those that are censuses."""

    def __init__(self):
        self.speed = Speed()
        self.classes = []          # per operation; None if it is no census
        self.rounds = []           # per operation
        self.round = 0
        self.wall_s = 0.0

    def time(self, fn, *args):
        self.speed.tick()
        t0 = time.perf_counter()
        result = fn(*args)
        dt = time.perf_counter() - t0
        self.speed.add(dt)
        self.rounds.append(self.round)
        self.wall_s += dt
        return result

    def census(self, res):
        self.classes.append(res.total_classes if res is not None else None)

    def as_json(self, per_round):
        """Scaled latencies of the operations, or of whole rounds."""
        lat = self.speed.scaled()
        census_s = sum(t for t, c in zip(lat, self.classes) if c is not None)
        if per_round:
            sums = {}
            for t, r in zip(lat, self.rounds):
                sums[r] = sums.get(r, 0.0) + t
            lat = [sums[r] for r in sorted(sums)]
        refs = self.speed.refs
        return {"latencies": lat, "classes": sum(c for c in self.classes if c),
                "census_s": census_s, "wall_s": self.wall_s, "operations": len(self.rounds),
                "ref_median_s": statistics.median(refs), "refs": len(refs)}


def census_round(args, outcome, tally, plan, index):
    """One round of the census plan; returns its deferred checks."""
    checks = []
    for spec, d, kw in plan:
        res = tally.time(outcome.attempt, censuses.run, spec, d, kw)
        tally.census(res)
        if res is not None:
            checks.append((censuses.check, res, kw, args.seed, index))
    return checks


def query_round(args, outcome, tally, first, index):
    """One round of queries; returns its deferred checks."""
    checks = []
    batch = first if index == args.first_round else queries.make_round(args.seed, index)
    for q in batch:
        result = tally.time(outcome.attempt, queries.run_query, q)
        tally.census(result[1][0] if result is not None and q["kind"] == "census"
                     else None)
        if result is not None:
            checks.append((queries.check_query, q, result[1]))
    return checks


def workload_setup(args):
    """(scaled set-up seconds, inputs) of the workload."""
    if args.workload == "queries":
        queries.build_fields()
        inputs = queries.make_round(args.seed, args.first_round)
    else:
        inputs = censuses.setup()
    return setup_done(), inputs


def run_rounds(args, outcome, inputs, stop, deferred=None):
    """Closed loop over whole rounds until stop(tally, rounds) holds. Each
    round's outputs are checked after it, outside the timed spans, or
    appended to `deferred` to be checked later."""
    one_round = query_round if args.workload == "queries" else census_round
    tally = Tally()
    index = args.first_round
    while True:
        tally.round = index
        checks = one_round(args, outcome, tally, inputs, index)
        tally.speed.tick(force=True)
        if deferred is None:
            for fn, *check_args in checks:
                outcome.check(fn, *check_args)
        else:
            deferred += checks
        del checks
        index += 1
        if stop(tally, index - args.first_round):
            return tally


# -- field multiply micro-benchmark ---------------------------------------------


def mul_ns():
    """ns per FieldElement multiply on a fixed operand stream."""
    out = {}
    for path, (p, m) in MUL_FIELDS.items():
        S = P.make_field(p, m)
        rng = random.Random(f"mul/{p}/{m}")
        pairs = [(P.FieldElement(S, rng.randrange(1, S.order)),
                  P.FieldElement(S, rng.randrange(1, S.order))) for _ in range(MUL_OPERANDS)]
        for a, b in pairs:
            a * b
        runs = []
        for _ in range(MUL_REPEATS):
            t0 = time.perf_counter_ns()
            for a, b in pairs:
                a * b
            runs.append((time.perf_counter_ns() - t0) / len(pairs))
        out["field.mul_ns." + path] = (statistics.median(runs), "ns")
    return out


# -- modes ------------------------------------------------------------------------


def mode_measure(args):
    outcome = Outcome()
    setup_s, inputs = workload_setup(args)
    min_ops = MIN_QUERIES if args.workload == "queries" else 0
    tally = run_rounds(args, outcome, inputs,
                       lambda t, rounds: t.wall_s >= args.seconds
                       and len(t.classes) >= min_ops)
    out = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    # on `census` the operation whose latency is reported is a round: its
    # censuses differ in size, and a percentile over single censuses
    # jumps from one size to the next
    out.update(tally.as_json(per_round=args.workload == "census"))
    out.update(outcome.as_json())
    return out


def mode_pass(args, traced):
    """A fixed number of rounds (one census round, TRACE_ROUNDS query
    rounds), with or without tracing."""
    from tracer import Tracer

    tracer = Tracer() if traced else None
    outcome = Outcome()
    if tracer:
        tracer.install("tables")    # set-up builds the tables
    _, inputs = workload_setup(args)
    if tracer:
        tracer.install()
    rounds = TRACE_ROUNDS if args.workload == "queries" else 1
    deferred = []
    tally = run_rounds(args, outcome, inputs, lambda t, n: n >= rounds, deferred)
    if tracer:
        tracer.uninstall()
    # checks call the library too: they run after the trace has ended
    for fn, *check_args in deferred:
        outcome.check(fn, *check_args)
    out = {"busy_s": tally.wall_s}
    if traced:
        metrics = tracer.metrics()
        metrics.update(mul_ns())
        out["metrics"] = metrics
        if args.workload == "census":
            results = [(c[1], c[2]) for c in deferred]
            outcome.check(check_trace_counts, metrics, results)
    out.update(outcome.as_json())
    return out


def check_trace_counts(metrics, results):
    """The traced counts agree with what the census itself reports."""
    classes = sum(res.total_classes for res, _ in results)
    records = sum(len(res.records) for res, _ in results)
    require(metrics["census.classes"][0] == classes,
            f"trace counted {metrics['census.classes'][0]} classes, census {classes}")
    require(metrics["census.records"][0] == records,
            f"trace counted {metrics['census.records'][0]} records, census {records}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["census", "queries"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True,
                    choices=["measure", "untraced", "traced"])
    ap.add_argument("--first-round", type=int, default=0,
                    help="index of the first round, so that the processes "
                         "of one run draw different rounds")
    args = ap.parse_args(argv)
    if args.mode == "measure":
        out = mode_measure(args)
    else:
        out = mode_pass(args, traced=args.mode == "traced")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
