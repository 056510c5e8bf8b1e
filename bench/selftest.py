"""Fast self-test of the benchmark's own code, on tiny inputs.

    python3 bench/selftest.py

Runs an F_3, d = 3 census and 20 queries under the tracer, a two-process
census, every correctness check on those outputs, and then every check
again with a wrong expected value (or a corrupted output), which must
make it fail; last, the speed scaling on made-up reference times. Exits
1 on the first problem. Takes a few seconds; it is not part of the timed
benchmark.
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import p1covers as P  # noqa: E402

import censuses  # noqa: E402
import checks as C  # noqa: E402
import queries  # noqa: E402
import speed  # noqa: E402
import tracer as T  # noqa: E402
import worker  # noqa: E402

N_QUERIES = 20


def expect_fail(name, fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except C.CheckFailed:
        print(f"ok    {name} rejects a wrong expected value")
        return
    raise SystemExit(f"FAIL  {name} accepted a wrong expected value")


def expect_pass(name, fn, *args, **kwargs):
    fn(*args, **kwargs)
    print(f"ok    {name} holds")


def pick_queries(seed):
    """The first query of every kind over a prime and over a non-prime
    field, then more in round order, N_QUERIES in all."""
    batch = queries.make_round(seed)
    firsts = {}
    for q in batch:
        firsts.setdefault((q["kind"], q["ext"] == 1), q)
    chosen = list(firsts.values())
    chosen += [q for q in batch if q not in chosen][:N_QUERIES - len(chosen)]
    return chosen


def census_checks(res, res2):
    """res: F_3 d = 3 with points and orbits; res2: F_4 d = 3 (characteristic 2)."""
    total = res.total_classes
    expect_pass("class total", C.check_class_total, res)
    expect_fail("class total", C.check_class_total, res, expected=total + 1)
    expect_pass("raw planes", C.check_raw_planes, res)
    expect_fail("raw planes", C.check_raw_planes, res, expected=res.raw_planes + 1)
    expect_pass("Burnside orbits", C.check_orbits, res2)
    expect_fail("Burnside orbits", C.check_orbits, res2, expected=res2.galois_orbits + 1)
    expect_pass("tangent histograms", C.check_histograms, res)
    expect_fail("tangent histograms", C.check_histograms, res, offset=1)
    expect_pass("mass 2d-2", C.check_mass, res)
    expect_fail("mass 2d-2", C.check_mass, res, mass=2 * res.d - 1)
    expect_pass("char 3 tame/wild dimensions", C.check_char23, res)
    expect_fail("char 3 tame dimensions", C.check_char23, res, tame_dims={1})
    expect_fail("char 3 wild dimensions", C.check_char23, res, wild_min=9)
    expect_pass("char 2 lengths", C.check_char23, res2)
    expect_fail("char 2 lengths", C.check_char23, res2, forbidden_length=2)

    expect_pass("points are roots", censuses.check_points_are_roots, res)
    rec = next(r for r in res.records if r.disc.degree() > 0)
    root = next(pt for pt, _ in rec.lengths.items() if pt is not P.INF)
    moved = P.FieldElement(root.spec, (root.code + 1) % root.spec.order)
    while not rec.disc.embed(root.spec).evaluate(moved):
        moved = P.FieldElement(root.spec, (moved.code + 1) % root.spec.order)
    bad = dataclasses.replace(rec, lengths=P.Divisor(
        [(moved if pt == root else pt, m) for pt, m in rec.lengths.items()]))
    expect_fail("points are roots", censuses.check_points_are_roots,
                dataclasses.replace(res, records=(bad,)))

    S, d = res.spec, res.d
    samples = censuses.sample_classes(random.Random(0), S, d, 5)
    expect_pass("census vs sympy", C.check_census_sample_sympy, res, samples)
    want = [C.sympy_disc(S.p, g, h, d) for g, h in samples]
    wrong = [(w[0], w[1] + (1,), w[2]) for w in want]
    expect_fail("census vs sympy", C.check_census_sample_sympy, res, samples, expected=wrong)
    covers = [P.Cover(P.Poly(S, g), P.Poly(S, h)) for g, h in samples]
    expect_pass("census vs Cover objects", C.check_census_sample_objects, res, covers)
    expect_fail("census vs Cover objects", C.check_census_sample_objects, res, covers,
                lengths=[(1,) for _ in covers])
    dims = [P.brute_force_tangent(c.normalize(), "xd") for c in covers]
    discs = [c.discriminant().c for c in covers]
    expect_pass("census vs brute force", C.check_census_sample_oracle, res, dims, discs)
    expect_fail("census vs brute force", C.check_census_sample_oracle, res,
                [k + 5 for k in dims], discs)


def speed_checks():
    """A span is scaled by the mean of the references around it."""
    n, e = speed.NOMINAL_S, speed.EXPONENT
    sp = speed.Speed()
    sp.refs = [n, 3 * n]
    sp.add(1.0)
    sp.add(0.5)
    sp.refs.append(n)
    sp.add(2.0)
    sp.refs.append(n)
    got = sp.scaled()
    want = [0.5 ** e, 0.5 * 0.5 ** e, 2.0]
    if len(got) != 3 or any(abs(g - w) > 1e-9 for g, w in zip(got, want)):
        raise SystemExit(f"FAIL  speed scaling gave {got}, not {want}")
    print("ok    speed scaling")


def corrupt(q, out):
    """The query and its output with one expected or compared value wrong."""
    kind = q["kind"]
    if kind == "disc":
        cov, disc, divisor = out
        return q, (cov, disc, P.Divisor([(P.INF, 1)]))
    if kind == "equiv":
        c1, c2, w = out
        return q, (c1, c2, P.Mobius.from_codes(c1.spec, 1, 1, 0, 1))
    if kind == "normalize":
        return dict(q, d=q["d"] + 1), out
    if kind == "cartier":
        f, kdim, kbasis, idim, ibasis = out
        return q, (f, kdim + 1, kbasis, idim, ibasis)
    if kind.startswith("tangent"):
        nc, dim, basis, oracle, lifts = out
        return q, (nc, dim, basis, oracle + 1, lifts)
    if kind.startswith("family"):
        fam, ts, report = out
        return q, (fam, ts, dict(report, disc_constant=False))
    (res,) = out
    return q, (dataclasses.replace(res, total_classes=res.total_classes + 1),)


def main():
    full = T.Tracer().install()
    try:
        res = censuses.run(P.make_field(3), 3, {"points": True, "orbit_count": True})
        res2 = censuses.run(P.make_field(2, 2), 3, {"points": True, "orbit_count": True})
        # over F_2 some classes are ramified at every rational point, so
        # their chart normalization needs an extension field
        res4 = censuses.run(P.make_field(2), 4, {})
        ran = []
        for q in pick_queries(0):
            ran.append((q, queries.run_query(q)[1]))
    finally:
        full.uninstall()

    census_checks(res, res2)
    for q, out in ran:
        expect_pass(f"query {q['kind']} {q['field']}", queries.check_query, q, out)
        expect_fail(f"query {q['kind']} {q['field']}", queries.check_query, *corrupt(q, out))
    disc_q = next((q, out) for q, out in ran if q["kind"] == "disc" and q["ext"] == 1)
    q, (cov, disc, divisor) = disc_q
    g, h = list(cov.g.c), list(cov.h.c)
    finite = sorted(m for pt, m in divisor.items() if pt is not P.INF)
    l_inf = divisor.multiplicity(P.INF)
    expect_pass("query disc vs sympy", C.check_against_sympy,
                q["p"], g, h, q["d"], disc.c, finite, l_inf)
    expect_fail("query disc vs sympy", C.check_against_sympy,
                q["p"], g, h, q["d"], disc.c, finite + [1], l_inf)

    metrics = full.metrics()
    results = [(res, {}), (res2, {}), (res4, {})] + [
        (out[0], {}) for q, out in ran if q["kind"] == "census"]
    expect_pass("trace counts", worker.check_trace_counts, metrics, results)
    expect_fail("trace counts", worker.check_trace_counts,
                dict(metrics, **{"census.classes": (0, "count")}), results)

    res3 = censuses.run(P.make_field(3), 3, {"processes": 2})
    expect_pass("two-process census", C.check_census, res3)
    if res3.records != res.records:
        raise SystemExit("FAIL  census differs between one and two processes")
    print("ok    census identical at one and two processes")

    missing = [label for _, _, label, _ in T.FUNCTIONS if not full.calls(label)]
    missing += [label for _, label in T.CENSUS_STAGES if not full.calls(label)]
    missing += [label for _, _, label in T.METHODS + [T.TABLES] if not full.calls(label)]
    missing += [name for name in ("deform.oracle_trials", "census.points.split",
                                  "cover.raw_normalize.extended")
                if not metrics[name][0]]
    if missing:
        raise SystemExit(f"FAIL  trace wrappers never reached: {missing}")
    print(f"ok    every trace wrapper recorded spans ({len(metrics)} layer metrics)")
    speed_checks()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
