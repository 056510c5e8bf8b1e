"""The `census` workload: which censuses one round runs, the set-up that
builds their fields, and how their output is checked.

The census inputs are fixed; the seed only picks the classes that the
sampled checks recompute independently.
"""

from __future__ import annotations

import random

import p1covers as P
from p1covers import field as _field

from checks import (check_census, check_census_sample_objects,
                    check_census_sample_oracle, check_census_sample_sympy,
                    fail, require, sympy_coprime, sympy_disc)

MAX_EXT = 4
# one round: (p, m, d, census_by_disc keyword arguments), all in one
# process. Each census takes well under a second at the nominal speed, so
# that a change of the core's speed seldom falls inside one (speed.py).
ROUND = [
    (2, 1, 6, {"points": True, "orbit_count": True}),
    (3, 1, 4, {"points": True, "orbit_count": True}),
    (2, 2, 4, {"points": True, "orbit_count": True}),
    (5, 1, 3, {"points": True, "orbit_count": True}),
    (7, 1, 3, {"points": False, "orbit_count": True}),
    (2, 3, 3, {"points": True, "orbit_count": True}),
    (3, 2, 3, {"points": False, "orbit_count": True}),
]
SAMPLES = 40          # sampled classes per census for the independent checks
ORACLE_SAMPLES = 3    # F_5, d = 3 classes recounted by brute force


def setup():
    """The base fields, and the tables of every field up to the table limit
    that the round's divisor points reach (F_p^(m r), r <= MAX_EXT), so
    that no lazy table build lands inside a timed census."""
    plan = []
    for p, m, d, kw in ROUND:
        S = P.make_field(p, m)
        reach = range(1, MAX_EXT + 1) if kw.get("points") else (1,)
        for r in reach:
            if p ** (m * r) <= _field.TABLE_LIMIT:
                T = P.make_field(p, m * r)
                T.mul(T.order - 1, T.order - 1)
        plan.append((S, d, dict(kw, max_ext=MAX_EXT)))
    return plan


def run(spec, d, kw):
    return P.census_by_disc(spec, d, **kw)


def sample_classes(rng, S, d, n):
    """n admissible classes (g, h) as code lists, drawn as random echelon
    forms: g monic of degree d, h with its pivot at x^(d - c2)."""
    out = []
    while len(out) < n:
        c2 = rng.randrange(1, d + 1)
        g = [rng.randrange(S.order) for _ in range(d)] + [1]
        g[d - c2] = 0
        h = [rng.randrange(S.order) for _ in range(d - c2)] + [1]
        if S.m == 1:
            if sympy_coprime(S.p, g, h) and sympy_disc(S.p, g, h, d) is not None:
                out.append((g, h))
            continue
        try:
            P.Cover(P.Poly(S, g), P.Poly(S, h))
        except P.InputError:
            continue
        out.append((g, h))
    return out


def check_points_are_roots(res):
    """Every materialized finite point is a root of its record's disc."""
    for r in res.records:
        if r.lengths is None:
            continue
        for pt, _ in r.lengths.items():
            if pt is P.INF:
                continue
            disc = r.disc.embed(pt.spec) if pt.spec != r.disc.spec else r.disc
            if disc.evaluate(pt):
                fail(f"disc {r.disc}: point {pt} is not a root")


def check(res, kw, seed, index=0):
    """Every check that applies to one census result of round `index`."""
    S, d = res.spec, res.d
    check_census(res, orbits=kw.get("orbit_count", False))
    check_points_are_roots(res)
    rng = random.Random(f"census/{seed}/{index}/{S.order}/{d}")
    samples = sample_classes(rng, S, d, SAMPLES)
    if S.m == 1:
        check_census_sample_sympy(res, samples)
    else:
        check_census_sample_objects(
            res, [P.Cover(P.Poly(S, g), P.Poly(S, h)) for g, h in samples])
    if (S.order, d) == (5, 3):
        dims, discs = [], []
        for g, h in samples:
            cov = P.Cover(P.Poly(S, g), P.Poly(S, h))
            nc = cov.normalize()
            if nc.spec is not S:
                continue    # the oracle would have to search over an extension
            dims.append(P.brute_force_tangent(nc, "xd"))
            discs.append(cov.discriminant().c)
            if len(dims) == ORACLE_SAMPLES:
                break
        require(len(dims) == ORACLE_SAMPLES, "too few F_5 classes for the oracle sample")
        check_census_sample_oracle(res, dims, discs)
