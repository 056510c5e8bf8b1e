"""The `queries` workload: a seeded mix of single-cover queries.

Every query goes through the library calls that the `p1covers` CLI makes
for the matching subcommand and renders its result with the same JSON
payload, so a query costs what one CLI invocation costs minus argument
parsing and interpreter start-up. Inputs are generated in set-up from the
seed; the timed part sees only the query text.

The mix is stratified: each round holds a fixed number of queries of each
kind, field and degree, and the seed picks only the covers. So rounds on
different seeds do the same kinds of work and their rates compare.
"""

from __future__ import annotations

import json
import random

import p1covers as P
from p1covers import poly as _poly

from checks import check_against_sympy, check_census, require

MAX_EXT = 4
FIELDS = {"F2": (2, 1), "F3": (3, 1), "F4": (2, 2), "F5": (5, 1), "F7": (7, 1),
          "F8": (2, 3), "F9": (3, 2), "F25": (5, 2), "F49": (7, 2)}
ALL = tuple(FIELDS)
ORACLE_TRIALS = 7000      # largest brute-force search a tangent query may run
FAMILY_SAMPLES = 5
MAX_TRIES = 100_000       # random covers drawn for one constrained query

# (kind, fields, degrees, constraint); one query per (field, degree) per round.
# "oracle-xli-k": discriminant split over the base field at exactly k points
MIX = [
    ("disc", ALL, (2, 3, 4, 5), "splits"),
    ("disc", ("F7", "F9", "F49"), (4, 5), "quartic"),
    ("equiv", ALL, (2, 3, 4, 5), None),
    ("normalize", ALL, (2, 3, 4, 5), None),
    ("cartier", ALL, (2, 3, 4, 5), None),
    ("tangent-xd", ("F2", "F3", "F4", "F5", "F7", "F8", "F9"), (3,), "oracle-xd"),
    ("tangent-xd", ("F2", "F3", "F4"), (4,), "oracle-xd"),
    ("tangent-xd", ("F2",), (5,), "oracle-xd"),
    ("tangent-xli", ("F2", "F4"), (2,), "oracle-xli-1"),
    ("tangent-xli", ("F3", "F5"), (2,), "oracle-xli-2"),
    ("tangent-xli", ("F2", "F3", "F4"), (3,), "oracle-xli-2"),
    ("tangent-xli", ("F2",), (4,), "oracle-xli-2"),
    ("family-wild", ("F2", "F3", "F4", "F8", "F9"), (3, 4, 5), "wild"),
    ("family-power", ("F2", "F3", "F5", "F7"), (None,), None),
    ("family-osserman", ("F3", "F5", "F7"), (None,), None),
    ("census", ("F3",), (4,), None),
    ("census", ("F4",), (3,), None),
]


def field_closure():
    """Every field a query can reach: F_{p^(m r)} for each base field and
    r <= MAX_EXT, as far as the library's extension limit allows."""
    out = set()
    for p, m in FIELDS.values():
        for r in range(1, MAX_EXT + 1):
            if m * r <= 12:
                out.add((p, m * r))
    return sorted(out, key=lambda pm: pm[0] ** pm[1])


def build_fields():
    """Construct every reachable field and force its tables (fields up to
    729 elements) or decode caches (up to 2^20) with one multiply and one
    inverse; queries then meet no lazy build."""
    for p, n in field_closure():
        S = P.make_field(p, n)
        S.mul(S.order - 1, S.order - 1)
        S.inv(S.order - 1)


# -- input generation (set-up) -------------------------------------------------


def _factor_degrees(S, disc):
    """[(irreducible degree, multiplicity)] of a discriminant."""
    out = []
    for fac, e in _poly.raw_sqf_list(S, list(disc)):
        pieces, _ = _poly.raw_ddf(S, fac)
        for g, r in pieces:
            out.extend([(r, e)] * ((len(g) - 1) // r))
    return out


def _split_degree(S, degrees):
    """Least s <= MAX_EXT over which every factor splits, else None."""
    for s in range(1, MAX_EXT + 1):
        if S.m * s <= 12 and all(s % r == 0 for r, _ in degrees):
            return s
    return None


def _random_cover(rng, S, d):
    while True:
        g = [rng.randrange(S.order) for _ in range(d)] + [rng.randrange(1, S.order)]
        dh = rng.randrange(d + 1)
        h = [rng.randrange(S.order) for _ in range(dh)] + [rng.randrange(1, S.order)]
        if rng.random() < 0.5:
            g, h = h, g
        try:
            return P.Cover(P.Poly(S, g), P.Poly(S, h))
        except P.InputError:
            continue


def _oracle_vars(S, cov, variant):
    n = 2 * cov.d - 2
    if variant == "xli":
        degrees = _factor_degrees(S, cov.discriminant().c)
        n += len(degrees) + (1 if 2 * cov.d - 2 > cov.discriminant().degree() else 0)
    return n


def _accept(S, cov, constraint):
    if constraint is None:
        return True
    disc = cov.discriminant()
    degrees = _factor_degrees(S, disc.c)
    s = _split_degree(S, degrees)
    if constraint in ("splits", "quartic"):
        # Over a non-prime base, roots of a factor of degree 1 < r < s come
        # out through an intermediate field whose embedding does not agree
        # with the base field's own: those points are not roots of the
        # discriminant. Such covers are left out of the mix.
        if s is None or (S.m > 1 and any(1 < r < s for r, _ in degrees)):
            return False
        return constraint == "splits" or (s == 4 and any(r == 4 for r, _ in degrees))
    if constraint == "wild":
        l_inf = 2 * cov.d - 2 - disc.degree()
        wild = l_inf >= S.p or any(e >= S.p for _, e in degrees)
        return wild and all(r <= 2 for r, _ in degrees)
    _, variant, *points = constraint.split("-")
    # xli: split over the base field at a set number of points, so each
    # stratum's oracle search has a fixed size whatever the seed
    if variant == "xli" and (any(r > 1 for r, _ in degrees) or
                             _oracle_vars(S, cov, variant) != 2 * cov.d - 2 + int(points[0])):
        return False
    if S.order ** _oracle_vars(S, cov, variant) > ORACLE_TRIALS:
        return False
    return cov.normalize(MAX_EXT).spec is S


def _cover_for(rng, S, d, constraint):
    for _ in range(MAX_TRIES):
        cov = _random_cover(rng, S, d)
        if _accept(S, cov, constraint):
            return cov
    raise RuntimeError(f"no cover over {S!r} of degree {d} meets {constraint!r}")


def _mobius(rng, S):
    while True:
        a, b, c, d = (rng.randrange(S.order) for _ in range(4))
        if S.sub(S.mul(a, d), S.mul(b, c)):
            return P.Mobius.from_codes(S, a, b, c, d)


def make_round(seed, index=0):
    """The queries of one round, in a seeded order."""
    rng = random.Random(f"queries/{seed}/{index}")
    out = []
    for kind, fields, degrees, constraint in MIX:
        for name in fields:
            p, m = FIELDS[name]
            S = P.make_field(p, m)
            for d in degrees:
                q = {"kind": kind, "field": name, "p": p, "ext": m, "d": d,
                     "seed": rng.randrange(1 << 30)}
                if kind == "cartier":
                    coeffs = [rng.randrange(S.order) for _ in range(d)]
                    q["f"] = str(P.Poly(S, coeffs + [rng.randrange(1, S.order)]))
                elif kind in ("equiv", "disc", "normalize", "tangent-xd", "tangent-xli",
                              "family-wild"):
                    cov = _cover_for(rng, S, d, constraint)
                    q["cover"] = str(cov)
                    if kind == "equiv":
                        q["cover2"] = str(cov.postcompose(_mobius(rng, S)))
                out.append(q)
    rng.shuffle(out)
    return out


# -- execution (timed) --------------------------------------------------------


def run_query(q):
    """Run one query; returns (rendered JSON text, objects for the checks)."""
    S = P.make_field(q["p"], q["ext"])
    kind = q["kind"]
    if kind == "disc":
        cov = P.Cover.parse(q["cover"], S)
        disc = cov.discriminant()
        divisor = cov.differential_lengths(MAX_EXT)
        payload = {"cover": str(cov), "degree": cov.d, "disc": str(disc),
                   "lengths": divisor.to_json(), "mass": divisor.mass()}
        out = (cov, disc, divisor)
    elif kind == "equiv":
        c1 = P.Cover.parse(q["cover"], S)
        c2 = P.Cover.parse(q["cover2"], S)
        w = c1.equivalent(c2)
        payload = {"equivalent": w is not None, "witness": w.to_json() if w else None}
        out = (c1, c2, w)
    elif kind == "normalize":
        cov = P.Cover.parse(q["cover"], S)
        nc = cov.normalize(MAX_EXT)
        payload = nc.to_json()
        out = (cov, nc)
    elif kind == "cartier":
        f = P.Poly.parse(q["f"], S)
        om = P.operator_matrix(f)
        kdim, kbasis = P.kernel_T(f)
        idim, ibasis = P.image_T(f)
        payload = {"p": S.p, "f": str(f),
                   "matrix": [[om.matrix.entry(i, j).to_str("X") for j in range(S.p)]
                              for i in range(S.p)],
                   "kernel_dim": kdim,
                   "kernel_basis": [[e.to_str("X") for e in v] for v in kbasis],
                   "image_dim": idim,
                   "image_basis": [[e.to_str("X") for e in v] for v in ibasis]}
        out = (f, kdim, kbasis, idim, ibasis)
    elif kind.startswith("tangent"):
        variant = kind.split("-")[1]
        cov = P.Cover.parse(q["cover"], S)
        nc = cov.normalize(MAX_EXT)
        dim, basis = P.tangent_dim(nc, variant, MAX_EXT)
        oracle = P.brute_force_tangent(nc, variant, MAX_EXT)
        lifts = ([P.lift_deformation(nc, v, 4) for v in basis]
                 if variant == "xd" else None)
        payload = {"variant": variant, "dim": dim,
                   "basis": [v.to_json() for v in basis],
                   "normalization": nc.to_json(), "oracle": oracle,
                   "oracle_agrees": oracle == dim,
                   "lifts": [lr.to_json() for lr in lifts] if lifts is not None else None}
        out = (nc, dim, basis, oracle, lifts)
    elif kind.startswith("family"):
        if kind == "family-wild":
            fam = P.wild_family(P.Cover.parse(q["cover"], S), MAX_EXT)
        elif kind == "family-power":
            fam = P.power_family(S.p)
        else:
            fam = P.osserman_family(S.p)
        K = _sample_field(fam.spec, FAMILY_SAMPLES + 1)
        degenerate = _degenerate_parameter(fam, K)
        codes = [c for c in range(K.order) if c != degenerate]
        codes = random.Random(q["seed"]).sample(codes, FAMILY_SAMPLES)
        ts = [P.FieldElement(K, c) for c in sorted(codes)]
        report = P.verify_family(fam, ts, MAX_EXT)
        payload = {"family": fam.to_json(), "verify": report}
        out = (fam, ts, report)
    elif kind == "census":
        res = P.census_by_disc(S, q["d"], max_ext=MAX_EXT, points=True)
        payload = res.to_json()
        out = (res,)
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    return json.dumps(payload, sort_keys=True), out


def _degenerate_parameter(fam, K):
    """Code of the t in K at which g + t*bump loses degree d, else None.

    verify_family does not skip that fiber, a cover of lower degree, and
    then reports the length divisor as non-constant; the sample leaves it
    out."""
    if fam.bump.degree() != fam.d:
        return None
    lead = -fam.g.leading_coefficient() / fam.bump.leading_coefficient()
    return P.embed(lead, K).code


def _sample_field(F, n):
    """Least F_{p^k} containing F with at least n elements."""
    k = F.m
    while F.p ** k < n:
        k += F.m
    return P.make_field(F.p, k)


# -- checks ---------------------------------------------------------------------


def check_query(q, out):
    kind = q["kind"]
    d = q["d"]
    if kind == "disc":
        cov, disc, divisor = out
        require(divisor.mass() == 2 * d - 2, f"{cov}: mass {divisor.mass()}")
        require(divisor.multiset() == cov.length_multiset(),
                f"{cov}: divisor {divisor.multiset()} vs lengths {cov.length_multiset()}")
        for pt, mult in divisor.items():
            if pt is P.INF:
                continue
            moved = disc.embed(pt.spec) if pt.spec != disc.spec else disc
            require(not moved.evaluate(pt), f"{cov}: {pt} is not a root of the disc")
        if q["ext"] == 1:
            g, h = list(cov.g.c), list(cov.h.c)
            finite = sorted(m for pt, m in divisor.items() if pt is not P.INF)
            l_inf = divisor.multiplicity(P.INF)
            check_against_sympy(q["p"], g, h, d, disc.c, finite, l_inf)
    elif kind == "equiv":
        c1, c2, w = out
        require(w is not None, f"{c1} and its post-composed copy judged inequivalent")
        moved = c1.postcompose(w)
        require(moved.g == c2.g and moved.h == c2.h, f"{c1}: witness {w} does not map it")
    elif kind == "normalize":
        cov, nc = out
        c = nc.cover
        require(c.g.degree() == d and c.g.c[-1] == 1, f"{cov}: chart numerator {c.g}")
        require(c.h.degree() == d - 1 and c.h.c[-1] == 1, f"{cov}: chart denominator {c.h}")
        require(d < 2 or c.g[d - 1].code == 0, f"{cov}: chart numerator has x^(d-1)")
        require(c.discriminant().degree() == 2 * d - 2, f"{cov}: chart ramified at infinity")
        redone = nc.original.precompose(nc.source_change).postcompose(nc.target_change)
        require(redone == c, f"{cov}: coordinate changes do not reproduce the chart")
        require(c.length_multiset() == cov.length_multiset(), f"{cov}: lengths changed")
    elif kind == "cartier":
        f, kdim, kbasis, idim, ibasis = out
        require(kdim == 1, f"T_f for f={f}: kernel dimension {kdim}")
        require(idim == q["p"] - 1, f"T_f for f={f}: image dimension {idim}")
        require(not P.apply_T(f, P.reassemble(kbasis[0])),
                f"T_f for f={f}: kernel vector not killed")
    elif kind.startswith("tangent"):
        nc, dim, basis, oracle, lifts = out
        require(oracle == dim, f"{nc.cover}: tangent dim {dim}, brute force {oracle}")
        for lr in lifts or ():
            if lr.success:
                terms = P.deformed_discriminant(nc, lr.corrections, 4)
                require(not any(terms[1:]), f"{nc.cover}: lift moves the discriminant")
    elif kind.startswith("family"):
        fam, ts, report = out
        for key in ("disc_constant", "length_divisor_constant", "pairwise_inequivalent"):
            require(report[key] is True, f"{fam.description}: {key} is {report[key]}")
        disc0 = fam.at_zero().discriminant()
        for t in ts:
            cov = fam.specialize(t)
            require(cov.discriminant() == disc0.embed(cov.spec),
                    f"{fam.description}: discriminant moves at t={t}")
    elif kind == "census":
        check_census(out[0])
    return True
