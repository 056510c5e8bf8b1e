"""Correctness checks for benchmark outputs.

Each check raises CheckFailed when a property fails. Expected values come
from closed forms, from sympy (prime fields only) or from properties the
method must have, never from a stored copy of earlier output. Every
check takes its expected value as an argument with the correct default,
so the self-test can hand it a wrong one and watch it fail.
"""

from __future__ import annotations

from math import gcd


class CheckFailed(AssertionError):
    pass


def fail(message):
    raise CheckFailed(message)


def require(ok, message):
    if not ok:
        fail(message)


# -- closed forms ------------------------------------------------------------


def class_total_formula(p, q, d):
    """Separable base-point-free classes: q^(2d-2) - [p | d] q^(2d/p - 2)."""
    total = q ** (2 * d - 2)
    if d % p == 0:
        total -= q ** (2 * d // p - 2)
    return total


def gaussian_binomial_2(q, n):
    """Number of 2-dimensional subspaces of F_q^n."""
    return (q ** n - 1) * (q ** n - q) // ((q ** 2 - 1) * (q ** 2 - q))


def burnside_orbits(p, m, d):
    """Frobenius orbits on classes over F_{p^m}: (1/m) sum N(p^gcd(k, m))."""
    return sum(class_total_formula(p, p ** gcd(k, m), d) for k in range(m)) // m


# -- census --------------------------------------------------------------------


def check_class_total(res, expected=None):
    s = res.spec
    if expected is None:
        expected = class_total_formula(s.p, s.order, res.d)
    require(res.total_classes == expected,
            f"GF({s.order}) d={res.d}: {res.total_classes} classes, expected {expected}")
    counted = sum(r.class_count for r in res.records)
    require(counted == expected,
            f"GF({s.order}) d={res.d}: record counts sum to {counted}, expected {expected}")


def check_raw_planes(res, expected=None):
    if expected is None:
        expected = gaussian_binomial_2(res.spec.order, res.d + 1)
    require(res.raw_planes == expected,
            f"raw_planes {res.raw_planes}, Gaussian binomial gives {expected}")


def check_orbits(res, expected=None):
    if expected is None:
        expected = burnside_orbits(res.spec.p, res.spec.m, res.d)
    require(res.galois_orbits == expected,
            f"{res.galois_orbits} Frobenius orbits, Burnside gives {expected}")


def check_histograms(res, offset=0):
    """Each record's tangent histogram sums to its class count."""
    for r in res.records:
        if r.tangent_dims:
            n = sum(r.tangent_dims.values())
            if n != r.class_count + offset:
                fail(f"disc {r.disc}: histogram sums to {n}, record counts {r.class_count}")


def check_mass(res, mass=None):
    """Every record and every split divisor has mass 2d - 2."""
    if mass is None:
        mass = 2 * res.d - 2
    for r in res.records:
        if r.mass() != mass:
            fail(f"disc {r.disc}: record mass {r.mass()} != {mass}")
        if r.lengths is not None:
            if not r.split_ok:
                fail(f"disc {r.disc}: points without split_ok")
            if r.lengths.mass() != mass:
                fail(f"disc {r.disc}: divisor mass {r.lengths.mass()} != {mass}")
            if r.lengths.multiset() != r.length_multiset():
                fail(f"disc {r.disc}: divisor multiplicities disagree with the lengths")


def check_char23(res, tame_dims=frozenset({0}), wild_min=1, forbidden_length=1):
    """In characteristic 2 and 3 tame records have only dimension 0 and
    wild ones only dimensions >= 1; in characteristic 2 no length is 1."""
    p = res.spec.p
    if p not in (2, 3):
        return
    tame_dims = set(tame_dims)
    for r in res.records:
        lengths = r.length_multiset()
        wild = lengths[-1] >= p if lengths else False
        if wild != r.wild:
            fail(f"disc {r.disc}: wild flag {r.wild}, lengths say {wild}")
        dims = r.tangent_dims.keys()
        if r.wild:
            if min(dims, default=wild_min) < wild_min:
                fail(f"disc {r.disc}: wild record has dimensions {sorted(dims)}")
        elif not dims <= tame_dims:
            fail(f"disc {r.disc}: tame record has dimensions {sorted(dims)}")
        if p == 2 and forbidden_length in lengths:
            fail(f"disc {r.disc}: length {forbidden_length} in characteristic 2")


def check_census(res, orbits=False):
    check_class_total(res)
    check_raw_planes(res)
    check_histograms(res)
    check_mass(res)
    check_char23(res)
    if orbits:
        check_orbits(res)


# -- sympy oracle (prime fields) ------------------------------------------------


def sympy_disc(p, g, h, d):
    """(monic disc coefficients low degree first, finite lengths, l_inf) of
    the cover g/h over F_p, computed by sympy from the definition."""
    import sympy

    x = sympy.Symbol("x")
    G = sympy.Poly(list(reversed(g)) or [0], x, modulus=p)
    H = sympy.Poly(list(reversed(h)) or [0], x, modulus=p)
    D = H * G.diff(x) - G * H.diff(x)
    if D.is_zero:
        return None
    D = D.monic()
    coeffs = tuple(int(c) % p for c in reversed(D.all_coeffs()))
    _, factors = D.factor_list()
    finite = []
    for f, e in factors:
        finite.extend([e] * f.degree())
    return coeffs, tuple(sorted(finite)), 2 * d - 2 - D.degree()


def sympy_coprime(p, g, h):
    import sympy

    x = sympy.Symbol("x")
    G = sympy.Poly(list(reversed(g)) or [0], x, modulus=p)
    H = sympy.Poly(list(reversed(h)) or [0], x, modulus=p)
    return G.gcd(H).degree() == 0


def check_against_sympy(p, g, h, d, disc_coeffs, finite, l_inf, expected=None):
    """Discriminant and length multiset of g/h over F_p match sympy."""
    if expected is None:
        expected = sympy_disc(p, g, h, d)
    got = (tuple(disc_coeffs), tuple(finite), l_inf)
    require(got == expected, f"g={g} h={h} over F_{p}: got {got}, sympy gives {expected}")


def check_census_sample_sympy(res, samples, expected=None):
    """Sampled classes (g, h) over a prime field: the record for the class's
    sympy discriminant exists and carries sympy's length multiset."""
    p, d = res.spec.p, res.d
    by_disc = {r.disc.c: r for r in res.records}
    for i, (g, h) in enumerate(samples):
        want = sympy_disc(p, g, h, d) if expected is None else expected[i]
        rec = by_disc.get(want[0])
        require(rec is not None, f"no record for the sympy discriminant of {g}/{h}")
        check_against_sympy(p, g, h, d, rec.disc.c, rec.finite_lengths, rec.l_inf,
                            expected=want)


def check_census_sample_objects(res, covers, lengths=None):
    """Sampled classes over any field: the object-level Cover gives the
    discriminant of an existing record and the same length multiset."""
    by_disc = {r.disc.c: r for r in res.records}
    for i, cov in enumerate(covers):
        rec = by_disc.get(cov.discriminant().c)
        require(rec is not None, f"no record for the discriminant of {cov}")
        want = cov.length_multiset() if lengths is None else lengths[i]
        require(rec.length_multiset() == want,
                f"{cov}: record lengths {rec.length_multiset()}, cover gives {want}")


def check_census_sample_oracle(res, oracle_dims, discs):
    """The brute-force tangent dimension of each sampled class is one of
    the dimensions the census histogram lists for its discriminant."""
    by_disc = {r.disc.c: r for r in res.records}
    for dim, key in zip(oracle_dims, discs):
        rec = by_disc.get(key)
        require(rec is not None, f"no record for the discriminant {key}")
        require(dim in rec.tangent_dims,
                f"disc {rec.disc}: oracle dimension {dim}, census has {rec.tangent_dims}")
