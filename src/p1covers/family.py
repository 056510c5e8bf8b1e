"""One-parameter families f_t = (g + t x^p h)/h with constant discriminant.

Whenever some point carries differential length >= p, moving that point
to infinity (with infinity fixed) makes the bump t * x^p invisible to the
discriminant: (x^p h)' = x^p h', so h (g + t x^p h)' - (g + t x^p h) h'
collapses back to h g' - g h'. A family is stored structurally as
(g, h, bump) with specialize(t) = (g + t*bump)/h, which is all the
verification harness and the chart-direction extraction need.

chart_direction differentiates the family at t = 0 in chart coordinates
by replaying the normalization pipeline over the dual numbers k[t]/(t^2):
every scalar in the pipeline (the value moved to infinity, the leading
coefficients, the shear) becomes a pair (a0, a1) = a0 + a1 t, and the
t-component of the resulting chart pair is the tangent vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cover import Cover, INF
from .deform import DeformationVector
from .errors import InputError, SplitBoundExceeded
from .field import FieldElement, FieldSpec, make_field
from .poly import (Poly, raw_add, raw_deriv, raw_embed, raw_mobius_substitute,
                   raw_mul, raw_scale, raw_sqf_list, raw_sub, raw_trim,
                   roots_with_multiplicity)


@dataclass(frozen=True)
class Family:
    """f_t = (g + t*bump)/h over the parameter field; every specialization
    is a degree-d cover with the same discriminant divisor."""

    description: str
    g: Poly
    h: Poly
    bump: Poly
    spec: FieldSpec
    d: int

    def specialize(self, t: FieldElement) -> Cover:
        T = t.spec
        if T.p != self.spec.p:
            raise InputError("parameter from a field of different characteristic")
        if T.m % self.spec.m != 0:
            raise InputError("parameter field does not contain the family's field")
        g = self.g.embed(T) if T != self.spec else self.g
        h = self.h.embed(T) if T != self.spec else self.h
        bump = self.bump.embed(T) if T != self.spec else self.bump
        num = g + bump * t
        if max(num.degree(), h.degree()) < self.d:
            raise InputError(f"the fiber at t = {t} drops below degree {self.d}")
        return Cover(num, h)

    def degenerate_parameter(self):
        """The one parameter whose fiber drops below degree d, or None.
        That happens only when deg h < d = deg bump, at the t that cancels
        the x^d coefficient of g + t*bump."""
        if self.h.degree() >= self.d or self.bump.degree() != self.d:
            return None
        S, d = self.spec, self.d
        g_d = self.g.c[d] if self.g.degree() == d else 0
        return FieldElement(S, S.neg(S.div(g_d, self.bump.c[d])))

    def at_zero(self) -> Cover:
        return Cover(self.g, self.h)

    def to_json(self):
        return {"description": self.description, "g": str(self.g),
                "h": str(self.h), "bump": str(self.bump),
                "p": self.spec.p, "ext": self.spec.m, "degree": self.d}


def _fix_infinity(S, g, h, d):
    """Post-compose so that the map fixes infinity; returns (g, h)."""
    dg, dh = len(g) - 1, len(h) - 1
    if dg == d and dh < d:
        return g, h
    if dh == d and dg < d:
        return h, g
    v = S.mul(g[-1], S.inv(h[-1]))
    return h, raw_sub(S, g, raw_scale(S, h, v))


def wild_family(c: Cover, max_ext: int = 4) -> Family:
    """The constant-discriminant family through c built at its least
    point of differential length >= p (infinity preferred, then the
    field-element order). Coordinates are changed so that point sits at
    infinity and infinity is fixed; the family is f_t = (g + t x^p h)/h
    in those coordinates.

    Only the wild part of the discriminant needs to split: points of
    length below p never have to be located."""
    p = c.spec.p
    disc = c.discriminant()
    l_inf = (2 * c.d - 2) - disc.degree()
    wild_part = Poly.one(c.spec)
    any_wild = l_inf >= p
    for fac, mult in raw_sqf_list(c.spec, list(disc.c)):
        if mult >= p:
            any_wild = True
            wild_part = wild_part * Poly._raw(c.spec, fac)
    if not any_wild:
        raise InputError(
            f"no point has differential length >= {p}; no such family exists here")
    if l_inf >= p:
        point = INF
    else:
        roots, residual = roots_with_multiplicity(wild_part, max_ext)
        if residual.degree() > 0:
            raise SplitBoundExceeded(
                f"wild locus does not split within extension degree {max_ext}",
                residual=residual)
        point = roots[0][0]  # least root in the fixed element order
    if point is INF:
        cov = c
        S = cov.spec
        g, h = list(cov.g.c), list(cov.h.c)
    else:
        cov = c if point.spec == c.spec else c.embed(point.spec)
        S = cov.spec
        Q = point.code
        g = raw_mobius_substitute(S, list(cov.g.c), c.d, Q, 1, 1, 0)
        h = raw_mobius_substitute(S, list(cov.h.c), c.d, Q, 1, 1, 0)
    g, h = _fix_infinity(S, g, h, c.d)
    d = c.d
    if len(g) - 1 != d:
        raise ArithmeticError("wild point transport lost the degree")
    e_inf = d - (len(h) - 1)
    if e_inf < p:
        raise ArithmeticError("wild point at infinity has ramification index below p")
    bump = raw_trim([0] * p + list(h))
    gp, hp, bp = Poly._raw(S, g), Poly._raw(S, h), Poly._raw(S, bump)
    base = Cover(gp, hp)
    disc0 = base.discriminant()
    disc1 = Cover(gp + bp, hp).discriminant()
    if disc0 != disc1:
        raise ArithmeticError("family discriminant is not constant")
    return Family(f"({gp} + t*({bp})) / ({hp})", gp, hp, bp, S, d)


def power_family(p: int) -> Family:
    """x^(p+1) + t*x^p over F_p; the branch lengths stay fixed while the
    ramification index at 0 drops from p+1 to p for t != 0."""
    S = make_field(p)
    g = Poly.monomial(S, p + 1)
    h = Poly.one(S)
    bump = Poly.monomial(S, p)
    return Family(f"x^{p + 1} + t*x^{p}", g, h, bump, S, p + 1)


def osserman_family(p: int) -> Family:
    """x^(p+2) + t*x^p + x over F_p for p > 2: everywhere tame, constant
    discriminant, pairwise inequivalent fibers."""
    if p == 2:
        raise InputError("this family needs characteristic greater than 2")
    S = make_field(p)
    g = Poly.monomial(S, p + 2) + Poly.x(S)
    h = Poly.one(S)
    bump = Poly.monomial(S, p)
    return Family(f"x^{p + 2} + t*x^{p} + x", g, h, bump, S, p + 2)


def verify_family(fam: Family, ts, max_ext: int = 4) -> dict:
    """Check a sample of specializations: constant discriminant, constant
    length divisor, pairwise inequivalence; tabulate ramification indices
    (which are allowed to vary)."""
    ts = list(ts)
    if not ts:
        raise InputError("no sample parameters given")
    deg = 1
    for t in ts:
        if t.spec.p != fam.spec.p:
            raise InputError("sample parameter of wrong characteristic")
        deg = math.lcm(deg, t.spec.m)
    K = make_field(fam.spec.p, deg)
    ts_K = [FieldElement(K, K.embed_code(t.code, t.spec)) for t in ts]
    covers = [fam.specialize(t) for t in ts_K]
    discs = [cov.discriminant() for cov in covers]
    disc_constant = all(d == discs[0] for d in discs)
    divisors = [cov.differential_lengths(max_ext) for cov in covers]
    specs = {div.spec for div in divisors if div.spec is not None}
    if len(specs) > 1:
        join = 1
        for sp in specs:
            join = math.lcm(join, sp.m)
        J = make_field(fam.spec.p, join)
        divisors = [div.embed(J) for div in divisors]
    length_divisor_constant = all(div == divisors[0] for div in divisors)
    ram_indices = {}
    support = divisors[0].support()
    for t, cov in zip(ts_K, covers):
        row = {}
        for pt in support:
            e, wild = cov.ram_index(pt)
            row[str(pt)] = {"e": e, "wild": wild}
        ram_indices[str(t)] = row
    planes = {cov.plane() for cov in covers}
    pairwise_inequivalent = len(planes) == len(covers)
    return {
        "description": fam.description,
        "samples": [str(t) for t in ts_K],
        "disc": str(discs[0]),
        "disc_constant": disc_constant,
        "length_divisor": divisors[0].to_json(),
        "length_divisor_constant": length_divisor_constant,
        "ram_indices": ram_indices,
        "pairwise_inequivalent": pairwise_inequivalent,
    }


# ---------------------------------------------------------------------------
# chart direction via dual numbers


def _dual_scale(S, P, s):
    """(P0 + P1 t) * (s0 + s1 t) mod t^2 for a dual scalar s."""
    p0, p1 = P
    s0, s1 = s
    out0 = raw_scale(S, p0, s0)
    out1 = raw_add(S, raw_scale(S, p0, s1), raw_scale(S, p1, s0))
    return (out0, out1)


def _dual_sub(S, A, B):
    return (raw_sub(S, A[0], B[0]), raw_sub(S, A[1], B[1]))


def _dual_coeff(P, k):
    p0, p1 = P
    return (p0[k] if k < len(p0) else 0, p1[k] if k < len(p1) else 0)


def _dual_inv(S, s):
    """(s0 + s1 t)^(-1) = s0^(-1) - s0^(-2) s1 t; needs s0 != 0."""
    s0, s1 = s
    i0 = S.inv(s0)
    return (i0, S.neg(S.mul(S.mul(i0, i0), s1)))


def chart_direction(fam: Family, max_ext: int = 4):
    """(normalized cover at t = 0, first-order direction in the chart).

    The direction is d/dt of the chart coordinates of the family at
    t = 0, a solution of the xd tangent system by constancy of the
    discriminant.
    """
    base = fam.at_zero()
    nc = base.normalize(max_ext)
    S = nc.cover.spec
    d = fam.d
    g0 = raw_embed(fam.spec, S, list(fam.g.c))
    h0 = raw_embed(fam.spec, S, list(fam.h.c))
    w0 = raw_embed(fam.spec, S, list(fam.bump.c))
    # the bump must not disturb the discriminant even to first order
    t_disc = raw_sub(S, raw_mul(S, h0, raw_deriv(S, w0)),
                     raw_mul(S, w0, raw_deriv(S, h0)))
    if t_disc:
        raise InputError("family discriminant is not constant to first order")
    G = (g0, w0)
    H = (h0, [])
    src = nc.source_change
    if not src.is_identity():
        a, b, c, dd = src.codes()
        G = (raw_mobius_substitute(S, G[0], d, a, b, c, dd),
             raw_mobius_substitute(S, G[1], d, a, b, c, dd))
        H = (raw_mobius_substitute(S, H[0], d, a, b, c, dd),
             raw_mobius_substitute(S, H[1], d, a, b, c, dd))
    # fix infinity; the value there can move with t (the bump may carry
    # full degree d), so the branch must look at dual coefficients
    Gd = _dual_coeff(G, d)
    Hd = _dual_coeff(H, d)
    if Hd == (0, 0):
        if Gd[0] == 0:
            raise ArithmeticError("family lost its degree at infinity")
    elif Gd == (0, 0):
        G, H = H, G
    else:
        if Hd[0] == 0:
            raise ArithmeticError("denominator with nilpotent leading coefficient")
        v = _dual_scale_scalar(S, Gd, _dual_inv(S, Hd))
        G, H = H, _dual_sub(S, G, _dual_scale(S, H, v))
    if len(G[0]) - 1 != d or len(H[0]) - 1 != d - 1:
        raise ArithmeticError("dual chart normalization produced wrong degrees")
    lam_g = _dual_inv(S, _dual_coeff(G, d))
    lam_h = _dual_inv(S, _dual_coeff(H, d - 1))
    G = _dual_scale(S, G, lam_g)
    H = _dual_scale(S, H, lam_h)
    shear = _dual_coeff(G, d - 1)
    if shear != (0, 0):
        G = _dual_sub(S, G, _dual_scale(S, H, shear))
    if raw_trim(list(G[0])) != list(nc.cover.g.c) or raw_trim(list(H[0])) != list(nc.cover.h.c):
        raise ArithmeticError("dual normalization disagrees with the chart form")
    g1 = Poly._raw(S, raw_trim(list(G[1])))
    h1 = Poly._raw(S, raw_trim(list(H[1])))
    if g1.degree() > d - 2 or h1.degree() > d - 2:
        raise ArithmeticError("chart direction escapes the degree bound d-2")
    return nc, DeformationVector(g1, h1, None)


def _dual_scale_scalar(S, a, b):
    a0, a1 = a
    b0, b1 = b
    return (S.mul(a0, b0), S.add(S.mul(a0, b1), S.mul(a1, b0)))
