"""One-parameter families f_t = (g + t x^p h)/h with constant discriminant.

Whenever some point carries differential length >= p, moving that point
to infinity (with infinity fixed) makes the bump t * x^p invisible to the
discriminant: (x^p h)' = x^p h', so h (g + t x^p h)' - (g + t x^p h) h'
collapses back to h g' - g h'. A family is stored structurally as
(g, h, bump) with specialize(t) = (g + t*bump)/h, which is all the
verification harness and the chart-direction extraction need.

chart_direction differentiates the family at t = 0 in chart coordinates.
The chart pair is the plane's echelon basis at pivots x^d, x^(d-1), so
its first-order term comes from one inverse of that 2 x 2 pivot block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .cover import INF, Cover, _branch_divisor, _branch_shape, _fix_infinity, _ram_index
from .deform import DeformationVector
from .errors import InputError, SplitBoundExceeded
from .field import FieldElement, FieldSpec, make_field
from .poly import (Poly, raw_T, raw_add, raw_embed, raw_mobius_substitute,
                   raw_scale, raw_sub, raw_trim)


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

    def over(self, T: FieldSpec) -> "Family":
        """The same family with g, h and bump embedded into T, which must
        contain the family's field; itself when T is that field."""
        if T.p != self.spec.p:
            raise InputError("parameter from a field of different characteristic")
        if T.m % self.spec.m != 0:
            raise InputError("parameter field does not contain the family's field")
        if T == self.spec:
            return self
        return replace(self, g=self.g.embed(T), h=self.h.embed(T),
                       bump=self.bump.embed(T), spec=T)

    def specialize(self, t: FieldElement) -> Cover:
        fam = self.over(t.spec)
        num = fam.g + fam.bump * t
        if max(num.degree(), fam.h.degree()) < self.d:
            raise InputError(f"the fiber at t = {t} drops below degree {self.d}")
        return Cover(num, fam.h)

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


def wild_family(c: Cover, max_ext: int = 4) -> Family:
    """The constant-discriminant family through c built at its least
    point of differential length >= p (infinity preferred, then the
    field-element order). Coordinates are changed so that point sits at
    infinity and infinity is fixed; the family is f_t = (g + t x^p h)/h
    in those coordinates.

    Only the wild part of the discriminant needs to split: points of
    length below p never have to be located."""
    if max_ext < 1:
        raise InputError("max_ext must be at least 1")
    p = c.spec.p
    _, l_inf, _, wild, sqf = _branch_shape(c.spec, c.discriminant().c, c.d)
    if not wild:
        raise InputError(
            f"no point has differential length >= {p}; no such family exists here")
    if l_inf >= p:
        point = INF
    else:
        div, residual = _branch_divisor(c.spec, [(fac, 1) for fac, e in sqf if e >= p], 0,
                                        max_ext)
        if div is None:
            raise SplitBoundExceeded(
                f"wild locus does not split within extension degree {max_ext}",
                residual=Poly._raw(c.spec, residual))
        point = div.support()[0]  # least root in the fixed element order
    S = c.spec if point is INF else point.spec
    g, h = (raw_embed(c.spec, S, P.c) for P in (c.g, c.h))
    if point is not INF:
        g, h = (raw_mobius_substitute(S, P, c.d, point.code, 1, 1, 0) for P in (g, h))
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
    (which are allowed to vary). The length divisor is a function of the
    monic discriminant and the degree, so it is found once per distinct
    pair and shared by the fibers that have it."""
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
    fam_K = fam.over(K)                 # embedded once, not once per fiber
    covers = [fam_K.specialize(t) for t in ts_K]
    discs = [cov.discriminant() for cov in covers]
    disc_constant = all(d == discs[0] for d in discs)
    lengths, divisors = {}, []
    for cov, disc in zip(covers, discs):
        key = (disc, cov.d)
        if key not in lengths:
            lengths[key] = cov.differential_lengths(max_ext)
        divisors.append(lengths[key])
    specs = {div.spec for div in divisors if div.spec is not None}
    if len(specs) > 1:
        J = make_field(fam.spec.p, math.lcm(*(sp.m for sp in specs)))
        divisors = [div.embed(J) for div in divisors]
    length_divisor_constant = all(div == divisors[0] for div in divisors)
    ram_indices = {}
    support = divisors[0].support()
    T = K if divisors[0].spec is None else divisors[0].spec   # the points' one field
    for t, cov in zip(ts_K, covers):
        g, h = (raw_embed(K, T, P.c) for P in (cov.g, cov.h))
        row = {}
        for pt in support:
            e = _ram_index(T, g, h, cov.d, pt)
            row[str(pt)] = {"e": e, "wild": e % K.p == 0}
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


def chart_direction(fam: Family, max_ext: int = 4):
    """(normalized cover at t = 0, first-order direction in the chart).

    The direction is d/dt of the chart coordinates of the family at
    t = 0, a solution of the xd tangent system by constancy of the
    discriminant.

    After the source change the family is the pair M(t) = (g + t w, h),
    and its chart pair is B(t)^(-1) M(t), with B(t) the coefficient block
    at degrees d, d-1. With A = B(0)^(-1), the recorded target change, and
    (gN, hN) the chart pair at t = 0, the t-part is
    A (w - w_d gN - w_(d-1) hN, 0).
    """
    nc = fam.at_zero().normalize(max_ext)
    S = nc.cover.spec
    d = fam.d
    h, w = (raw_embed(fam.spec, S, list(P.c)) for P in (fam.h, fam.bump))
    # the bump must not disturb the discriminant even to first order
    if raw_T(S, w, h):
        raise InputError("family discriminant is not constant to first order")
    w = raw_mobius_substitute(S, w, d, *nc.source_change.codes())
    A = nc.target_change.codes()
    gN, hN = list(nc.cover.g.c), list(nc.cover.h.c)
    wd, wd1 = (w[k] if k < len(w) else 0 for k in (d, d - 1))
    r = raw_sub(S, w, raw_add(S, raw_scale(S, gN, wd), raw_scale(S, hN, wd1)))
    g1 = Poly._raw(S, raw_scale(S, r, A[0]))
    h1 = Poly._raw(S, raw_scale(S, r, A[2]))
    if g1.degree() > d - 2 or h1.degree() > d - 2:
        raise ArithmeticError("chart direction escapes the degree bound d-2")
    return nc, DeformationVector(g1, h1, None)
