"""First-order and order-N deformation spaces of a chart-normalized cover.

For f = g/h in chart form, perturbing to (g + t g1)/(h + t h1) changes the
discriminant by t * (T_g(h1) - T_h(g1)) modulo t^2, with g1, h1 of degree
at most d-2. Fixing the whole discriminant divisor (variant "xd") imposes
T_g(h1) - T_h(g1) = 0; fixing only the length multiset while letting the
branch points move to first order ("xli") relaxes the right-hand side to
the span of the directions (l_i mod p) * disc(f)/(x - c_i), one slot
eps_i per branch point c_i. Both variants are plain linear systems over
the base field (xd) or the splitting field of the discriminant (xli).

The brute-force oracle counts the solutions without the tangent matrix:
the t-coefficient T_g(h1) + T_{g1}(h) is an h1 term plus a g1 term, so
it computes each term once per polynomial and matches the h1 terms
against target - (g1 term), rechecking each counted solution from the
definition.

Lifting to k[t]/(t^N) proceeds order by order: the t^r coefficient of the
deformed discriminant is the same linear map applied to (g_r, h_r) plus a
known polynomial assembled from lower-order corrections, so each order is
one inhomogeneous solve with the tangent matrix. An inconsistent order is
reported as an obstruction, which is a legitimate outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cartier import _slices, reassemble
from .cover import NormalizedCover
from .errors import BudgetExceeded, InputError
from .field import FieldElement, FieldSpec
from .poly import (FieldMatrix, Poly, polymat_kernel, raw_T, raw_T_columns, raw_add,
                   raw_embed, raw_kernel, raw_mul, raw_neg, raw_quo_root, raw_rref,
                   raw_scale, raw_sub, raw_trim)

BRUTE_FORCE_LIMIT = 10 ** 7


@dataclass(frozen=True)
class DeformationVector:
    """A first-order direction (g1, h1), plus the eps slots for xli."""

    g1: Poly
    h1: Poly
    eps: tuple | None = None

    def to_json(self):
        out = {"g1": str(self.g1), "h1": str(self.h1)}
        if self.eps is not None:
            out["eps"] = [str(e) for e in self.eps]
        return out


@dataclass(frozen=True)
class TangentSystem:
    """Linear conditions cutting out the first-order deformations.

    `g` and `h` are the chart pair as raw code tuples over `spec` (embedded
    in the splitting field of the discriminant for xli). Unknown layout:
    d-1 coefficients of g1, then d-1 coefficients of h1, then one eps per
    branch point (xli only). Rows are the coefficients of x^0 .. x^(2d-3)
    of the defining polynomial identity.
    """

    cover: NormalizedCover
    variant: str
    spec: FieldSpec
    g: tuple
    h: tuple
    matrix: FieldMatrix
    points: tuple
    lengths: tuple
    degenerate: tuple


def _tangent_columns_raw(S, g, h, exps):
    """Columns of the map (g1, h1) -> T_g(h1) - T_h(g1), with g1 and then
    h1 running over the monomials x^j, j in exps."""
    return ([raw_neg(S, col) for col in raw_T_columns(S, h, exps)]
            + raw_T_columns(S, g, exps))


def _columns_to_rows(cols, nrows):
    return [[(col[i] if i < len(col) else 0) for col in cols] for i in range(nrows)]


def _branch_direction(S, disc, pt, l):
    """(l mod p) * disc/(x - c): how disc moves to first order when the
    branch point c of length l moves; zero when p divides l."""
    lp = l % S.p
    if lp == 0:
        return []
    return raw_scale(S, raw_quo_root(S, disc, pt.code), lp)


def tangent_system(nc: NormalizedCover, variant: str = "xd",
                   max_ext: int = 4) -> TangentSystem:
    if variant not in ("xd", "xli"):
        raise InputError(f"unknown tangent variant {variant!r}")
    cov = nc.cover
    d = cov.d
    S = cov.spec
    g, h = list(cov.g.c), list(cov.h.c)
    points, lengths, degenerate = (), (), ()
    if variant == "xli":
        divisor = cov.differential_lengths(max_ext)
        K = divisor.spec if divisor.spec is not None else S
        g = raw_embed(S, K, g)
        h = raw_embed(S, K, h)
        S = K
        points = tuple(pt for pt, _ in divisor.items())
        lengths = tuple(l for _, l in divisor.items())
        degenerate = tuple(pt for pt, l in zip(points, lengths) if l % S.p == 0)
    disc = raw_T(S, g, h)
    cols = _tangent_columns_raw(S, g, h, range(d - 1)) + [
        raw_neg(S, _branch_direction(S, disc, pt, l)) for pt, l in zip(points, lengths)]
    nrows = 2 * d - 2
    matrix = FieldMatrix(S, _columns_to_rows(cols, nrows), ncols=len(cols))
    return TangentSystem(nc, variant, S, tuple(g), tuple(h), matrix, points, lengths,
                         degenerate)


def _first_order_residual(S, g, h, g1, h1):
    """t-coefficient of the deformed discriminant, computed from scratch."""
    return raw_add(S, raw_T(S, g, h1), raw_T(S, g1, h))


def tangent_dim(nc: NormalizedCover, variant: str = "xd", max_ext: int = 4):
    """(dimension, basis of DeformationVectors), verified by substitution."""
    ts = tangent_system(nc, variant, max_ext)
    S, g, h = ts.spec, ts.g, ts.h
    d = nc.cover.d
    disc = raw_T(S, g, h)
    directions = [_branch_direction(S, disc, pt, l) for pt, l in zip(ts.points, ts.lengths)]
    basis = []
    for v in raw_kernel(S, ts.matrix.data, ts.matrix.ncols):
        g1 = raw_trim(list(v[:d - 1]))
        h1 = raw_trim(list(v[d - 1:2 * d - 2]))
        eps = v[2 * d - 2:]
        residual = _first_order_residual(S, g, h, g1, h1)
        for direction, e in zip(directions, eps):
            residual = raw_sub(S, residual, raw_scale(S, direction, e))
        if residual:
            raise ArithmeticError("tangent basis vector fails the defining identity")
        basis.append(DeformationVector(
            Poly._raw(S, g1), Poly._raw(S, h1),
            tuple(FieldElement(S, e) for e in eps) if ts.variant == "xli" else None))
    return len(basis), basis


def _dual_linear_product(S, factors):
    """prod ((x - c) + eps*t)^l over k[t]/(t^2); returns (P0, P1)."""
    p0, p1 = [1], []
    for c, eps, l in factors:
        b0 = [S.neg(c), 1]
        b1 = [eps] if eps else []
        for _ in range(l):
            new0 = raw_mul(S, p0, b0)
            new1 = raw_add(S, raw_mul(S, p0, b1), raw_mul(S, p1, b0))
            p0, p1 = new0, new1
    return p0, p1


def brute_force_tangent(nc: NormalizedCover, variant: str = "xd",
                        max_ext: int = 4, limit: int = BRUTE_FORCE_LIMIT) -> int:
    """Oracle for tangent_dim: count the solutions (g1, h1, eps) without
    the tangent matrix and return log_q(count). The h1 terms T_g(h1) are
    tabled once, each g1 term T_{g1}(h) and xli target is computed once,
    and each counted solution is rechecked from the definition. `limit`
    bounds q^(number of unknowns), the size of the solution space."""
    ts = tangent_system(nc, variant, max_ext)
    S, g, h = ts.spec, ts.g, ts.h
    d = nc.cover.d
    q = S.order
    nvars = ts.matrix.ncols
    if q ** nvars > limit:
        raise BudgetExceeded(
            f"brute force needs {q ** nvars} trials, over the limit {limit}")
    polys = [raw_trim(list(tup)) for tup in product(range(q), repeat=d - 1)]
    h1_by_term = {}
    for h1 in polys:
        h1_by_term.setdefault(tuple(raw_T(S, g, h1)), []).append(h1)
    # xd has no branch points: one empty eps and the target 0
    targets = [_dual_linear_product(
        S, [(pt.code, e, l) for pt, e, l in zip(ts.points, eps, ts.lengths)])[1]
        for eps in product(range(q), repeat=len(ts.points))]
    count = 0
    for g1 in polys:
        g1_term = raw_T(S, g1, h)
        for target in targets:
            for h1 in h1_by_term.get(tuple(raw_sub(S, target, g1_term)), ()):
                if _first_order_residual(S, g, h, g1, h1) != target:
                    raise ArithmeticError(
                        "a counted tangent solution fails the defining identity")
                count += 1
    dim = 0
    while q ** dim < count:
        dim += 1
    if q ** dim != count:
        raise ArithmeticError(f"solution count {count} is not a power of q={q}")
    return dim


@dataclass(frozen=True)
class LiftResult:
    success: bool
    corrections: tuple
    obstructed_at: int | None
    residual: Poly | None

    def to_json(self):
        return {
            "success": self.success,
            "corrections": [{"g": str(gr), "h": str(hr)} for gr, hr in self.corrections],
            "obstructed_at": self.obstructed_at,
            "residual": str(self.residual) if self.residual is not None else None,
        }


def check_lift_order(order: int) -> None:
    if not 2 <= order <= 8:
        raise InputError("lift order must lie in 2..8")


def lift_deformation(nc: NormalizedCover, v: DeformationVector, order: int) -> LiftResult:
    """Extend a first-order xd solution to k[t]/(t^order), order <= 8.

    Solves one inhomogeneous system per order with the tangent matrix,
    taking the particular solution with free variables zero. Returns the
    corrections (g_r, h_r) for r = 1..order-1, or the first obstructed
    order with its residual.
    """
    check_lift_order(order)
    cov = nc.cover
    S = cov.spec
    d = cov.d
    if v.g1.spec != S or v.h1.spec != S:
        raise InputError("deformation vector over a different field than the cover")
    if v.g1.degree() > d - 2 or v.h1.degree() > d - 2:
        raise InputError("deformation polynomials must have degree at most d-2")
    ts = tangent_system(nc)
    g, h, rows = ts.g, ts.h, ts.matrix.data
    if _first_order_residual(S, g, h, list(v.g1.c), list(v.h1.c)):
        raise InputError("vector is not a first-order solution of the xd system")
    nrows = 2 * d - 2
    gs = [g, list(v.g1.c)]
    hs = [h, list(v.h1.c)]
    corrections = [(v.g1, v.h1)]
    for r in range(2, order):
        known = []
        for i in range(1, r):
            known = raw_add(S, known, raw_T(S, gs[r - i], hs[i]))
        rhs = [S.neg(c) for c in known] + [0] * (nrows - len(known))
        solution = _solve_particular(S, rows, rhs, 2 * d - 2)
        if solution is None:
            return LiftResult(False, tuple(corrections), r, Poly._raw(S, known))
        gr = raw_trim(solution[:d - 1])
        hr = raw_trim(solution[d - 1:])
        gs.append(gr)
        hs.append(hr)
        corrections.append((Poly._raw(S, gr), Poly._raw(S, hr)))
    return LiftResult(True, tuple(corrections), None, None)


def _solve_particular(S, rows, rhs, ncols):
    """Particular solution of rows * x = rhs with free variables zero, or
    None when inconsistent."""
    aug = [row + [b] for row, b in zip(rows, rhs)]
    rref, pivots = raw_rref(S, aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = rref[i][ncols]
    return x


def deformed_discriminant(nc: NormalizedCover, corrections, order: int):
    """Discriminant of (sum t^i g_i)/(sum t^i h_i) modulo t^order, as a
    list of polynomials indexed by the power of t. Independent check for
    lift results."""
    cov = nc.cover
    S = cov.spec
    gs = [list(cov.g.c)] + [list(gr.c) for gr, _ in corrections]
    hs = [list(cov.h.c)] + [list(hr.c) for _, hr in corrections]
    while len(gs) < order:
        gs.append([])
        hs.append([])
    out = []
    for r in range(order):
        acc = []
        for i in range(r + 1):
            acc = raw_add(S, acc, raw_T(S, gs[r - i], hs[i]))
        out.append(Poly._raw(S, acc))
    return out


def structure_decomposition(nc: NormalizedCover, v: DeformationVector):
    """Solve g1 = alpha h + beta g, h1 = gamma g - beta h with alpha,
    beta, gamma in k(x^p); returns three (numerator, denominator) pairs
    of polynomials in X over a common monic denominator, or None when no
    such decomposition exists."""
    cov = nc.cover
    S = cov.spec
    p = S.p
    if v.g1.spec != S or v.h1.spec != S:
        raise InputError("deformation vector over a different field than the cover")
    gd, hd, g1d, h1d = (_slices(S, P.c) for P in (cov.g, cov.h, v.g1, v.h1))
    rows = []
    for i in range(p):  # alpha*h_i + beta*g_i - g1_i = 0
        rows.append([hd[i], gd[i], [], [S.neg(c) for c in g1d[i]]])
    for i in range(p):  # -beta*h_i + gamma*g_i - h1_i = 0
        rows.append([[], [S.neg(c) for c in hd[i]], gd[i], [S.neg(c) for c in h1d[i]]])
    _, kernel = polymat_kernel(S, rows, 4)
    pick = None
    for vec in kernel:
        if vec[3]:
            pick = vec
            break
    if pick is None:
        return None
    inv = S.inv(pick[3][-1])
    den, alpha, beta, gamma = (Poly._raw(S, raw_scale(S, pick[i], inv)) for i in (3, 0, 1, 2))
    # exact verification back in k[x]
    zeros = [Poly.zero(S)] * (p - 1)
    den_x, alpha_x, beta_x, gamma_x = (reassemble([c] + zeros)
                                       for c in (den, alpha, beta, gamma))
    g, h = cov.g, cov.h
    if (den_x * v.g1 != alpha_x * h + beta_x * g
            or den_x * v.h1 != gamma_x * g - beta_x * h):
        raise ArithmeticError("structure decomposition failed verification")
    return tuple((n, den) for n in (alpha, beta, gamma))
