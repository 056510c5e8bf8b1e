"""First-order and order-N deformation spaces of a chart-normalized cover.

For f = g/h in chart form, perturbing to (g + t g1)/(h + t h1) changes the
discriminant by t * (T_g(h1) - T_h(g1)) modulo t^2, with g1, h1 of degree
at most d-2. Fixing the whole discriminant divisor (variant "xd") imposes
T_g(h1) - T_h(g1) = 0; fixing only the length multiset while letting the
branch points move to first order ("xli") relaxes the right-hand side to
the span of the directions (l_i mod p) * disc(f)/(x - c_i), one slot
eps_i per branch point c_i. Both variants are plain linear systems over
the base field (xd) or the splitting field of the discriminant (xli).

Lifting to k[t]/(t^N) proceeds order by order: the t^r coefficient of the
deformed discriminant is the same linear map applied to (g_r, h_r) plus a
known polynomial assembled from lower-order corrections, so each order is
one inhomogeneous solve with the tangent matrix. An inconsistent order is
reported as an obstruction, which is a legitimate outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cover import NormalizedCover
from .errors import BudgetExceeded, InputError
from .field import FieldElement, FieldSpec
from .poly import (FieldMatrix, Poly, polymat_kernel, raw_T, raw_add, raw_deriv,
                   raw_embed, raw_kernel, raw_mul, raw_quo_exact, raw_rref,
                   raw_scale, raw_shift, raw_sub, raw_trim)

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

    Unknown layout: d-1 coefficients of g1, then d-1 coefficients of h1,
    then one eps per branch point (xli only). Rows are the coefficients
    of x^0 .. x^(2d-3) of the defining polynomial identity.
    """

    cover: NormalizedCover
    variant: str
    spec: FieldSpec
    matrix: FieldMatrix
    points: tuple
    lengths: tuple
    degenerate: tuple

    def unknowns(self) -> int:
        return self.matrix.ncols


def _tangent_columns_raw(S, g, h, exps):
    """Columns of the map (g1, h1) -> T_g(h1) - T_h(g1), with g1 and then
    h1 running over the monomials x^j, j in exps."""
    gp = raw_deriv(S, g)
    hp = raw_deriv(S, h)
    cols = []
    for j in exps:  # g1 = x^j contributes -T_h(x^j) = j x^(j-1) h - x^j h'
        a = raw_scale(S, raw_shift(h, j - 1), j % S.p) if j else []
        cols.append(raw_sub(S, a, raw_shift(hp, j)))
    for j in exps:  # h1 = x^j contributes T_g(x^j) = x^j g' - j x^(j-1) g
        b = raw_scale(S, raw_shift(g, j - 1), j % S.p) if j else []
        cols.append(raw_sub(S, raw_shift(gp, j), b))
    return cols


def _columns_to_rows(cols, nrows):
    return [[(col[i] if i < len(col) else 0) for col in cols] for i in range(nrows)]


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
        pts, lens = [], []
        for pt, mult in divisor.items():
            pts.append(pt)
            lens.append(mult)
        points, lengths = tuple(pts), tuple(lens)
        degenerate = tuple(pt for pt, l in zip(points, lengths) if l % S.p == 0)
    cols = _tangent_columns_raw(S, g, h, range(d - 1))
    if variant == "xli":
        disc = raw_T(S, g, h)
        for pt, l in zip(points, lengths):
            lp = l % S.p
            if lp == 0:
                cols.append([])  # degenerate direction, kept deliberately
                continue
            quot = raw_quo_exact(S, disc, [S.neg(pt.code), 1])
            cols.append(raw_scale(S, quot, S.neg(lp)))
    nrows = 2 * d - 2
    matrix = FieldMatrix(S, _columns_to_rows(cols, nrows), ncols=len(cols))
    return TangentSystem(nc, variant, S, matrix, points, lengths, degenerate)


def _first_order_residual(S, g, h, g1, h1):
    """t-coefficient of the deformed discriminant, computed from scratch."""
    return raw_sub(S,
                   raw_add(S, raw_mul(S, h, raw_deriv(S, g1)),
                           raw_mul(S, h1, raw_deriv(S, g))),
                   raw_add(S, raw_mul(S, g, raw_deriv(S, h1)),
                           raw_mul(S, g1, raw_deriv(S, h))))


def tangent_dim(nc: NormalizedCover, variant: str = "xd", max_ext: int = 4):
    """(dimension, basis of DeformationVectors), verified by substitution."""
    ts = tangent_system(nc, variant, max_ext)
    S = ts.spec
    d = nc.cover.d
    vecs = raw_kernel(S, ts.matrix.data, ts.matrix.ncols)
    g = raw_embed(nc.cover.spec, S, list(nc.cover.g.c))
    h = raw_embed(nc.cover.spec, S, list(nc.cover.h.c))
    disc = raw_T(S, g, h)
    basis = []
    for v in vecs:
        g1 = raw_trim(list(v[:d - 1]))
        h1 = raw_trim(list(v[d - 1:2 * d - 2]))
        eps = v[2 * d - 2:]
        residual = _first_order_residual(S, g, h, g1, h1)
        if ts.variant == "xli":
            target = []
            for pt, l, e in zip(ts.points, ts.lengths, eps):
                lp = l % S.p
                if lp and e:
                    quot = raw_quo_exact(S, disc, [S.neg(pt.code), 1])
                    target = raw_add(S, target, raw_scale(S, quot, S.mul(e, lp)))
            residual = raw_sub(S, residual, target)
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
    """Oracle for tangent_dim: exhaustively count solutions and return
    log_q(count). Independent of the tangent matrix: each candidate's
    deformed discriminant is recomputed from the definition."""
    ts = tangent_system(nc, variant, max_ext)
    S = ts.spec
    d = nc.cover.d
    q = S.order
    nvars = ts.matrix.ncols
    if q ** nvars > limit:
        raise BudgetExceeded(
            f"brute force needs {q ** nvars} trials, over the limit {limit}")
    g = raw_embed(nc.cover.spec, S, list(nc.cover.g.c))
    h = raw_embed(nc.cover.spec, S, list(nc.cover.h.c))
    npoly = d - 1
    count = 0
    for tup in product(range(q), repeat=nvars):
        g1 = raw_trim(list(tup[:npoly]))
        h1 = raw_trim(list(tup[npoly:2 * npoly]))
        residual = _first_order_residual(S, g, h, g1, h1)
        if variant == "xd":
            ok = not residual
        else:
            eps = tup[2 * npoly:]
            _, target = _dual_linear_product(
                S, [(pt.code, e, l) for pt, e, l in zip(ts.points, eps, ts.lengths)])
            ok = residual == target
        count += ok
    dim = 0
    c = count
    while c > 1:
        c, r = divmod(c, q)
        dim += 1
        if r:
            raise ArithmeticError(f"solution count {count} is not a power of q={q}")
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


def lift_deformation(nc: NormalizedCover, v: DeformationVector, order: int) -> LiftResult:
    """Extend a first-order xd solution to k[t]/(t^order), order <= 8.

    Solves one inhomogeneous system per order with the tangent matrix,
    taking the particular solution with free variables zero. Returns the
    corrections (g_r, h_r) for r = 1..order-1, or the first obstructed
    order with its residual.
    """
    if not 2 <= order <= 8:
        raise InputError("lift order must lie in 2..8")
    cov = nc.cover
    S = cov.spec
    d = cov.d
    if v.g1.spec != S or v.h1.spec != S:
        raise InputError("deformation vector over a different field than the cover")
    if v.g1.degree() > d - 2 or v.h1.degree() > d - 2:
        raise InputError("deformation polynomials must have degree at most d-2")
    g, h = list(cov.g.c), list(cov.h.c)
    if _first_order_residual(S, g, h, list(v.g1.c), list(v.h1.c)):
        raise InputError("vector is not a first-order solution of the xd system")
    cols = _tangent_columns_raw(S, g, h, range(d - 1))
    nrows = 2 * d - 2
    rows = _columns_to_rows(cols, nrows)
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
    from .cartier import decompose

    cov = nc.cover
    S = cov.spec
    p = S.p
    gd = [list(c.c) for c in decompose(cov.g)]
    hd = [list(c.c) for c in decompose(cov.h)]
    g1d = [list(c.c) for c in decompose(v.g1)]
    h1d = [list(c.c) for c in decompose(v.h1)]
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
    den = pick[3]
    inv = S.inv(den[-1])
    den = raw_scale(S, den, inv)
    nums = [raw_scale(S, pick[i], inv) for i in range(3)]
    # exact verification back in k[x]
    den_x = _expand_in_xp(S, den, p)
    alpha_x, beta_x, gamma_x = (_expand_in_xp(S, n, p) for n in nums)
    g, h = list(cov.g.c), list(cov.h.c)
    lhs1 = raw_mul(S, den_x, list(v.g1.c))
    rhs1 = raw_add(S, raw_mul(S, alpha_x, h), raw_mul(S, beta_x, g))
    lhs2 = raw_mul(S, den_x, list(v.h1.c))
    rhs2 = raw_sub(S, raw_mul(S, gamma_x, g), raw_mul(S, beta_x, h))
    if lhs1 != rhs1 or lhs2 != rhs2:
        raise ArithmeticError("structure decomposition failed verification")
    den_poly = Poly._raw(S, den)
    return tuple((Poly._raw(S, n), den_poly) for n in nums)


def _expand_in_xp(S, coeffs_in_X, p):
    out = []
    for j, c in enumerate(coeffs_in_X):
        if c:
            k = j * p
            out.extend([0] * (k + 1 - len(out)))
            out[k] = c
    return out
