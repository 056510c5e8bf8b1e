"""Dense univariate polynomials over a FieldSpec, with root finding over
field extensions and the exact linear algebra used downstream.

Two layers. The `raw_*` functions operate on plain lists of element codes
(little-endian, trailing zeros trimmed, [] is the zero polynomial) and
carry fast paths for table-backed fields; the census enumeration lives on
this layer. It is the library's only polynomial code: `field` runs its
modulus search, untabled inversion and embeddings on it over F_p or the
target field. The `Poly` / `FieldMatrix` / `PolyMatrix` classes wrap the
same routines behind an immutable interface.

Factorization strategy is deliberately elementary: squarefree
decomposition with the characteristic-p p-th-power extraction step,
distinct-degree splitting by gcd with x^(q^r) - x, and per-degree root
extraction (exhaustive scan in small fields, deterministic Cantor-
Zassenhaus equal-degree splitting plus Galois orbits above that). Matrix
ranks over the rational function field k(X) use fraction-free elimination
so no general rational-function type is ever needed.
"""

from __future__ import annotations

from .errors import InputError
from .field import MAX_EXT_DEGREE, FieldElement, FieldSpec, make_field

# ---------------------------------------------------------------------------
# raw layer: coefficient lists of codes


def raw_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def raw_add(S, a, b):
    t = S._add_t
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    if t is not None:
        q = S.order
        for i, c in enumerate(b):
            out[i] = t[out[i] * q + c]
    else:
        for i, c in enumerate(b):
            out[i] = S.add(out[i], c)
    return raw_trim(out)


def raw_sub(S, a, b):
    t = S._sub_t
    out = list(a) + [0] * (len(b) - len(a))
    if t is not None:
        q = S.order
        for i, c in enumerate(b):
            out[i] = t[out[i] * q + c]
    else:
        for i, c in enumerate(b):
            out[i] = S.sub(out[i], c)
    return raw_trim(out)


def raw_neg(S, a):
    t = S._neg_t
    if t is not None:
        return [t[c] for c in a]
    return [S.neg(c) for c in a]


def raw_scale(S, a, s):
    if s == 0:
        return []
    if s == 1:
        return list(a)
    mt = S._mul_t
    if mt is not None:
        base = s * S.order
        return [mt[base + c] for c in a]
    return [S.mul(s, c) for c in a]


def raw_mul(S, a, b):
    if not a or not b:
        return []
    mt = S._mul_t
    out = [0] * (len(a) + len(b) - 1)
    if mt is not None:
        at = S._add_t
        q = S.order
        for i, ai in enumerate(a):
            if ai:
                row = ai * q
                for j, bj in enumerate(b):
                    if bj:
                        k = i + j
                        out[k] = at[out[k] * q + mt[row + bj]]
    else:
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = S.add(out[i + j], S.mul(ai, bj))
    return raw_trim(out)


def raw_divrem(S, a, b):
    if not b:
        raise InputError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    if len(r) - 1 < db:
        return [], r
    inv_lb = 1 if b[-1] == 1 else S.inv(b[-1])
    quo = [0] * (len(r) - db)
    mt, st = S._mul_t, S._sub_t
    if mt is not None:
        q = S.order
        while r and len(r) - 1 >= db:
            k = len(r) - 1 - db
            f = mt[r[-1] * q + inv_lb]
            quo[k] = f
            if f:
                row = f * q
                for j in range(db):
                    bj = b[j]
                    if bj:
                        r[k + j] = st[r[k + j] * q + mt[row + bj]]
            r.pop()
            raw_trim(r)
    else:
        while r and len(r) - 1 >= db:
            k = len(r) - 1 - db
            f = S.mul(r[-1], inv_lb)
            quo[k] = f
            if f:
                for j in range(db):
                    bj = b[j]
                    if bj:
                        r[k + j] = S.sub(r[k + j], S.mul(f, bj))
            r.pop()
            raw_trim(r)
    return raw_trim(quo), r


def raw_rem(S, a, b):
    return raw_divrem(S, a, b)[1]


def raw_quo_exact(S, a, b):
    q, r = raw_divrem(S, a, b)
    if r:
        raise ArithmeticError("inexact polynomial division where exactness was promised")
    return q


def raw_monic(S, a):
    if not a:
        raise InputError("cannot make the zero polynomial monic")
    if a[-1] == 1:
        return list(a)
    return raw_scale(S, a, S.inv(a[-1]))


def raw_gcd(S, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, raw_rem(S, a, b)
    return raw_monic(S, a) if a else []


def raw_deriv(S, a):
    p = S.p
    out = []
    for i in range(1, len(a)):
        k = i % p
        out.append(S.mul(a[i], k) if k else 0)
    return raw_trim(out)


def raw_T(S, f, q):
    """The twisted derivative T_f(q) = q f' - f q'; T_g(h) is the
    discriminant of the cover g/h before it is made monic."""
    return raw_sub(S, raw_mul(S, q, raw_deriv(S, f)), raw_mul(S, f, raw_deriv(S, q)))


def raw_eval(S, a, x):
    acc = 0
    mt = S._mul_t
    if mt is not None:
        at = S._add_t
        q = S.order
        for c in reversed(a):
            acc = at[mt[acc * q + x] * q + c]
    else:
        for c in reversed(a):
            acc = S.add(S.mul(acc, x), c)
    return acc


def raw_shift(a, k):
    if not a:
        return []
    return [0] * k + list(a)


def raw_pow_mod(S, base, e, mod):
    result = raw_rem(S, [1], mod) if len(mod) == 1 else [1]
    base = raw_rem(S, list(base), mod)
    while e:
        if e & 1:
            result = raw_rem(S, raw_mul(S, result, base), mod)
        base = raw_rem(S, raw_mul(S, base, base), mod)
        e >>= 1
    return result


def raw_pth_root(S, a):
    p = S.p
    out = []
    for i in range(0, len(a), p):
        out.append(S.pth_root_code(a[i]))
    for i, c in enumerate(a):
        if i % p and c:
            raise ArithmeticError("p-th root of a polynomial outside k[x^p]")
    return raw_trim(out)


def raw_embed(S, T, a):
    if T is S:
        return list(a)
    return raw_trim([T.embed_code(c, S) for c in a])


def raw_mobius_substitute(S, P, dtot, ma, mb, mc, md):
    """(mc*x + md)^dtot * P((ma*x + mb)/(mc*x + md)), coefficients over S."""
    A = raw_trim([mb, ma])
    C = raw_trim([md, mc])
    apows = [[1]]
    cpows = [[1]]
    for _ in range(dtot):
        apows.append(raw_mul(S, apows[-1], A))
        cpows.append(raw_mul(S, cpows[-1], C))
    out = []
    for i in range(min(len(P), dtot + 1)):
        c = P[i]
        if c:
            out = raw_add(S, out, raw_scale(S, raw_mul(S, apows[i], cpows[dtot - i]), c))
    return out


# -- factorization ----------------------------------------------------------


def raw_sqf_list(S, f):
    """[(monic squarefree factor, multiplicity)], pairwise coprime factors.

    f = lc(f) * prod factor^multiplicity exactly.
    """
    if not f:
        raise InputError("zero polynomial has no squarefree decomposition")
    return _sqf_rec(S, raw_monic(S, f), 1)


def _sqf_rec(S, f, scale):
    out = []
    if len(f) <= 1:
        return out
    d = raw_deriv(S, f)
    if not d:
        return _sqf_rec(S, raw_pth_root(S, f), scale * S.p)
    g = raw_gcd(S, f, d)
    if len(g) == 1:
        return [(f, scale)]
    w = raw_quo_exact(S, f, g)
    i = 1
    while len(w) > 1:
        y = raw_gcd(S, w, g)
        z = raw_quo_exact(S, w, y)
        if len(z) > 1:
            out.append((z, i * scale))
        w = y
        g = raw_quo_exact(S, g, y)
        i += 1
    if len(g) > 1:
        out.extend(_sqf_rec(S, g, scale))
    return out


def raw_ddf(S, f, cap=None):
    """Distinct-degree split of a monic squarefree polynomial.

    Returns (pieces, leftover): pieces is a list of (product of all
    irreducible factors of exact degree r, r); degrees above `cap` stay
    merged in leftover (None when everything split). cap=None splits
    fully; that never needs a field extension.
    """
    rem = list(f)
    pieces = []
    q = S.order
    b = raw_rem(S, [0, 1], rem)
    r = 0
    while True:
        n = len(rem) - 1
        if n <= 0:
            return pieces, None
        if n < 2 * (r + 1):
            if cap is None or n <= cap:
                pieces.append((rem, n))
                return pieces, None
            return pieces, rem
        if cap is not None and r >= cap:
            return pieces, rem
        r += 1
        b = raw_pow_mod(S, b, q, rem)
        g = raw_gcd(S, raw_sub(S, b, [0, 1]), rem)
        if len(g) > 1:
            pieces.append((g, r))
            rem = raw_quo_exact(S, rem, g)
            if len(rem) > 1:
                b = raw_rem(S, b, rem)


def _split_root(S, f):
    """One root of f, which must split into distinct linear factors over S.

    Equal-degree splitting (Cantor-Zassenhaus) with candidates tried in
    the fixed element order: gcd(h, (x+c)^((q-1)/2) - 1) for c = 0, 1, ...
    when p is odd, and gcd(h, Tr(b*x)) for b = 1, 2, ... when p = 2. The
    caller canonicalizes via Galois conjugates, so which root comes out
    does not matter.
    """
    h = raw_monic(S, f)
    q = S.order
    while len(h) > 2:
        if S.p != 2:
            e = (q - 1) // 2
            splitters = (raw_sub(S, raw_pow_mod(S, [c, 1], e, h), [1]) for c in range(q))
        else:
            splitters = (_trace_mod(S, [0, b], h) for b in range(1, q))
        for s in splitters:
            g = raw_gcd(S, s, h)
            if 1 < len(g) < len(h):
                break
        else:
            raise RuntimeError("root splitting failed on a polynomial assumed split")
        h = g if len(g) - 1 <= (len(h) - 1) // 2 else raw_quo_exact(S, h, g)
    return S.neg(h[0])


def _trace_mod(S, a, h):
    """a + a^2 + a^4 + ... + a^(2^(m-1)) mod h, over S = F_{2^m}."""
    acc = []
    for _ in range(S.m):
        acc = raw_add(S, acc, a)
        a = raw_rem(S, raw_mul(S, a, a), h)
    return acc


_ROOT_SCAN_LIMIT = 128


def _roots_of_split_product(base_order, sub: FieldSpec, g):
    """All roots in `sub` of g, a product of base-irreducibles that split there."""
    if sub.order <= _ROOT_SCAN_LIMIT:
        return [c for c in range(sub.order) if raw_eval(sub, g, c) == 0]
    roots = []
    h = raw_monic(sub, g)
    while len(h) - 1 > 0:
        if len(h) - 1 == 1:
            r0 = sub.neg(h[0])
        else:
            r0 = _split_root(sub, h)
        orb = []
        x = r0
        while True:
            orb.append(x)
            x = sub.pow_code(x, base_order)
            if x == r0:
                break
        for c in orb:
            h = raw_quo_exact(sub, h, [sub.neg(c), 1])
        roots.extend(orb)
    return sorted(roots)


def _embedding_twist(S, sub, target):
    """Least k such that embedding sub into target after the k-th Frobenius
    power agrees on S with the direct S -> target embedding."""
    if S.m == 1:
        return 0
    want, v = target.embed_code(S.p, S), sub.embed_code(S.p, S)  # images of u
    for k in range(S.m):
        if target.embed_code(v, sub) == want:
            return k
        v = sub.frob_code(v)
    raise ArithmeticError("no Frobenius power makes the embeddings agree")


def roots_with_multiplicity(a: "Poly", max_ext: int = 4):
    """Roots of a over extensions of degree <= max_ext, with multiplicity.

    Returns (roots, residual): roots is a sorted list of
    (FieldElement, multiplicity) pairs with all points living in one
    common extension field, and residual is the monic unsplit part over
    the base field; a == lc(a) * prod (x - c_i)^(m_i) * residual after
    embedding. Factors whose exact degrees do not fit a single extension
    of degree <= max_ext are left in the residual.
    """
    S = a.spec
    f = list(a.c)
    if not f:
        raise InputError("zero polynomial has no root data")
    if max_ext < 1:
        raise InputError("max_ext must be at least 1")
    split_pieces = []
    residual_parts = []
    for fac, e in raw_sqf_list(S, f):
        pieces, leftover = raw_ddf(S, fac, cap=max_ext)
        for g, r in pieces:
            split_pieces.append((g, r, e))
        if leftover:
            residual_parts.append((leftover, e))
    best_s, best_mass = 1, -1
    for s in range(1, max_ext + 1):
        if S.m * s > MAX_EXT_DEGREE:
            break
        mass = sum((len(g) - 1) * e for g, r, e in split_pieces if s % r == 0)
        if mass > best_mass:
            best_s, best_mass = s, mass
    s = best_s
    target = make_field(S.p, S.m * s) if s > 1 else S
    roots = []
    for g, r, e in split_pieces:
        if s % r != 0:
            residual_parts.append((g, e))
            continue
        sub = make_field(S.p, S.m * r) if r > 1 else S
        gr = raw_embed(S, sub, g)
        codes = _roots_of_split_product(S.order, sub, gr)
        if len(codes) != len(g) - 1:
            raise ArithmeticError("root extraction lost roots of a split factor")
        twist = _embedding_twist(S, sub, target)
        for c in codes:
            for _ in range(twist):
                c = sub.frob_code(c)
            roots.append((FieldElement(target, target.embed_code(c, sub)), e))
    residual = [1]
    for fac, e in residual_parts:
        for _ in range(e):
            residual = raw_mul(S, residual, fac)
    roots.sort(key=lambda t: t[0].code)
    return roots, Poly(S, residual)


# -- linear algebra over F_q -------------------------------------------------


def raw_rank(S, rows, ncols):
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    mt, st = S._mul_t, S._sub_t
    q = S.order
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = S.inv(prow[col])
        if mt is not None:
            for i in range(rank + 1, len(rows)):
                ri = rows[i]
                e = ri[col]
                if e:
                    f = mt[e * q + inv]
                    row = f * q
                    for j in range(col, ncols):
                        pj = prow[j]
                        if pj:
                            ri[j] = st[ri[j] * q + mt[row + pj]]
        else:
            for i in range(rank + 1, len(rows)):
                ri = rows[i]
                e = ri[col]
                if e:
                    f = S.mul(e, inv)
                    for j in range(col, ncols):
                        pj = prow[j]
                        if pj:
                            ri[j] = S.sub(ri[j], S.mul(f, pj))
        rank += 1
        if rank == len(rows):
            break
    return rank


def raw_rref(S, rows, ncols):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in rows if any(r)]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = S.inv(rows[r][col])
        if inv != 1:
            rows[r] = [S.mul(inv, c) for c in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [S.sub(c, S.mul(f, pc)) for c, pc in zip(rows[i], prow)]
        pivots.append(col)
        r += 1
    return [row for row in rows if any(row)], pivots


def raw_kernel(S, rows, ncols):
    """Basis of the right null space, one vector per free column."""
    rref, pivots = raw_rref(S, rows, ncols)
    pivset = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivset:
            continue
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = S.neg(rref[i][fc])
        basis.append(v)
    return basis


# -- linear algebra over k(X) with polynomial entries -------------------------


def _pm_row_normalize(S, row):
    g = []
    for e in row:
        g = raw_gcd(S, g, e)
        if len(g) == 1:
            break
    if len(g) > 1:
        row = [raw_quo_exact(S, e, g) if e else [] for e in row]
    for e in row:
        if e:
            if e[-1] != 1:
                inv = S.inv(e[-1])
                row = [raw_scale(S, x, inv) for x in row]
            break
    return row


def _pm_echelon(S, rows, ncols, reduced=False):
    rows = [_pm_row_normalize(S, [list(e) for e in row]) for row in rows]
    rows = [r for r in rows if any(r)]
    pivots = []
    r = 0
    for col in range(ncols):
        best = None
        for i in range(r, len(rows)):
            e = rows[i][col]
            if e:
                key = (len(e), i)
                if best is None or key < best:
                    best = key
        if best is None:
            continue
        i = best[1]
        rows[r], rows[i] = rows[i], rows[r]
        piv = rows[r][col]
        targets = range(len(rows)) if reduced else range(r + 1, len(rows))
        for j in targets:
            if j == r:
                continue
            e = rows[j][col]
            if e:
                rows[j] = _pm_row_normalize(
                    S,
                    [raw_sub(S, raw_mul(S, piv, rows[j][k]), raw_mul(S, e, rows[r][k]))
                     for k in range(ncols)])
        pivots.append(col)
        r += 1
    return [row for row in rows if any(row)], pivots


def polymat_rank(S, rows, ncols):
    return len(_pm_echelon(S, rows, ncols)[1])


def polymat_kernel(S, rows, ncols):
    """(rank, kernel basis) over k(X); vectors have polynomial entries
    with common content removed."""
    ech, pivots = _pm_echelon(S, rows, ncols, reduced=True)
    rank = len(pivots)
    pivset = set(pivots)
    piv_entries = [ech[i][pivots[i]] for i in range(rank)]
    basis = []
    for fc in range(ncols):
        if fc in pivset:
            continue
        v = [[] for _ in range(ncols)]
        prod_all = [1]
        for pe in piv_entries:
            prod_all = raw_mul(S, prod_all, pe)
        v[fc] = prod_all
        for i in range(rank):
            others = [1]
            for j in range(rank):
                if j != i:
                    others = raw_mul(S, others, piv_entries[j])
            v[pivots[i]] = raw_neg(S, raw_mul(S, ech[i][fc], others))
        basis.append(_pm_row_normalize(S, v))
    return rank, basis


def polymat_canonical_rows(S, rows, ncols):
    """Canonical form of the row space over k(X): reduced echelon with
    content removed and first entries monic. Equal row spaces give equal
    tuples."""
    ech, _ = _pm_echelon(S, rows, ncols, reduced=True)
    return tuple(tuple(tuple(e) for e in row) for row in ech)


# ---------------------------------------------------------------------------
# wrapped layer


class Poly:
    """Immutable dense polynomial over a FieldSpec; index = degree."""

    __slots__ = ("spec", "c")

    def __init__(self, spec: FieldSpec, coeffs=()):
        codes = []
        for v in coeffs:
            if isinstance(v, FieldElement):
                if v.spec != spec:
                    raise InputError("coefficient from a different field")
                codes.append(v.code)
            elif isinstance(v, int):
                codes.append(v % spec.p if spec.m == 1 else v)
            else:
                raise InputError(f"bad coefficient {v!r}")
        for v in codes:
            if not 0 <= v < spec.order:
                raise InputError(f"coefficient code {v} out of range for {spec!r}")
        raw_trim(codes)
        self.spec = spec
        self.c = tuple(codes)

    # -- constructors -------------------------------------------------------

    @classmethod
    def _raw(cls, spec, codes):
        p = object.__new__(cls)
        p.spec = spec
        p.c = tuple(codes)
        return p

    @classmethod
    def zero(cls, spec):
        return cls._raw(spec, ())

    @classmethod
    def one(cls, spec):
        return cls._raw(spec, (1,))

    @classmethod
    def x(cls, spec):
        return cls._raw(spec, (0, 1))

    @classmethod
    def monomial(cls, spec, k, coeff=1):
        c = coeff.code if isinstance(coeff, FieldElement) else (
            coeff % spec.p if spec.m == 1 else coeff)
        if c == 0:
            return cls.zero(spec)
        return cls._raw(spec, (0,) * k + (c,))

    @classmethod
    def constant(cls, spec, coeff):
        return cls.monomial(spec, 0, coeff)

    @classmethod
    def parse(cls, text: str, spec: FieldSpec) -> "Poly":
        return _parse_poly(text, spec)

    # -- structure ----------------------------------------------------------

    def degree(self) -> int:
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def leading_coefficient(self) -> FieldElement:
        if not self.c:
            raise InputError("zero polynomial has no leading coefficient")
        return FieldElement(self.spec, self.c[-1])

    def __getitem__(self, k: int) -> FieldElement:
        code = self.c[k] if 0 <= k < len(self.c) else 0
        return FieldElement(self.spec, code)

    def coeffs(self):
        return [FieldElement(self.spec, v) for v in self.c]

    def _check(self, other):
        if not isinstance(other, Poly):
            raise InputError(f"expected a polynomial, got {other!r}")
        if other.spec != self.spec:
            raise InputError(f"field mismatch: {self.spec!r} vs {other.spec!r}")
        return other

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        return Poly._raw(self.spec, raw_add(self.spec, list(self.c), list(other.c)))

    def __sub__(self, other):
        other = self._check(other)
        return Poly._raw(self.spec, raw_sub(self.spec, list(self.c), list(other.c)))

    def __neg__(self):
        return Poly._raw(self.spec, raw_neg(self.spec, list(self.c)))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise InputError("scalar from a different field")
            return Poly._raw(self.spec, raw_scale(self.spec, list(self.c), other.code))
        if isinstance(other, int):
            return self * FieldElement(self.spec, other % self.spec.p)
        other = self._check(other)
        return Poly._raw(self.spec, raw_mul(self.spec, list(self.c), list(other.c)))

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = self._check(other)
        if other.is_zero():
            raise InputError("polynomial division by zero")
        q, r = raw_divrem(self.spec, list(self.c), list(other.c))
        return Poly._raw(self.spec, q), Poly._raw(self.spec, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        if e < 0:
            raise InputError("negative polynomial power")
        result = Poly.one(self.spec)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def derivative(self) -> "Poly":
        """Formal derivative; terms x^(kp) die in characteristic p."""
        return Poly._raw(self.spec, raw_deriv(self.spec, list(self.c)))

    def monic(self) -> "Poly":
        return Poly._raw(self.spec, raw_monic(self.spec, list(self.c)))

    def evaluate(self, point: FieldElement) -> FieldElement:
        if point.spec == self.spec:
            return FieldElement(self.spec, raw_eval(self.spec, list(self.c), point.code))
        T = point.spec
        emb = raw_embed(self.spec, T, list(self.c))
        return FieldElement(T, raw_eval(T, emb, point.code))

    def embed(self, target: FieldSpec) -> "Poly":
        return Poly._raw(target, raw_embed(self.spec, target, list(self.c)))

    def shift(self, k: int) -> "Poly":
        return Poly._raw(self.spec, raw_shift(list(self.c), k))

    # -- comparisons / io ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.spec == other.spec and self.c == other.c

    def __hash__(self):
        return hash((self.spec.p, self.spec.m, self.c))

    def __bool__(self):
        return bool(self.c)

    def to_str(self, var: str = "x") -> str:
        if not self.c:
            return "0"
        terms = []
        for k in range(len(self.c) - 1, -1, -1):
            code = self.c[k]
            if code == 0:
                continue
            cs = self.spec.element_str(code)
            if k == 0:
                terms.append(cs)
            else:
                xs = var if k == 1 else f"{var}^{k}"
                terms.append(xs if cs == "1" else f"{cs}*{xs}")
        return " + ".join(terms)

    __str__ = to_str

    def __repr__(self):
        return f"Poly({self.to_str()!r} over {self.spec!r})"


def _split_terms(s: str):
    """Split on top-level +/-, respecting [...] around coefficients."""
    tokens = []
    sign = 1
    depth = 0
    term = ""
    start = True
    for ch in s + "\0":
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise InputError(f"unbalanced brackets in {s!r}")
        if depth == 0 and ch in "+-\0" and not (start and ch in "+-"):
            tokens.append((sign, term))
            sign = -1 if ch == "-" else 1
            term = ""
        elif start and ch in "+-":
            sign = -1 if ch == "-" else 1
        else:
            term += ch
        start = False
    if depth != 0:
        raise InputError(f"unbalanced brackets in {s!r}")
    return tokens


def _parse_poly(text: str, spec: FieldSpec) -> Poly:
    s = text.strip().replace(" ", "")
    if not s:
        raise InputError("empty polynomial")
    if s == "0":
        return Poly.zero(spec)
    codes = []
    for sign, term in _split_terms(s):
        if not term:
            raise InputError(f"malformed polynomial {text!r}")
        # locate the variable outside brackets; X is accepted so output
        # printed in the X-for-x^p convention re-parses too
        depth = 0
        xpos = None
        for i, ch in enumerate(term):
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch in "xX" and depth == 0:
                xpos = i
                break
        if xpos is None:
            coeff = spec.parse_element(term).code
            k = 0
        else:
            head, tail = term[:xpos], term[xpos + 1:]
            if head == "":
                coeff = 1
            elif head.endswith("*"):
                coeff = spec.parse_element(head[:-1]).code
            else:
                raise InputError(f"malformed term {term!r} (use c*x^k)")
            if tail == "":
                k = 1
            elif tail.startswith("^"):
                try:
                    k = int(tail[1:])
                except ValueError:
                    raise InputError(f"bad exponent in term {term!r}") from None
                if k < 0:
                    raise InputError("negative exponents are not polynomials")
            else:
                raise InputError(f"malformed term {term!r}")
        if sign < 0:
            coeff = spec.neg(coeff)
        if len(codes) <= k:
            codes.extend([0] * (k + 1 - len(codes)))
        codes[k] = spec.add(codes[k], coeff)
    return Poly(spec, codes)


def poly_arith(a: Poly, b: Poly, op: str):
    """add | sub | mul | divrem | gcd on polynomials over one field."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "divrem":
        return divmod(a, b)
    if op == "gcd":
        return poly_gcd(a, b)
    raise InputError(f"unknown polynomial operation {op!r}")


def poly_gcd(a: Poly, b: Poly) -> Poly:
    a._check(b)
    return Poly._raw(a.spec, raw_gcd(a.spec, list(a.c), list(b.c)))


class FieldMatrix:
    """Rectangular matrix of field elements (stored as codes)."""

    __slots__ = ("spec", "data", "nrows", "ncols")

    def __init__(self, spec: FieldSpec, rows, ncols=None):
        data = []
        width = ncols
        for row in rows:
            r = [v.code if isinstance(v, FieldElement) else
                 (v % spec.p if spec.m == 1 else v) for v in row]
            if width is None:
                width = len(r)
            elif len(r) != width:
                raise InputError("ragged matrix rows")
            data.append(r)
        self.spec = spec
        self.data = data
        self.nrows = len(data)
        self.ncols = width if width is not None else 0

    def entry(self, i, j) -> FieldElement:
        return FieldElement(self.spec, self.data[i][j])

    def rank(self) -> int:
        return raw_rank(self.spec, self.data, self.ncols)

    def __repr__(self):
        return f"FieldMatrix({self.nrows}x{self.ncols} over {self.spec!r})"


def kernel_basis(M: FieldMatrix):
    """Basis of the right null space of M, exact over F_q."""
    vecs = raw_kernel(M.spec, M.data, M.ncols)
    return [[FieldElement(M.spec, c) for c in v] for v in vecs]


class PolyMatrix:
    """Rectangular matrix with polynomial entries in one variable X."""

    __slots__ = ("spec", "data", "nrows", "ncols")

    def __init__(self, spec: FieldSpec, rows, ncols=None):
        data = []
        width = ncols
        for row in rows:
            r = []
            for e in row:
                if isinstance(e, Poly):
                    if e.spec != spec:
                        raise InputError("matrix entry over a different field")
                    r.append(list(e.c))
                else:
                    r.append(raw_trim(list(e)))
            if width is None:
                width = len(r)
            elif len(r) != width:
                raise InputError("ragged matrix rows")
            data.append(r)
        self.spec = spec
        self.data = data
        self.nrows = len(data)
        self.ncols = width if width is not None else 0

    def entry(self, i, j) -> Poly:
        return Poly._raw(self.spec, self.data[i][j])

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols} over {self.spec!r}[X])"


def rank_over_kX(M: PolyMatrix):
    """Rank of M over the fraction field k(X), with a kernel basis whose
    vectors have polynomial entries cleared of common factors."""
    rank, vecs = polymat_kernel(M.spec, M.data, M.ncols)
    return rank, [[Poly._raw(M.spec, e) for e in v] for v in vecs]
