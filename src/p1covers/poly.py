"""Dense univariate polynomials over a FieldSpec, with root finding over
field extensions and the exact linear algebra used downstream.

Two layers. The `raw_*` functions operate on plain lists of element codes
(little-endian, trailing zeros trimmed, [] is the zero polynomial) and
index the field's add/mul/neg tables directly, one loop per
operation: `field` gives a field above its table limit stand-ins that
compute each entry, so the same loops serve every field. Two loops
choose by `FieldSpec.tabled`: above the limit, `raw_pow_mod` and
`_trace_mod` square and multiply residues mod h on `field`'s packed
ints, one int product per step, instead of k^2 computed entries. The
census enumeration lives on this layer, and so does its Taylor shift
`raw_translate`, on which the one precomposition algorithm,
`raw_mobius_substitute`, is built from affine steps. It is the
library's only polynomial code: `field` runs its modulus search,
untabled inversion and embeddings on it over F_p or the target field.
The `Poly` / `FieldMatrix` / `PolyMatrix` classes wrap the same
routines behind an immutable interface.

Factorization strategy is deliberately elementary: squarefree
decomposition with the characteristic-p p-th-power extraction step,
distinct-degree splitting by gcd with x^(q^r) - x, and deterministic
Cantor-Zassenhaus equal-degree splitting of each distinct-degree piece
(`raw_edf`, chained after `raw_ddf` by `raw_factor_sqf`). Root
extraction works one Frobenius orbit at a time: it takes one root of each
orbit and divides the whole orbit out. In a field with lookup tables that
root comes from a scan of the codes that resumes where the last one
stopped, above the table limit from the degree-1 case of the equal-degree
split, whose splitters skip the base field's image, the codes with
c^|base| = c: they take one value on a whole orbit. Its modular powers
and traces run on packed residues. `raw_sqf_roots` does it on codes,
from a squarefree list that the caller already has;
`roots_with_multiplicity` is its `Poly` wrapper. Matrix ranks over the
rational function field k(X) use fraction-free elimination so no general
rational-function type is ever needed.
"""

from __future__ import annotations

import itertools

from .errors import InputError
from .field import (MAX_EXT_DEGREE, FieldElement, FieldSpec, _PackedResidues, _sum_terms,
                    _write_sum, make_field)

# ---------------------------------------------------------------------------
# raw layer: coefficient lists of codes


def raw_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def raw_add(S, a, b):
    t, q = S._add_t, S.order
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = t[out[i] * q + c]
    return raw_trim(out)


def raw_sub(S, a, b):
    t, nt, q = S._add_t, S._neg_t, S.order
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = t[out[i] * q + nt[c]]
    return raw_trim(out)


def raw_neg(S, a):
    t = S._neg_t
    return [t[c] for c in a]


def raw_scale(S, a, s):
    if s == 0:
        return []
    if s == 1:
        return list(a)
    mt, base = S._mul_t, s * S.order
    return [mt[base + c] for c in a]


def raw_axpy(S, a, c, b):
    """a + c b entrywise, for code lists of equal length read as vectors:
    nothing is trimmed."""
    mt, at, q = S._mul_t, S._add_t, S.order
    row = c * q
    return [at[x * q + mt[row + y]] for x, y in zip(a, b)]


def raw_mul(S, a, b):
    if not a or not b:
        return []
    mt, at, q = S._mul_t, S._add_t, S.order
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            row = ai * q
            for j, bj in enumerate(b):
                if bj:
                    k = i + j
                    out[k] = at[out[k] * q + mt[row + bj]]
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
    mt, at, nt, q = S._mul_t, S._add_t, S._neg_t, S.order
    # one pass down the top index: r[k + db] is cleared by adding -f b
    # x^k, and the cells from db up are dropped at the end
    for k in range(len(quo) - 1, -1, -1):
        f = mt[r[k + db] * q + inv_lb]
        if f:
            quo[k] = f
            row = nt[f] * q
            for j in range(db):
                bj = b[j]
                if bj:
                    r[k + j] = at[r[k + j] * q + mt[row + bj]]
    del r[db:]
    return raw_trim(quo), raw_trim(r)


def raw_rem(S, a, b):
    return raw_divrem(S, a, b)[1]


def raw_quo_exact(S, a, b):
    q, r = raw_divrem(S, a, b)
    if r:
        raise ArithmeticError("inexact polynomial division where exactness was promised")
    return q


def raw_quo_root(S, a, r):
    """a / (x - r) by one synthetic-division pass: quotient coefficient
    i - 1 is a_i + r times coefficient i. ArithmeticError unless r is a
    root of a, as raw_quo_exact."""
    mt, at, q = S._mul_t, S._add_t, S.order
    row = r * q
    quo = [0] * (len(a) - 1)
    acc = 0
    for i in range(len(a) - 1, 0, -1):
        acc = at[a[i] * q + mt[row + acc]]
        quo[i - 1] = acc
    if at[a[0] * q + mt[row + acc]]:
        raise ArithmeticError("inexact polynomial division where exactness was promised")
    return quo


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


def raw_T_columns(S, f, exps):
    """T_f(x^e) = x^e f' - e x^(e-1) f for each e in exps: the images of
    the monomials under the linear map q -> T_f(q)."""
    fp = raw_deriv(S, f)
    p = S.p
    return [raw_sub(S, raw_shift(fp, e), raw_scale(S, raw_shift(f, e - 1), e % p) if e else [])
            for e in exps]


def raw_eval(S, a, x):
    mt, at, q = S._mul_t, S._add_t, S.order
    acc = 0
    for c in reversed(a):
        acc = at[mt[acc * q + x] * q + c]
    return acc


def raw_shift(a, k):
    if not a:
        return []
    return [0] * k + list(a)


def raw_pow_mod(S, base, e, mod):
    if not S.tabled and len(mod) > 1:
        R = _PackedResidues(S, raw_monic(S, mod))
        return R.unpack(R.pow(R.pack(raw_rem(S, base, mod)), e))
    base = raw_rem(S, list(base), mod)
    if not e:
        return raw_rem(S, [1], mod)
    result = base               # left to right: one square per bit below the top
    for bit in bin(e)[3:]:
        result = raw_rem(S, raw_mul(S, result, result), mod)
        if bit == "1":
            result = raw_rem(S, raw_mul(S, result, base), mod)
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


def raw_translate(S, a, b):
    """a(x + b) for raw a, by repeated synthetic division (a Taylor
    shift): a list of the same length, with the same leading coefficient."""
    a = list(a)
    if b:
        mt, at, q = S._mul_t, S._add_t, S.order
        row = b * q
        for i in range(len(a) - 1):
            for j in range(len(a) - 2, i - 1, -1):
                a[j] = at[a[j] * q + mt[row + a[j + 1]]]
    return a


def _raw_affine(S, a, s, t, k=1):
    """k a(s x + t) for raw a and codes s, k != 0: a Taylor shift by t,
    then coefficient i times k s^i."""
    a = raw_translate(S, a, t)
    mt, q = S._mul_t, S.order
    for i, c in enumerate(a):
        a[i] = mt[c * q + k]
        k = mt[k * q + s]
    return a


def raw_mobius_substitute(S, P, dtot, ma, mb, mc, md):
    """(mc x + md)^dtot P((ma x + mb)/(mc x + md)) over S, for deg P <= dtot
    and ma md != mb mc: with mc = 0 one affine step by (ma/md, mb/md)
    scaled by md^dtot; else, as the map is ma/mc + s/(mc x + md) with
    s = (mb mc - ma md)/mc, P(s x + ma/mc) reversed to degree dtot and
    taken at mc x + md."""
    if not mc:
        return _raw_affine(S, P, S.div(ma, md), S.div(mb, md), S.pow_code(md, dtot))
    s = S.div(S.sub(S.mul(mb, mc), S.mul(ma, md)), mc)
    Q = _raw_affine(S, P, s, S.div(ma, mc))
    return _raw_affine(S, raw_trim([0] * (dtot + 1 - len(Q)) + Q[::-1]), mc, md)


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


def _splitters(S, h, k, base=None):
    """Cantor-Zassenhaus splitters of h, a monic product of distinct
    irreducibles of degree k, in a fixed order. For odd p the splitter of
    a is a^((q^k-1)/2) - 1, with a = x + c for c = 0, 1, ... and then the
    monic polynomials of each higher degree; for p = 2 it is the trace
    a + a^2 + ... + a^(2^(mk-1)), with a = b x for b = u^j, j < m, and
    then the other b = 1, 2, ..., and then b x^t plus lower terms without
    a constant. Every proper split of h is reached by some a of degree
    below deg h. With base, a subfield of S, the c or b of degree 1 in
    base's image, the prime field's codes c < p and the others with
    c^|base| = c, are left out: _split_root passes the subfield over which
    h is one orbit, and their splitters cannot split it."""
    q = S.order

    def lows(t):                # all coefficient lists of length t, lazily
        for n in range(q ** t):
            yield [n // q ** i % q for i in range(t)]

    def kept(t, c):
        return t > 1 or base is None or (c >= S.p and S.pow_code(c, base.order) != c)

    for t in range(1, len(h) - 1):
        if S.p != 2:
            e = (q ** k - 1) // 2
            for low in lows(t):
                if kept(t, low[0]):
                    yield raw_sub(S, raw_pow_mod(S, [*low, 1], e, h), [1])
        else:
            # for t = 1 the codes 2^j = u^j come first: the trace is F_2-linear
            # in b, so one of them splits a product of distinct linear factors
            powers = [1 << j for j in range(S.m)] if t == 1 else []
            for b in itertools.chain(powers, (b for b in range(1, q) if b not in powers)):
                if kept(t, b):
                    for low in lows(t - 1):
                        yield _trace_mod(S, [0, *low, b], h, S.m * k)


def _split_once(S, h, k, base=None):
    """The first proper monic factor gcd(splitter, h) in _splitters' order."""
    for s in _splitters(S, h, k, base):
        g = raw_gcd(S, s, h)
        if 1 < len(g) < len(h):
            return g
    raise RuntimeError("equal-degree splitting failed on a polynomial assumed "
                       "to be a product of distinct irreducibles of one degree")


def raw_edf(S, f, k):
    """Equal-degree split: the monic irreducible factors, sorted, of f, a
    product of distinct irreducibles of degree k (a raw_ddf piece)."""
    todo = [raw_monic(S, f)]
    out = []
    while todo:
        h = todo.pop()
        if len(h) - 1 == k:
            out.append(h)
        else:
            g = _split_once(S, h, k)
            todo += [g, raw_quo_exact(S, h, g)]
    return sorted(out)


def raw_factor_sqf(S, f):
    """The monic irreducible factors of a squarefree f, sorted by degree and
    then by coefficients: raw_ddf, then raw_edf on each piece."""
    pieces, _ = raw_ddf(S, raw_monic(S, f))
    return [fac for piece, k in pieces for fac in raw_edf(S, piece, k)]


def _split_root(S, f, base=None):
    """One root of f, which must split into distinct linear factors over S:
    the degree-1 case of the equal-degree split, keeping the smaller half
    of each split. The caller canonicalizes via Galois conjugates, so
    which root comes out does not matter.

    base, a proper subfield of S, says that f is a product of Frobenius
    orbits over it. A splitter of x + c, or of b x when p = 2, with c or
    b in base takes one value on a whole orbit, so the image of base is
    skipped among the degree-1 candidates.
    """
    h = raw_monic(S, f)
    while len(h) > 2:
        g = _split_once(S, h, 1, base)
        h = g if len(g) - 1 <= (len(h) - 1) // 2 else raw_quo_exact(S, h, g)
    return S.neg(h[0])


def _trace_mod(S, a, h, terms):
    """a + a^2 + a^4 + ... + a^(2^(terms-1)) mod h, over S = F_{2^m}. Above
    the table limit the sum stays packed and is reduced once: with
    terms <= 2 m deg h no digit sum outgrows its slot."""
    if not S.tabled and len(h) > 1:
        R = _PackedResidues(S, raw_monic(S, h))
        x, acc = R.pack(raw_rem(S, a, h)), 0
        for _ in range(terms):
            acc += x
            x = R.mul(x, x)
        return R.unpack(acc)
    acc = []
    a = raw_rem(S, a, h)
    for _ in range(terms):
        acc = raw_add(S, acc, a)
        a = raw_rem(S, raw_mul(S, a, a), h)
    return acc


def _roots_of_split_product(S, sub: FieldSpec, g):
    """All roots in `sub`, sorted, of g, a product of distinct
    S-irreducibles that split there, one Frobenius orbit at a time: a
    root's orbit under c -> c^|S| is the roots of its irreducible factor,
    and is divided out one root at a time by raw_quo_root's synthetic
    division, which checks that the remainder is 0. In a field with
    tables a root comes from scanning the codes upward from where the
    last scan stopped, above it from _split_root. The scan tries no
    splitters, which waste work once h is a single orbit; the split skips
    the splitters from S, which cannot split an orbit, when sub is a
    proper extension of S."""
    roots = []
    h = raw_monic(sub, g)
    c = 0
    while len(h) > 1:
        if len(h) == 2:
            r0 = sub.neg(h[0])
        elif sub.tabled:
            while raw_eval(sub, h, c):
                c += 1
            r0 = c
        else:
            r0 = _split_root(sub, h, S if sub.m > S.m else None)
        x = r0
        while True:
            h = raw_quo_root(sub, h, x)
            roots.append(x)
            x = sub.pow_code(x, S.order)
            if x == r0:
                break
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
    T, roots, residual = raw_sqf_roots(S, raw_sqf_list(S, f), max_ext)
    return [(FieldElement(T, c), e) for c, e in roots], Poly(S, residual)


def raw_sqf_roots(S, sqf, max_ext):
    """roots_with_multiplicity of a polynomial over S from its squarefree
    list sqf = raw_sqf_list(S, a), on codes: (T, roots, residual) with T
    the points' field, roots the sorted (code in T, multiplicity) pairs
    and the residual a raw list."""
    if max_ext < 1:
        raise InputError("max_ext must be at least 1")
    split_pieces = []
    residual_parts = []
    for fac, e in sqf:
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
        codes = _roots_of_split_product(S, sub, gr)
        if len(codes) != len(g) - 1:
            raise ArithmeticError("root extraction lost roots of a split factor")
        twist = _embedding_twist(S, sub, target)
        for c in codes:
            for _ in range(twist):
                c = sub.frob_code(c)
            roots.append((target.embed_code(c, sub), e))
    residual = [1]
    for fac, e in residual_parts:
        for _ in range(e):
            residual = raw_mul(S, residual, fac)
    roots.sort()
    return target, roots, residual


# -- linear algebra over F_q -------------------------------------------------


def _echelon(S, rows, ncols, reduced=False):
    """Gaussian elimination on rows of ncols entries; returns (nonzero
    rows, pivot column list). reduced=True scales each pivot to 1 and
    clears its column above the pivot too: the reduced row echelon form."""
    rows = [list(r) for r in rows if any(r)]
    mt, at, nt, q = S._mul_t, S._add_t, S._neg_t, S.order
    pivots = []
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        inv = S.inv(prow[col])
        if reduced:
            prow = rows[r] = raw_scale(S, prow, inv)
            inv = 1
        for i in range(0 if reduced else r + 1, len(rows)):
            ri = rows[i]
            e = ri[col]
            if e and i != r:
                row = nt[mt[e * q + inv]] * q  # ri - e inv prow
                for j in range(col, ncols):
                    pj = prow[j]
                    if pj:
                        ri[j] = at[ri[j] * q + mt[row + pj]]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


def raw_rank(S, rows, ncols):
    return len(_echelon(S, rows, ncols)[1])


def raw_rref(S, rows, ncols):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    return _echelon(S, rows, ncols, reduced=True)


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


def _pm_echelon(S, rows, ncols):
    """Fraction-free reduced echelon form over k(X): (rows, pivots)."""
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
        for j in range(len(rows)):
            e = rows[j][col]
            if e and j != r:
                rows[j] = _pm_row_normalize(
                    S,
                    [raw_sub(S, raw_mul(S, piv, rows[j][k]), raw_mul(S, e, rows[r][k]))
                     for k in range(ncols)])
        pivots.append(col)
        r += 1
    return [row for row in rows if any(row)], pivots


def polymat_kernel(S, rows, ncols):
    """(rank, kernel basis) over k(X); vectors have polynomial entries
    with common content removed."""
    ech, pivots = _pm_echelon(S, rows, ncols)
    pivset = set(pivots)
    piv_entries = [row[c] for row, c in zip(ech, pivots)]
    prod_all = [1]
    for pe in piv_entries:
        prod_all = raw_mul(S, prod_all, pe)
    basis = []
    for fc in range(ncols):
        if fc in pivset:
            continue
        v = [[] for _ in range(ncols)]
        v[fc] = list(prod_all)
        for row, c, pe in zip(ech, pivots, piv_entries):   # prod_all / pe: the other pivots
            v[c] = raw_neg(S, raw_mul(S, row[fc], raw_quo_exact(S, prod_all, pe)))
        basis.append(_pm_row_normalize(S, v))
    return len(pivots), basis


# ---------------------------------------------------------------------------
# wrapped layer


class Poly:
    """Immutable dense polynomial over a FieldSpec; index = degree."""

    __slots__ = ("spec", "c")

    def __init__(self, spec: FieldSpec, coeffs=()):
        codes = [spec.element(v).code for v in coeffs]
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
        c = spec.element(coeff).code
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
            return self * self.spec.element(other)
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
            e >>= 1
            if e:
                base = base * base
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
        return _write_sum(self.c, self.spec.element_str, var)

    __str__ = to_str

    def __repr__(self):
        return f"Poly({self.to_str()!r} over {self.spec!r})"


def _parse_poly(text: str, spec: FieldSpec) -> Poly:
    # X is accepted so output printed in the X-for-x^p convention
    # re-parses too; no element holds either letter
    codes = []
    for sign, coeff, k in _sum_terms(text.strip().replace(" ", "").replace("X", "x"), "x"):
        c = 1 if coeff is None else spec.parse_element(coeff).code
        if sign < 0:
            c = spec.neg(c)
        if len(codes) <= k:
            codes.extend([0] * (k + 1 - len(codes)))
        codes[k] = spec.add(codes[k], c)
    return Poly._raw(spec, raw_trim(codes))


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
            r = [spec.element(v).code for v in row]
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
