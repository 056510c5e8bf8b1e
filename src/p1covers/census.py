"""Exhaustive census of separable base-point-free 2-planes over F_q.

Equivalence classes of degree-d covers are exactly rank-2 reduced row
echelon matrices of shape 2 x (d+1) (columns by descending degree), so
counting classes is counting admissible echelon forms: the top-degree
pivot must sit in the x^d column (base-point-freeness at infinity), g and
h must be coprime (no finite base point) and h g' - g h' must not vanish
(separability).

A census is one pass over the echelon forms, all over F_q, one class per
orbit of the affine maps x -> ax + b where a translation section exists
(below) and per orbit of x -> ax elsewhere. Precomposing with x -> ax, a in
F_q^*, maps each pivot pattern's slice to itself and keeps coprimality,
separability, the length structure and the tangent dimension; it sends
the monic discriminant D to monic(D(ax)). An orbit of this scaling has s
classes, s a divisor of q - 1, with s = q - 1 for most classes (always
s = 1 over F_2). Precomposing with x -> x + b keeps deg g and deg h, so
after g is re-echelonized against h it stays in the slice too, with the
same tangent dimension and the discriminant D(x + b). Where a
translation moves one cell by a nonzero multiple of b alone, the scan
keeps that cell at 0, a section that each translation orbit meets once:
g's x^(d-1) cell when h has degree below d - 1 and p does not divide d,
else the first h cell that a translation moves, when it moves by a
multiple of b alone (_moving_cell). A scanned class then stands
for its t = q translates and their scaling images, t s classes; without
a section t = 1. The other classes of a scanned class's affine orbit get
their discriminant keys by substitution (translates by poly's Taylor
shift raw_translate) and share its tangent dimension.

The scan works one g row at a time, and everything that depends on g
alone is done once per scan task: a g row lies in every slice where
its cell c2 is zero, and the slices of one task share a memo of g-row
data (_g_row) that lives for that task. A census runs as n tasks, one
per process; task i scans every slice and takes the g rows at positions
i, i + n, i + 2n, ... of each. In one process n = 1, so each g row is
built once per census. The discriminant
T_g(h) = h g' - g h' and the residues h mod P, for the monic irreducible
factors P of g (a squarefree, distinct-degree and equal-degree split of
g), are affine in the free cells of h. So each h row costs vector adds:
a zero residue block means a shared factor, a zero discriminant an
inseparable plane. The tangent dimension is the nullity of the
(2d-1)-square xd system in the plane's own echelon chart. The columns
A = [T_g(x^e), e < d] span its h1 columns together with the
discriminant column, so its rank is rank A + rank N B(h), with N a
left-kernel basis of A, once per g row, and N B(h) affine in h. Per
class only a (2d-1 - rank A) x (d-1) rank is left.

Records group the classes by monic discriminant, with the branch data
of a single cover: cover._branch_shape reads lengths and wildness off
the squarefree structure, exact and extension-free, and
cover._branch_divisor finds the divisor points, the only part that may
need an extension field, from the same split, when cheap or requested.
Both are computed once per PGL_2(F_q) orbit of keys, on the first key F
met of it, and _length_structure keeps them in one memo for the whole
orbit: the first key of a key is the least key of its x -> ax orbit,
and it depends on that orbit alone, so the tasks' tables agree on it and
the merge only adds counts and dimensions. Precomposing with a Moebius
map moves the branch points along and keeps the length multiset and
wildness. By the Bruhat decomposition PGL_2 = B u BwB, with B the
affine maps and w: x -> 1/x, every x -> ax + b orbit inside F's PGL_2
orbit is the affine orbit of F or of a reversal monic(x^(2d-2) t(1/x))
of one of F's q translates t = F(x + b). A translate has F's length
structure, and its points are F's minus b. A reversal of t swaps the
lengths at 0 and infinity: its l_inf is the multiplicity z of the root
0 of t, its length at 0 is F's l_inf, and its points are 1/(c - b) for
F's points c, with b -> INF and INF -> 0. A key's link names the first
key f of its x -> ax orbit and the e with key = monic(f(γ^e x)), so the
memo gives f the moved data and e, and a key monic(f(γ^k x)) has the
points times γ^(e - k). Every such move of points is cover's code-level
Moebius action on a divisor, Divisor.moved. The class total is checked
against its closed form, from which Burnside gives the Frobenius orbit
count.
"""

from __future__ import annotations

import functools
import gc
import math
import os
from dataclasses import dataclass

from .cover import INF, Cover, Divisor, _branch_divisor, _branch_shape
from .errors import BudgetExceeded, InputError
from .field import FieldSpec, make_field
from .poly import (Poly, raw_T_columns, raw_axpy, raw_factor_sqf, raw_kernel, raw_monic,
                   raw_rank, raw_rem, raw_sqf_list, raw_translate, raw_trim)

DEFAULT_BUDGET = 2_000_000
POINTS_AUTO_LIMIT = 50_000


def raw_plane_count(q: int, d: int) -> int:
    """Number of 2-planes in a (d+1)-space over F_q (Gaussian binomial)."""
    return ((q ** (d + 1) - 1) * (q ** d - 1)) // ((q ** 2 - 1) * (q - 1))


def _class_total(p: int, m: int, d: int) -> int:
    """Number of admissible classes over F_{p^m}: PGL_2 acts freely on the
    q^(2d+1) - q^(2d-1) rational maps of degree d, and the planes inside
    k[x^p] (only when p divides d) are the inseparable ones."""
    q = p ** m
    return q ** (2 * d - 2) - (q ** (2 * d // p - 2) if d % p == 0 else 0)


def _scaling(S, d):
    """(exp, log) of the cyclic group F_q^*: exp[k] = γ^k for the least
    primitive element γ and 0 <= k < (2d-1)(q-1), enough for the scaled
    coefficients of a polynomial of degree below 2d, and log[c] = k < q-1
    on the nonzero codes. Degree 1 has no free cell, so no scaling acts
    and the lists stay empty."""
    if d < 2:
        return [], []
    exp = S._primitive_powers()
    log = [0] * S.order
    for k, c in enumerate(exp):
        log[c] = k
    return exp * (2 * d - 1), log


def _images(exp, log, a, s):
    """a(γ^k x) for k = 0, 1, ..., s - 1, for raw a of degree below 2d: a
    itself when s = 1, else tuples, coefficient i times γ^(k i) running
    through exp in steps of i."""
    if s == 1:
        return (a,)
    return zip(*[exp[log[c]:log[c] + i * s:i] if c and i else [c] * s
                 for i, c in enumerate(a)])


def _orbit_starts(log, weights, s=1):
    """The value tuples, in scan order, that the scan keeps for cells of
    these scaling weights, each with its stabilizer step after the last
    cell; s is the step before the first.

    x -> γ^k x multiplies a cell of weight w by γ^(k w); the images with
    k a multiple of s fix the earlier cells. A nonzero value is kept when
    its log lies below gcd(s w, q-1), which leaves one value per orbit of
    those images, and the step becomes lcm(s, (q-1)/gcd(w, q-1)). Zero
    cells are fixed by every image.
    """
    q = len(log)
    n = q - 1
    out = [((), s)]
    for w in weights:
        options = {}
        nxt = []
        for vals, t in out:
            opt = options.get(t)
            if opt is None:
                lim = math.gcd(t * w, n)
                kept = [c for c in range(1, q) if log[c] < lim]
                opt = options[t] = (kept, math.lcm(t, n // math.gcd(w, n)))
            kept, t2 = opt
            nxt.append((vals + (0,), t))
            nxt.extend((vals + (c,), t2) for c in kept)
        out = nxt
    return out


def _free_g(p, d, c2):
    """The free cells of the g row, pivots at (0, c2). Column 1 is free
    when c2 >= 2, and a translation x -> x + b adds d b to it: when p does
    not divide d, the section fixes it at 0."""
    return [j for j in range(1, d + 1) if j != c2 and not (j == 1 and d % p)]


def _g_starts(log, d, c2, p):
    """_orbit_starts of the free cells of the g row, pivots at (0, c2)."""
    return _orbit_starts(log, [-j for j in _free_g(p, d, c2)])


def _moving_cell(p, hvals):
    """The index in hvals of the h cell that a translation x -> x + b moves
    by a nonzero multiple of b alone, or None; hvals holds h_(e-1), ...,
    h_0 of a monic h of degree e. The coefficient of x^(e-j) in h(x + b)
    is h_(e-j) + sum over i = 1..j of C(e-j+i, i) h_(e-j+i) b^i. At the
    first j whose sum has a nonzero b-term, the cell moves by a multiple
    of b alone when only the term i = 1 is nonzero; the cells above do
    not move. The answer reads only which cells above j are nonzero."""
    e = len(hvals)
    h = (1,) + tuple(hvals)            # h[k] = h_(e-k)
    for j in range(1, e + 1):
        terms = [i for i in range(1, j + 1) if h[j - i] and math.comb(e - j + i, i) % p]
        if terms:
            return j - 1 if terms == [1] else None
    return None


def _admissible(S, d, c2, log, memo, part=0, parts=1):
    """Raw (g, h, disc, s, t), one admissible echelon matrix with pivots at
    columns (0, c2) per orbit of the affine maps x -> γ^k x + b where a
    translation section exists, else per orbit of x -> γ^k x; disc =
    h g' - g h', s is the size of the class's scaling orbit and t the
    number of its translates, q or 1. Only the g rows at positions part,
    part + parts, part + 2 parts, ... of _g_starts are scanned, so the
    parts of a split together scan the slice once. `log` comes from
    _scaling; `memo` holds the _g_row data of the g rows already seen, so
    slices that share a g row build it once.

    Column j holds the coefficient of x^(d-j). With the pivots put back
    to 1, the scaling multiplies g_j by γ^(-k j) and h_j by γ^(k (c2-j)),
    so it stays in the slice and keeps coprimality and separability. A
    translation keeps deg g and deg h, so it stays in the slice too once
    g is re-echelonized, g - λh; T_(g-λh)(h) = T_g(h), so it maps the
    monic discriminant D to D(x + b). Where a translation moves one cell
    by a nonzero multiple of b alone, the scan keeps that cell at 0, a
    section that meets each translation orbit once: g's column 1 when
    c2 >= 2 and p does not divide d (_free_g), else the h cell of
    _moving_cell, when there is one. There t = q; elsewhere t = 1. The
    sections depend on which cells are zero, so the scaling keeps them,
    and _orbit_starts stays a transversal of its orbits. The classes of
    a yielded class's orbit, t s of them, are its translates' scaling
    images, each exactly once. Free cells run in the fixed element
    order, the h row fastest.

    For a fixed g row, h -> (T_g(h), h mod P for each monic irreducible
    factor P of g) is affine in the free h cells, with the rows of _g_row
    as its base and cells, so each h row costs one scaled vector add per
    changed cell, the last cell most of the time. A zero residue block
    means a shared factor, a zero discriminant an inseparable plane.
    """
    p, q = S.p, S.order
    free_g = _free_g(p, d, c2)
    g_section = c2 > 1 and d % p != 0
    free_h = list(range(c2 + 1, d + 1))
    n = 2 * d - 1
    h_rows = {}         # stabilizer step -> [(h, h cells, s, t, first changed cell)]
    for gvals, sg in _g_starts(log, d, c2, p)[part::parts]:
        g = _row(d, 0, free_g, gvals)
        hs = h_rows.get(sg)
        if hs is None:
            hs = h_rows[sg] = []
            last = ()
            for hvals, s in _orbit_starts(log, [c2 - j for j in free_h], sg):
                cell = None if g_section else _moving_cell(p, hvals)
                if cell is not None and hvals[cell]:
                    continue                        # off the section
                changed = next((i for i, (u, v) in enumerate(zip(hvals, last)) if u != v),
                               len(last))
                t = q if g_section or cell is not None else 1
                hs.append((_row(d, c2, free_h, hvals), hvals, s, t, changed))
                last = hvals
        rows, blocks, _ = _g_row(S, g, d, memo)
        cells = [rows[d - j] for j in free_h]
        acc = [rows[d - c2]] * (len(cells) + 1)     # acc[i + 1]: base plus cells 0..i
        for h, hvals, s, t, changed in hs:
            for i in range(changed, len(cells)):
                c = hvals[i]
                acc[i + 1] = raw_axpy(S, acc[i], c, cells[i]) if c else acc[i]
            vec = acc[-1]
            if all(any(vec[lo:hi]) for lo, hi in blocks):
                disc = raw_trim(vec[:n])
                if disc:
                    yield g, h, disc, s, t


def _g_row(S, g, d, memo):
    """[rows, blocks, W] of the g row g: what the scan needs of g in every
    slice that g appears in (one per zero among its free cells), taken
    from memo or built into it once.

    rows[e], e < d, is T_g(x^e) as 2d-1 coefficients followed by x^e mod
    P for each monic irreducible factor P of g: the image of the h cell
    x^e under _admissible's affine map. blocks are the residue slices of
    a row. W starts as None and is filled by _chart_block."""
    key = tuple(g)
    out = memo.get(key)
    if out is None:
        n = 2 * d - 1
        factors = [P for fac, _ in raw_sqf_list(S, g) for P in raw_factor_sqf(S, fac)]
        blocks = []
        lo = n
        for P in factors:
            blocks.append((lo, lo + len(P) - 1))
            lo += len(P) - 1
        rows = []
        for e, col in enumerate(raw_T_columns(S, g, range(d))):
            row = _padded(col, n)
            xe = [0] * e + [1]
            for P in factors:
                row += _padded(raw_rem(S, xe, P), len(P) - 1)
            rows.append(row)
        out = memo[key] = [rows, blocks, None]
    return out


def _padded(a, n):
    return a + [0] * (n - len(a))


def _row(d, pivot, cells, vals):
    """Raw polynomial of an echelon row: 1 in the pivot column, vals in
    the free cells, column j the coefficient of x^(d-j)."""
    row = [0] * (d + 1)
    row[d - pivot] = 1
    for j, v in zip(cells, vals):
        row[d - j] = v
    return raw_trim(row)


def _check_budget(spec, d, budget):
    """The raw plane count of the census, which must lie within budget."""
    if budget < 1:
        raise InputError("a census budget must be at least 1")
    total = raw_plane_count(spec.order, d)
    if total > budget:
        raise BudgetExceeded(f"census of {total} planes exceeds the budget {budget}")
    return total


def enumerate_covers(spec: FieldSpec, d: int, budget: int = DEFAULT_BUDGET):
    """One validated Cover per equivalence class, in a deterministic order:
    each scanned class followed by the rest of its affine orbit, translate
    by translate (g re-echelonized against h), each translate followed by
    its scaling images."""
    _check_budget(spec, d, budget)
    exp, log = _scaling(spec, d)
    memo = {}
    for c2 in range(1, d + 1):
        for g, h, _, s, t in _admissible(spec, d, c2, log, memo):
            for b in range(t):
                hb = raw_translate(spec, h, b)
                gb = raw_translate(spec, g, b)
                gb = raw_axpy(spec, gb, spec.neg(gb[len(hb) - 1]), _padded(hb, len(gb)))
                for gk, hk in zip(_images(exp, log, gb, s), _images(exp, log, hb, s)):
                    yield Cover(Poly._raw(spec, raw_monic(spec, gk)),
                                Poly._raw(spec, raw_monic(spec, hk)))


def _monic_images(exp, log, a, s):
    """monic(a(γ^k x)) for k = 0, 1, ..., s - 1, as tuples, for a monic
    raw a of degree n below 2d: coefficient i times γ^(-k (n-i))."""
    n, N = len(a) - 1, len(log) - 1
    return [tuple(exp[(log[c] - k * (n - i)) % N] if c else 0 for i, c in enumerate(a))
            for k in range(s)]


def _chart_block(S, g, d, dh, memo):
    """The g-row part of the tangent rank for h rows of degree dh:
    (n, rank A, d - 1, W). A has the columns T_g(x^e), e < d, and spans the
    h1 columns together with the discriminant column; N is a basis of its
    left kernel. The g1 column x^j, j < d and j != dh, of the chart's
    system is B(h)_j = sum_i h_i (j - i) x^(i+j-1), so N B(h) =
    sum_i h_i W[i], with W[i] flattened row by row.

    N and the products (j - i) y[i+j-1], y in N, for all i, j < d depend
    on g alone: they are built once into the g row's _g_row entry in
    memo, and each slice takes the columns j != dh from them."""
    n = 2 * d - 1
    grow = _g_row(S, g, d, memo)
    if grow[2] is None:
        mt, q, p = S._mul_t, S.order, S.p
        N = raw_kernel(S, [row[:n] for row in grow[0]], n)
        grow[2] = [[[mt[y[i + j - 1] * q + (j - i) % p] if i + j else 0 for j in range(d)]
                    for y in N] for i in range(d)]
    full = grow[2]
    exps = [j for j in range(d) if j != dh]
    W = [[row[j] for row in full[i] for j in exps] for i in range(dh + 1)]
    return n, n - len(full[0]), len(exps), W


def _tangent_dim_raw(S, block, h):
    """xd tangent dimension of the class with h row h in the plane's own
    echelon chart: g1 and h1 run over the non-pivot monomials, one more
    unknown scales the discriminant, and the (2d-1)-square system has
    rank rank A + rank N B(h) (see _chart_block). So per class only the
    rank of N B(h), (n - rank A) x (d-1), is left."""
    n, rank_a, k, W = block
    m = W[-1]                   # h is monic
    for i in range(len(h) - 1):
        if h[i]:
            m = raw_axpy(S, m, h[i], W[i])
    return n - rank_a - raw_rank(S, [m[i:i + k] for i in range(0, len(m), k or 1)], k)


def _scan_chunk(args):
    """Worker: scan every slice, c2 = 1, ..., d in order, into one table
    {disc: [count, {dim: n}, link]}. args is (p, m, d, part, parts,
    with_tangent): within each slice the task scans the g rows at
    positions part, part + parts, ... of _g_starts, and its slices share
    one memo of g-row data, which lives for this call.

    Each scanned class gets one tangent rank, against its g row's
    _chart_block, built when the row changes; the other classes of its
    affine orbit get their keys by substituting x -> x + b, for each of
    its t translates, and then x -> γ^k x, k < s, into the discriminant,
    and share its dimension. The least key of a key's scaling orbit is
    its first key, with link None; every other key links to it as
    (first, j), j the least exponent with monic(first(γ^j x)) = key. So a
    link depends on its key alone, never on the scan order or the split
    into parts. A translate's s keys cover the orbit of its keys when
    s = q - 1 or b = 0 (a scaling that fixes the class fixes its key);
    otherwise the orbit comes from _monic_images.
    """
    p, m, d, part, parts, with_tangent = args
    S = make_field(p, m)
    exp, log = _scaling(S, d)
    full = S.order - 1
    table = {}
    memo = {}
    for c2 in range(1, d + 1):
        row = block = dim = None
        for g, h, disc, s, t in _admissible(S, d, c2, log, memo, part, parts):
            if with_tangent:
                if g is not row:
                    row, block = g, _chart_block(S, g, d, d - c2, memo)
                dim = _tangent_dim_raw(S, block, h)
            for b in range(t):
                imgs = _images(exp, log, raw_translate(S, disc, b) if b else disc, s)
                keys = [tuple(raw_monic(S, img)) for img in imgs]
                first = None            # the translate's link data, on its first new key
                for k, key in enumerate(keys):
                    rec = table.get(key)
                    if rec is None:
                        if first is None:
                            orbit = keys if s == full or not b else \
                                _monic_images(exp, log, keys[0], full)
                            first = min(orbit)
                            k0 = orbit.index(first)
                            period = len(orbit) // orbit.count(first)   # size of the orbit
                        j = (k - k0) % period
                        table[key] = [1, {dim: 1} if with_tangent else {},
                                      (first, j) if j else None]
                    else:
                        rec[0] += 1
                        if with_tangent:
                            dims = rec[1]
                            dims[dim] = dims.get(dim, 0) + 1
    return table


def _merge_tables(dst, src):
    """Add the records of src, which is used up, into dst and return dst,
    or src itself when dst is empty; a link depends on its key alone, so
    both tables hold the same one."""
    if not dst:
        return src
    for key, new in src.items():
        rec = dst.get(key)
        if rec is None:
            dst[key] = new
        else:
            rec[0] += new[0]
            dims = rec[1]
            for dim, n in new[1].items():
                dims[dim] = dims.get(dim, 0) + n
    return dst


@dataclass(slots=True)
class CensusRecord:
    """All covers over F_q sharing one monic discriminant."""

    disc: Poly
    lengths: Divisor | None       # materialized points, when available
    finite_lengths: tuple         # sorted root multiplicities of disc
    l_inf: int
    class_count: int
    tangent_dims: dict            # {xd tangent dimension: number of classes}
    wild: bool                    # some length >= p, infinity included
    split_ok: bool                # points materialized within max_ext
    factor_profile: tuple         # (squarefree factor degree, multiplicity)

    def length_multiset(self) -> tuple:
        out = list(self.finite_lengths)
        if self.l_inf > 0:
            out.append(self.l_inf)
        return tuple(sorted(out))

    def mass(self) -> int:
        return sum(self.finite_lengths) + self.l_inf

    def to_json(self):
        return {
            "disc": str(self.disc),
            "lengths": self.lengths.to_json() if self.lengths is not None else None,
            "finite_lengths": list(self.finite_lengths),
            "l_inf": self.l_inf,
            "class_count": self.class_count,
            "tangent_dims": {str(k): v for k, v in sorted(self.tangent_dims.items())},
            "wild": self.wild,
            "split_ok": self.split_ok,
            "factor_profile": [list(t) for t in self.factor_profile],
        }


@dataclass(frozen=True)
class CensusResult:
    spec: FieldSpec
    d: int
    records: tuple
    raw_planes: int
    total_classes: int
    galois_orbits: int | None

    def summary(self):
        return {
            "p": self.spec.p,
            "ext": self.spec.m,
            "q": self.spec.order,
            "d": self.d,
            "raw_planes": self.raw_planes,
            "total_classes": self.total_classes,
            "records": len(self.records),
            "wild_classes": sum(r.class_count for r in self.records if r.wild),
            "galois_orbits": self.galois_orbits,
        }

    def to_json(self):
        return {"summary": self.summary(),
                "records": [r.to_json() for r in self.records]}


def _length_structure(S, table, key, d, memo, points, max_ext):
    """(finite, l_inf, profile, wild, points, split_ok, e) of a first key,
    read from memo. On a miss the key's PGL_2(F_q) orbit is filled at
    once: cover._branch_shape of the key and, when points is set, its
    divisor points, stored under the key with e = 0 and moved to its
    translates by _fill_translates. Then, for each translate t = key(x + b),
    b in F_q, the reversal R = monic(x^(2d-2) t(1/x)): when the first key
    f of R, read off R's link in table, is not in memo yet, R's affine
    orbit is new, and R's data fill it the same way. R has the key's
    wildness and split_ok; it swaps the key's lengths at 0 and infinity
    (_swapped), and its points are the key's moved by x -> 1/(x - b)
    (Divisor.moved).

    Memo entries come in whole PGL_2 orbits, so a first key found in memo
    means its affine orbit is filled. Of the keys of the orbit only the
    record being built, whose first key is key, has left table (a key may
    be its own translate or reversal): an earlier one would have filled
    the orbit already."""
    out = memo.get(key)
    if out is None:
        finite, l_inf, profile, wild, sqf = _branch_shape(S, key, d)
        div, ok = _materialize_divisor(S, key, l_inf, max_ext, sqf) if points else (None, False)
        out = (finite, l_inf, profile, wild, div, ok, 0)
        for b, t in enumerate(_fill_translates(S, table, memo, key, key, out)):
            z = next(i for i, c in enumerate(t) if c)
            rev = tuple(raw_monic(S, [0] * l_inf + t[z:][::-1]))
            rec = table.get(rev)
            if rec is None:
                continue                    # the record being built
            f, e = rec[2] or (rev, 0)
            if f not in memo:
                fin, prof = _swapped(finite, profile, z, l_inf)
                moved = None if div is None else div.moved(S, 0, 1, 1, S.neg(b))
                _fill_translates(S, table, memo, rev, f, (fin, z, prof, wild, moved, ok, e))
    return out


def _fill_translates(S, table, memo, key, first, entry):
    """Store entry, the data of key, under key's first key first, and move
    it to the first key f of each translate key(x + b), b in F_q^*, that
    is not in memo: the points by -b and the e with key(x + b) =
    monic(f(γ^e x)), read off the translate's link in table; without
    points f shares entry. Returns the translates, b = 0 first."""
    memo[first] = entry
    div = entry[4]
    out = [list(key)]
    for b in range(1, S.order):
        t = raw_translate(S, key, b)
        out.append(t)
        rec = table.get(tuple(t))
        if rec is None:
            continue                        # the record being built
        f, e = rec[2] or (tuple(t), 0)
        if f not in memo:
            memo[f] = entry if div is None else (
                *entry[:4], div.moved(S, 1, S.neg(b), 0, 1), entry[5], e)
    return out


def _swapped(finite, profile, z, l_inf):
    """(finite lengths, factor profile) with one root of length z taken
    out and one of length l_inf put in, 0 standing for none. Each
    multiplicity has one squarefree factor, so the profile changes by one
    in the degree of that multiplicity's factor."""
    if z == l_inf:
        return finite, profile
    fin = list(finite)
    degree = {mult: k for k, mult in profile}
    if z:
        fin.remove(z)
        degree[z] -= 1
    if l_inf:
        fin.append(l_inf)
        degree[l_inf] = degree.get(l_inf, 0) + 1
    return tuple(sorted(fin)), tuple(sorted((k, mult) for mult, k in degree.items() if k))


def _gc_paused(fn):
    """Run fn with the cyclic garbage collector paused. A census allocates
    hundreds of thousands of containers that form no cycles, and the
    collector's repeated full passes over them took a fifth of an F_9
    d = 4 census."""
    @functools.wraps(fn)
    def call(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return call


@_gc_paused
def census_by_disc(spec: FieldSpec, d: int, max_ext: int = 4,
                   budget: int = DEFAULT_BUDGET, processes: int = 1,
                   with_tangent: bool = True, points: bool | None = None,
                   orbit_count: bool = False) -> CensusResult:
    """Group every equivalence class over F_q by its monic discriminant.

    points=None materializes divisor points only when the run is small
    (raw plane count <= POINTS_AUTO_LIMIT); pass True/False to force.
    The scan runs in min(processes, CPU count) processes, and its output
    does not depend on that number.
    """
    if d < 1:
        raise InputError("census degree must be at least 1")
    if processes < 1:
        raise InputError("a census needs at least one process")
    if max_ext < 1:
        raise InputError("max_ext must be at least 1")
    total = _check_budget(spec, d, budget)
    if points is None:
        points = total <= POINTS_AUTO_LIMIT
    # the same parts in every slice; one part in one process keeps the
    # scan order of a whole census
    parts = min(processes, os.cpu_count() or 1)
    tasks = [(spec.p, spec.m, d, i, parts, with_tangent) for i in range(parts)]
    table = {}
    if parts > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=parts) as pool:
            for part in pool.map(_scan_chunk, tasks):
                table = _merge_tables(table, part)
    else:
        table = _merge_tables(table, _scan_chunk(tasks[0]))
    # a key monic(f(γ^k x)) has the branch data of its first key f, read
    # from _length_structure, which fills them once per PGL_2 orbit of
    # keys (reversals swap the lengths at 0 and infinity), with the
    # stored points times γ^(e - k), one product per point
    exp = _scaling(spec, d)[0]
    memo = {}
    records = []
    keys = sorted(table)
    keys.sort(key=len)          # stable: by degree, then by coefficients
    for key in keys:
        count, dims, link = table.pop(key)
        first, k = (key, 0) if link is None else link
        finite, l_inf, profile, wild, lengths, split_ok, e = _length_structure(
            spec, table, first, d, memo, points, max_ext)
        if lengths is not None and e != k:
            lengths = lengths.moved(spec, exp[e - k], 0, 0, 1)
        records.append(CensusRecord(
            disc=Poly._raw(spec, key), lengths=lengths,
            finite_lengths=finite, l_inf=l_inf, class_count=count,
            tangent_dims=dims, wild=wild, split_ok=split_ok,
            factor_profile=profile))
    classes = sum(r.class_count for r in records)
    expected = _class_total(spec.p, spec.m, d)
    if classes != expected:
        raise ArithmeticError(f"census found {classes} classes, the closed form {expected}")
    orbits = _count_galois_orbits(spec, d) if orbit_count else None
    return CensusResult(spec=spec, d=d, records=tuple(records),
                        raw_planes=total, total_classes=classes,
                        galois_orbits=orbits)


def _materialize_divisor(S, disc_key, l_inf, max_ext, sqf=None):
    """(cover._branch_divisor's Divisor, True), or (None, False) past
    max_ext; sqf is the key's raw_sqf_list when the caller has it."""
    div, _ = _branch_divisor(S, raw_sqf_list(S, list(disc_key)) if sqf is None else sqf,
                             l_inf, max_ext)
    return div, div is not None


def _count_galois_orbits(spec, d):
    """Orbits of the coefficient-wise p-power map on admissible planes, by
    Burnside: the planes fixed by its k-th power are exactly those defined
    over F_{p^gcd(k, m)}, and admissibility does not depend on the field."""
    m = spec.m
    return sum(_class_total(spec.p, math.gcd(k, m), d) for k in range(m)) // m


def tame_violations(records, dim_key=int):
    """The records whose lengths all sit below p but whose classes have a
    nonzero tangent dimension, as {"disc", "dims": {dim_key(dim): classes}}."""
    violations = []
    for rec in records:
        if rec.wild:
            continue
        bad = {dim_key(dim): n for dim, n in rec.tangent_dims.items() if dim != 0}
        if bad:
            violations.append({"disc": str(rec.disc), "dims": bad})
    return violations


def verify_theorem_char23(spec: FieldSpec, d: int, budget: int = DEFAULT_BUDGET,
                          processes: int = 1) -> dict:
    """Tangent-dimension scan in characteristic 2 or 3: every class whose
    lengths all sit below p must have xd tangent dimension zero, and in
    characteristic 2 no differential length 1 may occur at all.
    Violations are report content, never exceptions."""
    p = spec.p
    if p not in (2, 3):
        raise InputError("this verification targets characteristic 2 and 3")
    result = census_by_disc(spec, d, budget=budget, processes=processes,
                            with_tangent=True, points=False)
    violations = tame_violations(result.records)
    checked = 0
    wild_classes = 0
    wild_dims = {}
    length_one_seen = False
    for rec in result.records:
        multiset = rec.length_multiset()
        if 1 in multiset:
            length_one_seen = True
        if rec.wild:
            wild_classes += rec.class_count
            for dim, n in rec.tangent_dims.items():
                wild_dims[dim] = wild_dims.get(dim, 0) + n
            continue
        checked += rec.class_count
    report = {
        "p": p, "q": spec.order, "d": d,
        "total_classes": result.total_classes,
        "tame_classes_checked": checked,
        "violations": violations,
        "wild_classes": wild_classes,
        "wild_tangent_dims": {str(k): v for k, v in sorted(wild_dims.items())},
    }
    if p == 2:
        report["length_one_absent"] = not length_one_seen
    return report
