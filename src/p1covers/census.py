"""Exhaustive census of separable base-point-free 2-planes over F_q.

Equivalence classes of degree-d covers are exactly rank-2 reduced row
echelon matrices of shape 2 x (d+1) (columns by descending degree), so
counting classes is counting admissible echelon forms: the top-degree
pivot must sit in the x^d column (base-point-freeness at infinity), g and
h must be coprime (no finite base point) and h g' - g h' must not vanish
(separability).

A census is one pass over the echelon forms, all over F_q. Precomposing
with x -> ax, a in F_q^*, maps each pivot pattern's slice to itself and
keeps coprimality, separability, the length structure and the tangent
dimension; it sends the monic discriminant D to monic(D(ax)). So the
scan takes one class per orbit of this scaling. An orbit has s classes,
s a divisor of q - 1, with s = q - 1 for most classes (always s = 1 over
F_2). Each scanned class gets one coprimality test, one discriminant and
one tangent rank; the other classes of its orbit get their discriminant
keys by substitution and share its rank.

Records group the classes by monic discriminant. Length multisets come
from the squarefree structure, exact and extension-free; divisor points,
the only part that may need an extension field, are materialized when
cheap or requested. Both are computed once per orbit of keys, on the
first key the scan reached: a key reached from it by x -> ax has the
same length structure, and its points are the first key's points times
a^-1. Tangent dimensions are taken in each plane's own echelon chart.
The class total is checked against its closed form, from which Burnside
gives the Frobenius orbit count. Enumeration can be partitioned across
processes along the g-row prefixes the scan reaches; the merge is a
deterministic reduce keyed on the discriminant.
"""

from __future__ import annotations

import functools
import gc
import math
from dataclasses import dataclass

from .cover import Cover, Divisor, INF
from .errors import BudgetExceeded, InputError
from .field import FieldElement, FieldSpec, make_field
from .poly import (Poly, raw_deriv, raw_gcd, raw_monic, raw_mul, raw_rank,
                   raw_sqf_list, raw_sub, raw_trim, roots_with_multiplicity)
from .deform import _columns_to_rows, _tangent_columns_raw

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
    primitive element γ, and log[c] = k on the nonzero codes. Degree 1 has
    no free cell, so no scaling acts and the lists stay empty."""
    if d < 2:
        return [], []
    exp = S._primitive_powers()
    log = [0] * S.order
    for k, c in enumerate(exp):
        log[c] = k
    return exp, log


def _substitute(exp, log, a, k):
    """a(γ^k x) for raw a: coefficient i times γ^(k i)."""
    n = len(exp)
    return [exp[(log[c] + k * i) % n] if c else 0 for i, c in enumerate(a)]


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


def _g_starts(log, d, c2):
    """_orbit_starts of the free cells of the g row, pivots at (0, c2)."""
    return _orbit_starts(log, [-j for j in range(1, d + 1) if j != c2])


def _admissible(S, d, c2, log, prefix=()):
    """Raw (g, h, disc, s), one admissible echelon matrix with pivots at
    columns (0, c2) per orbit of the scaling x -> γ^k x; disc = h g' - g h'
    and s is the orbit size. `prefix` pins the first free cells of the g
    row; `log` comes from _scaling.

    Column j holds the coefficient of x^(d-j). With the pivots put back
    to 1, the scaling multiplies g_j by γ^(-k j) and h_j by γ^(k (c2-j)),
    so it stays in the slice and keeps coprimality and separability. The
    orbit's classes are the images k < s, each exactly once. Free cells
    run in the fixed element order, the h row fastest.
    """
    free_g = [j for j in range(1, d + 1) if j != c2]
    free_h = list(range(c2 + 1, d + 1))
    if len(prefix) > len(free_g):
        raise InputError("prefix longer than the free cells of the g row")
    head = tuple(prefix)
    h_rows = {}                 # stabilizer step -> [(h, h', orbit size)]
    for gvals, sg in _g_starts(log, d, c2):
        if gvals[:len(head)] != head:
            continue
        g = _row(d, 0, free_g, gvals)
        gp = raw_deriv(S, g)
        hs = h_rows.get(sg)
        if hs is None:
            hs = h_rows[sg] = []
            for hvals, s in _orbit_starts(log, [c2 - j for j in free_h], sg):
                h = _row(d, c2, free_h, hvals)
                hs.append((h, raw_deriv(S, h), s))
        for h, hp, s in hs:
            if len(raw_gcd(S, g, h)) > 1:
                continue
            disc = raw_sub(S, raw_mul(S, h, gp), raw_mul(S, g, hp))
            if disc:
                yield g, h, disc, s


def _row(d, pivot, cells, vals):
    """Raw polynomial of an echelon row: 1 in the pivot column, vals in
    the free cells, column j the coefficient of x^(d-j)."""
    row = [0] * (d + 1)
    row[d - pivot] = 1
    for j, v in zip(cells, vals):
        row[d - j] = v
    return raw_trim(row)


def enumerate_covers(spec: FieldSpec, d: int, budget: int = DEFAULT_BUDGET):
    """One validated Cover per equivalence class, in a deterministic order:
    each scanned class followed by the rest of its scaling orbit."""
    total = raw_plane_count(spec.order, d)
    if total > budget:
        raise BudgetExceeded(
            f"census of {total} planes exceeds the budget {budget}")
    exp, log = _scaling(spec, d)
    for c2 in range(1, d + 1):
        for g, h, _, s in _admissible(spec, d, c2, log):
            yield Cover(Poly._raw(spec, g), Poly._raw(spec, h))
            for k in range(1, s):
                yield Cover(Poly._raw(spec, raw_monic(spec, _substitute(exp, log, g, k))),
                            Poly._raw(spec, raw_monic(spec, _substitute(exp, log, h, k))))


def _tangent_dim_raw(S, g, h, d, disc_raw):
    """xd tangent dimension in the plane's own echelon chart: g1 and h1 run
    over the non-pivot monomials, one more unknown scales the discriminant,
    and the dimension is the nullity of the (2d-1)-square system over S."""
    dh = len(h) - 1
    cols = _tangent_columns_raw(S, g, h, [e for e in range(d) if e != dh])
    cols.append(disc_raw)
    n = 2 * d - 1
    return n - raw_rank(S, _columns_to_rows(cols, n), n)


def _scan_chunk(args):
    """Worker: scan one enumeration slice into {disc: [count, {dim: n}, link]}.

    Each scanned class gets one tangent rank; the other classes of its
    orbit get their keys by substituting x -> γ^k x into the discriminant
    and share its dimension. link is None on the first key an orbit
    reached, and (first key, k) on a key reached from it by γ^k, so that
    link always names a key whose own link is None.
    """
    p, m, d, c2, prefix, with_tangent = args
    S = make_field(p, m)
    exp, log = _scaling(S, d)
    n = S.order - 1
    table = {}
    for g, h, disc, s in _admissible(S, d, c2, log, prefix):
        key = tuple(raw_monic(S, disc))
        rec = table.get(key)
        if rec is None:
            rec = table[key] = [0, {}, None]
        first, base = (key, 0) if rec[2] is None else rec[2]
        dim = _tangent_dim_raw(S, g, h, d, disc) if with_tangent else None
        for k in range(s):
            if k:
                img = tuple(raw_monic(S, _substitute(exp, log, key, k)))
                rec = table.get(img)
                if rec is None:
                    rec = table[img] = [0, {}, (first, (base + k) % n)]
            rec[0] += 1
            if with_tangent:
                dims = rec[1]
                dims[dim] = dims.get(dim, 0) + 1
    return table


def _merge_tables(dst, src):
    for key, (count, dims, link) in src.items():
        rec = dst.get(key)
        if rec is None:
            dst[key] = [count, dims, link]
        else:
            rec[0] += count
            for dim, n in dims.items():
                rec[1][dim] = rec[1].get(dim, 0) + n
            if link is None:        # links name first keys: keep them first
                rec[2] = None
    return dst


@dataclass(frozen=True, slots=True)
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


def _length_structure(S, disc_key, d, memo):
    """(finite_lengths, l_inf, factor_profile) from the squarefree
    structure; exact, no extension needed. A squarefree factor of degree
    k with multiplicity e contributes k geometric roots of length e, so
    the multiset never needs the roots themselves. `memo` keeps the
    results by key across calls."""
    if disc_key in memo:
        return memo[disc_key]
    finite = []
    profile = []
    for fac, mult in raw_sqf_list(S, list(disc_key)):
        k = len(fac) - 1
        profile.append((k, mult))
        finite.extend([mult] * k)
    l_inf = (2 * d - 2) - (len(disc_key) - 1)
    out = memo[disc_key] = tuple(sorted(finite)), l_inf, tuple(sorted(profile))
    return out


def _prefix_tasks(spec, d, c2, k, with_tangent):
    """Scan tasks for the slice with pivots (0, c2), one per length-k
    prefix of the g row that the scan reaches, in scan order."""
    _, log = _scaling(spec, d)
    prefixes = dict.fromkeys(vals[:k] for vals, _ in _g_starts(log, d, c2))
    return [(spec.p, spec.m, d, c2, prefix, with_tangent) for prefix in prefixes]


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
    """
    if d < 1:
        raise InputError("census degree must be at least 1")
    if processes < 1:
        raise InputError("a census needs at least one process")
    q = spec.order
    total = raw_plane_count(q, d)
    if total > budget:
        raise BudgetExceeded(f"census of {total} planes exceeds the budget {budget}")
    if points is None:
        points = total <= POINTS_AUTO_LIMIT
    tasks = []
    for c2 in range(1, d + 1):
        n_free_g = d - 1
        n_covers = q ** (n_free_g + (d - c2))
        if processes > 1 and n_covers > 200_000:
            k = 2 if q ** (n_free_g - 2) * q ** (d - c2) <= 200_000 else 3
            tasks.extend(_prefix_tasks(spec, d, c2, min(k, n_free_g), with_tangent))
        else:
            tasks.append((spec.p, spec.m, d, c2, (), with_tangent))
    table = {}
    if processes > 1 and len(tasks) > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=processes) as pool:
            for part in pool.map(_scan_chunk, tasks, chunksize=1):
                _merge_tables(table, part)
    else:
        for t in tasks:
            _merge_tables(table, _scan_chunk(t))
    # a key and its orbit's first key share the length structure; the
    # first key's divisor points, times γ^-k, are the key's own
    exp = _scaling(spec, d)[0] if points else None
    shapes = {}
    divisors = {}
    records = []
    keys = sorted(table)
    keys.sort(key=len)          # stable: by degree, then by coefficients
    for key in keys:
        count, dims, link = table.pop(key)
        first, k = (key, 0) if link is None else link
        finite, l_inf, profile = _length_structure(spec, first, d, shapes)
        wild = max(finite, default=0) >= spec.p or l_inf >= spec.p
        lengths = None
        split_ok = False
        if points:
            found = divisors.get(first)
            if found is None:
                found = divisors[first] = _materialize_divisor(spec, first, l_inf, max_ext)
            lengths, split_ok = found
            if k and lengths is not None:
                lengths = _scaled_divisor(spec, lengths, exp[-k])
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


def _materialize_divisor(S, disc_key, l_inf, max_ext):
    pairs = []
    split_ok = True
    if len(disc_key) > 1:
        roots, residual = roots_with_multiplicity(Poly._raw(S, list(disc_key)), max_ext)
        split_ok = residual.degree() == 0
        pairs.extend(roots)
    if not split_ok:
        return None, False
    if l_inf > 0:
        pairs.append((INF, l_inf))
    return Divisor(pairs), True


def _scaled_divisor(S, div, a):
    """div with each finite point multiplied by a in S, embedded into the
    points' field; INF stays."""
    T = div.spec
    if T is None:
        return div
    c = T.embed_code(a, S)
    return Divisor([(pt if pt is INF else FieldElement(T, T.mul(pt.code, c)), m)
                    for pt, m in div.items()], spec=T)


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
