"""Degree-d rational maps P^1 -> P^1 over a finite field, as coprime
pairs f = g/h, together with their discriminants, differential lengths,
Moebius actions and equivalence testing.

Conventions. A cover stores a marked basis (g, h) of a 2-plane inside the
polynomials of degree <= d; the plane itself (reduced row echelon form of
the 2 x (d+1) coefficient matrix, columns by descending degree) is derived
and is the invariant of equivalence. The point at infinity is a
first-class symbol INF, never a coordinate pair: the discriminant
disc(f) = monic(h g' - g h') sees only the finite part of the branch
divisor and l_inf is recovered from total mass 2d-2.

Chart normalization puts a cover into the coordinates used by the
deformation solver: g monic of degree d with no x^(d-1) term, h monic of
degree d-1, the map unramified at infinity with infinity fixed. The
candidate for the point moved to infinity is chosen deterministically:
infinity itself when it is unramified, else the least unramified element
in the field order of F_q, then of F_{q^2}, F_{q^3}, ... up to max_ext.
The chart pair is the plane's echelon basis with pivots x^d, x^(d-1): the
target change is the inverse of the pair's coefficient block at those
degrees, which is invertible exactly when infinity is unramified (its
determinant is the x^(2d-2) coefficient of h g' - g h'). Equivalence
witnesses come from the same block inverse at the plane's pivot columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, SplitBoundExceeded
from .field import FieldElement, FieldSpec, _split_top, make_field
from .poly import (Poly, raw_T, raw_add, raw_embed, raw_eval, raw_gcd,
                   raw_mobius_substitute, raw_monic, raw_quo_root, raw_rref,
                   raw_scale, raw_sqf_list, raw_sqf_roots, raw_sub)


class _Infinity:
    """The point at infinity on P^1; a singleton."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __str__(self):
        return "inf"


INF = _Infinity()


@dataclass(frozen=True)
class Mobius:
    """Invertible fractional linear transformation x -> (ax+b)/(cx+d)."""

    a: FieldElement
    b: FieldElement
    c: FieldElement
    d: FieldElement

    def __post_init__(self):
        spec = self.a.spec
        for v in (self.b, self.c, self.d):
            if v.spec != spec:
                raise InputError("Moebius entries from different fields")
        if not self.det():
            raise InputError("singular Moebius transformation (ad - bc = 0)")

    @property
    def spec(self) -> FieldSpec:
        return self.a.spec

    @classmethod
    def identity(cls, spec: FieldSpec) -> "Mobius":
        one, zero = spec.one(), spec.zero()
        return cls(one, zero, zero, one)

    @classmethod
    def from_codes(cls, spec: FieldSpec, a, b, c, d) -> "Mobius":
        return cls(FieldElement(spec, a), FieldElement(spec, b),
                   FieldElement(spec, c), FieldElement(spec, d))

    def det(self) -> FieldElement:
        return self.a * self.d - self.b * self.c

    def compose(self, other: "Mobius") -> "Mobius":
        """self after other (matrix product self * other)."""
        if other.spec != self.spec:
            raise InputError("Moebius transformations over different fields")
        return Mobius.from_codes(self.spec, *_m2_mul(self.spec, self.codes(), other.codes()))

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)

    def apply(self, point):
        """Image of a point of P^1 (FieldElement or INF)."""
        if point is not INF and point.spec != self.spec:
            raise InputError("point and Moebius transformation over different fields")
        x = _mobius_point(self.spec, *self.codes(), point if point is INF else point.code)
        return x if x is INF else FieldElement(self.spec, x)

    def is_identity(self) -> bool:
        return (self.b.code == 0 and self.c.code == 0
                and self.a.code == self.d.code and self.a.code != 0)

    def embed(self, target: FieldSpec) -> "Mobius":
        return Mobius.from_codes(target, *(target.embed_code(v, self.spec) for v in self.codes()))

    def codes(self):
        return (self.a.code, self.b.code, self.c.code, self.d.code)

    def to_json(self):
        return {"a": str(self.a), "b": str(self.b), "c": str(self.c), "d": str(self.d)}

    def to_str(self, var: str = "y") -> str:
        num = _linear_str(self.a, self.b, var)
        den = _linear_str(self.c, self.d, var)
        if den == "1":
            return f"{var} -> {num}"
        return f"{var} -> ({num}) / ({den})"

    def __str__(self):
        return self.to_str()


def _mobius_point(T, a, b, c, e, x):
    """(a x + b) / (c x + e) for codes of T, or INF where c x + e = 0; INF
    goes to a / c, or stays when c = 0."""
    if x is INF:
        return T.div(a, c) if c else INF
    den = T.add(T.mul(c, x), e)
    return T.div(T.add(T.mul(a, x), b), den) if den else INF


def _linear_str(a: FieldElement, b: FieldElement, var: str) -> str:
    terms = []
    if a:
        terms.append(var if str(a) == "1" else f"{a}*{var}")
    if b or not terms:
        terms.append(str(b))
    return " + ".join(terms)


class Divisor:
    """Finite formal sum of points of P^1 with positive multiplicities.

    All finite points live in one field; INF is the symbol for infinity.
    The points are kept as {code or INF: multiplicity}, and the text
    forms are rendered from the codes through the field's element_str.
    A divisor without finite points has spec None, whatever its field.
    """

    __slots__ = ("spec", "_points")

    def __init__(self, points, spec: FieldSpec | None = None):
        items = points.items() if isinstance(points, dict) else points
        table = {}
        for point, mult in items:
            if not isinstance(mult, int) or mult <= 0:
                raise InputError(f"divisor multiplicity {mult!r} must be a positive integer")
            if point is INF:
                key = INF
            elif isinstance(point, FieldElement):
                if spec is None:
                    spec = point.spec
                elif point.spec != spec:
                    raise InputError("divisor points from different fields")
                key = point.code
            else:
                raise InputError(f"bad divisor point {point!r}")
            if key in table:
                raise InputError("repeated point in divisor")
            table[key] = mult
        self.spec = spec if len(table) > (INF in table) else None
        self._points = table

    @classmethod
    def _raw(cls, spec, points) -> "Divisor":
        """Trusted construction, like Poly._raw: points is a dict {code or
        INF: multiplicity} that the library has built from checked data,
        with codes of spec and positive int multiplicities; it is kept, not
        copied, and spec is dropped when there are no finite points. Only
        library code that made the dict itself may call this."""
        div = object.__new__(cls)
        div.spec = spec if len(points) > (INF in points) else None
        div._points = points
        return div

    def mass(self) -> int:
        return sum(self._points.values())

    def items(self):
        """(point, multiplicity) pairs, finite points ascending, INF last."""
        out = [(FieldElement(self.spec, c), m)
               for c, m in sorted(kv for kv in self._points.items() if kv[0] is not INF)]
        if INF in self._points:
            out.append((INF, self._points[INF]))
        return out

    def multiplicity(self, point) -> int:
        if point is INF:
            return self._points.get(INF, 0)
        if self.spec is None or point.spec != self.spec:
            return 0
        return self._points.get(point.code, 0)

    def multiset(self):
        return tuple(sorted(self._points.values()))

    def support(self):
        return [pt for pt, _ in self.items()]

    def embed(self, target: FieldSpec) -> "Divisor":
        T = self.spec
        return Divisor._raw(target, {x if x is INF else target.embed_code(x, T): m
                                     for x, m in self._points.items()})

    def transport(self, m: Mobius) -> "Divisor":
        """Move every point by the transformation; multiplicities ride along."""
        if self.spec is not None and self.spec != m.spec:
            raise InputError("transport needs the divisor and Moebius over one field")
        return self.moved(m.spec, *m.codes())

    def moved(self, S, a, b, c, e) -> "Divisor":
        """The divisor with each point x moved to (a x + b) / (c x + e), for
        codes a, b, c, e of S with a e != b c, embedded into the points'
        field (_mobius_point). A Moebius map is a bijection, so the moved
        codes stay distinct. From a divisor without finite points, INF
        moved onto a point gets S."""
        T, pts = self.spec, self._points
        if T is None:
            return Divisor._raw(S, {S.div(a, c): pts[INF]}) if c and pts else self
        a, b, c, e = [v if v < 2 else T.embed_code(v, S) for v in (a, b, c, e)]
        if c:
            moved = {_mobius_point(T, a, b, c, e, x): m for x, m in pts.items()}
            return Divisor._raw(T, moved)
        if e != 1:                          # affine: x -> x a/e + b/e
            a, b = T.div(a, e), T.div(b, e)
        at, mt, q = T._add_t, T._mul_t, T.order
        moved = {}
        for x, m in pts.items():
            if x is not INF:
                if a != 1:
                    x = mt[x * q + a]
                if b:
                    x = at[x * q + b]
            moved[x] = m
        return Divisor._raw(T, moved)

    def _rendered(self):
        """(point text, multiplicity) pairs in items() order, from the codes."""
        pts, out = self._points, []
        finite = sorted(c for c in pts if c is not INF)
        if finite:
            text = self.spec.element_str
            out = [(text(c), pts[c]) for c in finite]
        if INF in pts:
            out.append((str(INF), pts[INF]))
        return out

    def to_json(self):
        return [{"point": pt, "mult": m} for pt, m in self._rendered()]

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return self._points == other._points and self.spec == other.spec

    def __hash__(self):
        return hash((self.spec, tuple(sorted(
            ((1, 0, v) if k is INF else (0, k, v)) for k, v in self._points.items()))))

    def __str__(self):
        return " + ".join(f"{m}*({pt})" if m > 1 else f"({pt})"
                          for pt, m in self._rendered()) or "0"

    def __repr__(self):
        return f"Divisor({self})"


class Cover:
    """A separable, base-point-free pair f = g/h of degree d."""

    __slots__ = ("g", "h", "d", "_disc_raw")

    def __init__(self, g: Poly, h: Poly):
        if not isinstance(g, Poly) or not isinstance(h, Poly):
            raise InputError("cover numerator and denominator must be polynomials")
        if g.spec != h.spec:
            raise InputError("cover numerator and denominator over different fields")
        if g.is_zero() and h.is_zero():
            raise InputError("zero cover")
        d = max(g.degree(), h.degree())
        if d < 1:
            raise InputError("a cover must have degree at least 1")
        S = g.spec
        if len(raw_gcd(S, list(g.c), list(h.c))) > 1:
            raise InputError("g and h share a common factor")
        disc = raw_T(S, list(g.c), list(h.c))
        if not disc:
            raise InputError("inseparable cover: h*g' - g*h' vanishes identically")
        self.g = g
        self.h = h
        self.d = d
        self._disc_raw = tuple(disc)

    @property
    def spec(self) -> FieldSpec:
        return self.g.spec

    def pair(self):
        return self.g, self.h

    # -- discriminant and lengths ---------------------------------------------

    def discriminant(self) -> Poly:
        """The monic scalar multiple of h g' - g h'; degree <= 2d-2."""
        return Poly._raw(self.spec, raw_monic(self.spec, list(self._disc_raw)))

    def differential_lengths(self, max_ext: int = 4) -> Divisor:
        """Branch divisor: multiplicities of disc roots plus the mass
        (2d-2) - deg disc at infinity."""
        S = self.spec
        _, l_inf, _, _, sqf = _branch_shape(S, self._disc_raw, self.d)
        div, residual = _branch_divisor(S, sqf, l_inf, max_ext)
        if div is None:
            raise SplitBoundExceeded(
                f"discriminant does not split within extension degree {max_ext}",
                residual=Poly._raw(S, residual))
        return div

    def length_multiset(self):
        """Sorted multiset of all differential lengths (infinity included),
        read off the squarefree structure of the discriminant; exact and
        extension-free, unlike differential_lengths."""
        finite, l_inf, *_ = _branch_shape(self.spec, self._disc_raw, self.d)
        return tuple(sorted(finite + (l_inf,))) if l_inf > 0 else finite

    def ram_index(self, point):
        """(e_P, wild flag) at INF or at a FieldElement P: _ram_index of g
        and h embedded into P's field."""
        if point is not INF and not isinstance(point, FieldElement):
            raise InputError(f"bad point {point!r}")
        S = self.spec
        T = S if point is INF else point.spec
        e = _ram_index(T, raw_embed(S, T, self.g.c), raw_embed(S, T, self.h.c), self.d, point)
        return e, e % S.p == 0

    # -- group actions ---------------------------------------------------------

    def postcompose(self, m: Mobius) -> "Cover":
        """Target change: (g, h) -> (a g + b h, c g + d h)."""
        if m.spec != self.spec:
            raise InputError("Moebius transformation over a different field")
        S = self.spec
        g, h = _raw_postcompose(S, m.codes(), self.g.c, self.h.c)
        return Cover(Poly._raw(S, g), Poly._raw(S, h))

    def precompose(self, m: Mobius) -> "Cover":
        """Source change: substitute x -> (ax+b)/(cx+d), cleared by (cx+d)^d."""
        if m.spec != self.spec:
            raise InputError("Moebius transformation over a different field")
        S = self.spec
        G, H = (raw_mobius_substitute(S, P.c, self.d, *m.codes()) for P in (self.g, self.h))
        return Cover(Poly._raw(S, G), Poly._raw(S, H))

    def embed(self, target: FieldSpec) -> "Cover":
        return Cover(self.g.embed(target), self.h.embed(target))

    # -- the plane -------------------------------------------------------------

    def plane(self):
        """Canonical RREF of the 2 x (d+1) coefficient matrix (columns by
        descending degree); equal planes = equivalent covers."""
        S, d = self.spec, self.d
        rows = [[(self.g.c[d - j] if d - j < len(self.g.c) else 0) for j in range(d + 1)],
                [(self.h.c[d - j] if d - j < len(self.h.c) else 0) for j in range(d + 1)]]
        rref, _ = raw_rref(S, rows, d + 1)
        return tuple(tuple(r) for r in rref)

    def equivalent(self, other: "Cover"):
        """A Moebius witness m with self.postcompose(m) == other (as a
        pair) when the two planes coincide, else None."""
        if not isinstance(other, Cover):
            raise InputError("can only compare covers")
        if other.spec != self.spec:
            raise InputError("covers over different fields")
        if other.d != self.d:
            raise InputError("covers of different degrees")
        p1 = self.plane()
        if p1 != other.plane():
            return None
        S, d = self.spec, self.d
        c1, c2 = (d - next(j for j, v in enumerate(row) if v) for row in p1)
        block = (other.g[c1].code, other.g[c2].code, other.h[c1].code, other.h[c2].code)
        inverse = _pivot_inverse(S, self.g.c, self.h.c, c1, c2)
        witness = Mobius.from_codes(S, *_m2_mul(S, block, inverse))
        check = self.postcompose(witness)
        if check.g != other.g or check.h != other.h:
            raise ArithmeticError("equivalence witness failed verification")
        return witness

    # -- chart normalization ----------------------------------------------------

    def normalize(self, max_ext: int = 4) -> "NormalizedCover":
        spec_out, gN, hN, src, tgt = _raw_normalize(
            self.spec, list(self.g.c), list(self.h.c), self.d,
            list(self._disc_raw), max_ext)
        original = self if spec_out is self.spec else self.embed(spec_out)
        source = (Mobius.identity(spec_out) if src is None
                  else Mobius.from_codes(spec_out, *src))
        target = Mobius.from_codes(spec_out, *tgt)
        normalized = Cover(Poly._raw(spec_out, gN), Poly._raw(spec_out, hN))
        return NormalizedCover(normalized, source, target, original)

    # -- io ---------------------------------------------------------------------

    @classmethod
    def parse(cls, text: str, spec: FieldSpec) -> "Cover":
        g_text, *rest = _split_top(text, "/")
        if len(rest) > 1:
            raise InputError(f"more than one '/' in cover {text!r}")
        h_text = rest[0][1:] if rest else "1"
        return cls(Poly.parse(g_text, spec), Poly.parse(h_text, spec))

    def __str__(self):
        if self.h.degree() == 0 and self.h.c == (1,):
            return str(self.g)
        return f"{self.g} / {self.h}"

    def __repr__(self):
        return f"Cover({self} over {self.spec!r})"

    def __eq__(self, other):
        if not isinstance(other, Cover):
            return NotImplemented
        return self.g == other.g and self.h == other.h

    def __hash__(self):
        return hash((self.g, self.h))


def _branch_shape(S, disc, d):
    """(finite_lengths, l_inf, factor_profile, wild, sqf) of a degree-d
    cover with discriminant disc (raw, any scalar multiple), from its
    squarefree structure sqf = raw_sqf_list(S, disc); exact, no extension
    needed. A squarefree factor of degree k with multiplicity e
    contributes k geometric roots of length e, so the lengths never need
    the roots themselves; l_inf is the rest of the mass 2d - 2, and wild
    says that some length, infinity included, is at least p."""
    finite = []
    profile = []
    sqf = raw_sqf_list(S, list(disc))
    for fac, mult in sqf:
        k = len(fac) - 1
        profile.append((k, mult))
        finite.extend([mult] * k)
    l_inf = (2 * d - 2) - (len(disc) - 1)
    wild = max(finite, default=0) >= S.p or l_inf >= S.p
    return tuple(sorted(finite)), l_inf, tuple(sorted(profile)), wild, sqf


def _branch_divisor(S, sqf, l_inf, max_ext):
    """(Divisor of the roots of the squarefree list sqf with l_inf at INF,
    or None when some factor does not split within max_ext; the raw
    unsplit residual, [1] when all split)."""
    T, roots, residual = raw_sqf_roots(S, sqf, max_ext)
    if len(residual) > 1:
        return None, residual
    points = dict(roots)
    if l_inf > 0:
        points[INF] = l_inf
    return Divisor._raw(T, points), residual


def make_cover(g: Poly, h: Poly) -> Cover:
    """Validated construction of a cover from a coprime separable pair."""
    return Cover(g, h)


def equivalent(c1: Cover, c2: Cover):
    """Moebius witness of post-composition equivalence, or None."""
    return c1.equivalent(c2)


@dataclass(frozen=True)
class NormalizedCover:
    """A cover in chart form plus the coordinate changes that got it there.

    Chart form: g monic of degree d with zero x^(d-1) coefficient, h monic
    of degree d-1, infinity unramified and fixed. `original` is the input
    cover (embedded if normalization extended the field), and
    original.precompose(source_change).postcompose(target_change)
    reproduces the normalized pair exactly.
    """

    cover: Cover
    source_change: Mobius
    target_change: Mobius
    original: Cover

    def __post_init__(self):
        c = self.cover
        d = c.d
        g, h = c.g, c.h
        if g.degree() != d or not g.leading_coefficient().code == 1:
            raise InputError("normalized numerator must be monic of degree d")
        if h.degree() != d - 1 or not h.leading_coefficient().code == 1:
            raise InputError("normalized denominator must be monic of degree d-1")
        if d >= 1 and g[d - 1].code != 0:
            raise InputError("normalized numerator must have no x^(d-1) term")
        disc_deg = c.discriminant().degree()
        if disc_deg != 2 * d - 2:
            raise InputError("normalized cover must be unramified at infinity")
        redone = self.original.precompose(self.source_change).postcompose(self.target_change)
        if redone.g != g or redone.h != h:
            raise InputError("recorded coordinate changes do not reproduce the chart form")

    @property
    def spec(self) -> FieldSpec:
        return self.cover.spec

    def to_json(self):
        return {"normalized": str(self.cover),
                "source_change": self.source_change.to_json(),
                "target_change": self.target_change.to_json()}


def _m2_mul(S, A, B):
    a = S.add(S.mul(A[0], B[0]), S.mul(A[1], B[2]))
    b = S.add(S.mul(A[0], B[1]), S.mul(A[1], B[3]))
    c = S.add(S.mul(A[2], B[0]), S.mul(A[3], B[2]))
    d = S.add(S.mul(A[2], B[1]), S.mul(A[3], B[3]))
    return (a, b, c, d)


def _pivot_inverse(S, g, h, c1, c2):
    """Inverse of the block [[g_c1, g_c2], [h_c1, h_c2]] of the raw pair's
    coefficients at degrees c1, c2, as codes (a, b, c, d); None when the
    block is singular. Applied to (g, h) it gives the basis of their plane
    that is the identity on those two columns."""
    a, b = (g[c] if c < len(g) else 0 for c in (c1, c2))
    c, d = (h[c] if c < len(h) else 0 for c in (c1, c2))
    det = S.sub(S.mul(a, d), S.mul(b, c))
    if not det:
        return None
    r = S.inv(det)
    return (S.mul(d, r), S.neg(S.mul(b, r)), S.neg(S.mul(c, r)), S.mul(a, r))


def _raw_postcompose(S, A, g, h):
    """(a g + b h, c g + d h) for A = (a, b, c, d) codes."""
    return (raw_add(S, raw_scale(S, g, A[0]), raw_scale(S, h, A[1])),
            raw_add(S, raw_scale(S, g, A[2]), raw_scale(S, h, A[3])))


def _fix_infinity(S, g, h, d):
    """Post-compose so that the map fixes infinity; returns (g, h). When
    deg h = d that is (h, g - v h), v = g_d / h_d (a swap when deg g < d)."""
    if len(h) <= d:
        return g, h
    v = S.div(g[d], h[d]) if len(g) > d else 0
    return _raw_postcompose(S, (0, 1, 1, S.neg(v)), g, h)


def _ram_index(T, g, h, d, point):
    """Ramification index at point of the degree-d raw pair (g, h) over T,
    a field holding the point: at INF, d minus the denominator's degree
    after _fix_infinity; at P, the vanishing order of w = g - f(P) h, or
    of w = h when f(P) = inf, one synthetic division per factor x - P."""
    if point is INF:
        return d - (len(_fix_infinity(T, g, h, d)[1]) - 1)
    P = point.code
    h_val = raw_eval(T, h, P)
    w = raw_sub(T, g, raw_scale(T, h, T.div(raw_eval(T, g, P), h_val))) if h_val else h
    e = 0
    while not raw_eval(T, w, P):
        w = raw_quo_root(T, w, P)
        e += 1
    return e


def _raw_normalize(S, g, h, d, disc_raw, max_ext):
    """Chart-normalize raw data; returns (spec, gN, hN, source, target).

    source is (a, b, c, d) codes or None for identity. The chart pair is
    the plane's echelon basis with pivots x^d, x^(d-1), so target is the
    inverse of the pair's coefficient block at those two degrees.
    """
    if max_ext < 1:
        raise InputError("max_ext must be at least 1")
    src = None
    if len(disc_raw) - 1 < 2 * d - 2:  # ramified at infinity
        base = S
        for r in range(1, max_ext + 1):
            S = base if r == 1 else make_field(base.p, base.m * r)
            disc = raw_embed(base, S, disc_raw)
            Q = next((x for x in range(S.order) if raw_eval(S, disc, x)), None)
            if Q is not None:
                break
        if Q is None:
            raise SplitBoundExceeded(
                f"no unramified point within extension degree {max_ext}")
        src = (Q, 1, 1, 0)  # x -> (Qx + 1)/x sends infinity to Q
        g, h = (raw_mobius_substitute(S, raw_embed(base, S, P), d, *src) for P in (g, h))
    tgt = _pivot_inverse(S, g, h, d, d - 1)
    if tgt is None:
        raise ArithmeticError("chart normalization produced wrong degrees")
    return (S, *_raw_postcompose(S, tgt, g, h), src, tgt)
