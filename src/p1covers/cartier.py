"""The twisted-derivative operator T_f(q) = q f' - f q' on k(x), viewed
as a k(x^p)-linear map in the basis {1, x, ..., x^(p-1)}: with X = x^p
and q = sum c_i(X) x^i, c_i the stride slice of q from degree i, it is a
p x p matrix over k[X].

Kernel, image and membership are closed forms of T_f(q) = -f^2 (q/f)',
with no elimination over k(X). ker T_f = f k(x^p), the line through
decompose(f). Im T_f = f^2 Im(d/dx) = f^2 ker C, C the Cartier operator,
which vanishes where coordinate p-1 does; as f^p lies in k[x^p], q lies
in Im T_f exactly when q f^(p-2) has no coefficient at a degree
congruent to p-1 mod p. So the image is the hyperplane sum w_i u_i = 0,
w_i coordinate p-1-i of f^(p-2): u_1 = 0 in characteristic 2, inside
k(x^2). Vectors carry no content and a monic first entry, and the image
is given by its hyperplane's reduced echelon rows, so equal images are
equal tuples. Each closed form is checked against T_f before it is
returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .field import FieldSpec
from .poly import (Poly, PolyMatrix, _pm_row_normalize, raw_mul, raw_neg, raw_T,
                   raw_T_columns, raw_trim)


def _nonzero(f: Poly):
    """(field, raw coefficients) of f, which must be non-zero."""
    if f.is_zero():
        raise InputError("the defining polynomial f must be non-zero")
    return f.spec, list(f.c)


def apply_T(f: Poly, q: Poly) -> Poly:
    """q f' - f q'; antisymmetric in (f, q) and kills f itself."""
    if not isinstance(f, Poly) or not isinstance(q, Poly):
        raise InputError("apply_T expects polynomials")
    S, fc = _nonzero(f)
    f._check(q)
    return Poly._raw(S, raw_T(S, fc, list(q.c)))


def _slices(S, a):
    """Raw coordinates of a in the basis {1, x, ..., x^(p-1)} over k[x^p]."""
    p = S.p
    return [raw_trim(list(a[i::p])) for i in range(p)]


def decompose(q: Poly) -> list[Poly]:
    """Coordinates of q in the basis {1, x, ..., x^(p-1)} over k(x^p):
    p polynomials c_i(X) with q(x) = sum c_i(x^p) x^i."""
    return [Poly._raw(q.spec, part) for part in _slices(q.spec, q.c)]


def reassemble(parts: list[Poly]) -> Poly:
    """Inverse of decompose: sum c_i(x^p) x^i."""
    if not parts:
        raise InputError("nothing to reassemble")
    S = parts[0].spec
    p = S.p
    if len(parts) != p:
        raise InputError(f"expected {p} basis coordinates, got {len(parts)}")
    out = [0] * (p * max(len(part.c) for part in parts))
    for i, part in enumerate(parts):
        out[i::p] = part.c + (0,) * (len(out) // p - len(part.c))
    return Poly._raw(S, raw_trim(out))


@dataclass(frozen=True)
class OperatorMatrix:
    """p x p matrix of T_f over k[X]; entry (i, j) is the coefficient of
    x^i in the basis decomposition of T_f(x^j)."""

    f: Poly
    matrix: PolyMatrix

    @property
    def spec(self) -> FieldSpec:
        return self.f.spec

    def apply_vector(self, parts: list[Poly]) -> list[Poly]:
        """Matrix action on basis coordinates; matches apply_T after
        reassembly."""
        S = self.spec
        p = S.p
        out = []
        for i in range(p):
            acc = Poly.zero(S)
            for j in range(p):
                acc = acc + self.matrix.entry(i, j) * parts[j]
            out.append(acc)
        return out


def _columns(f: Poly):
    """decompose(T_f(x^j)) for j = 0..p-1, as raw coordinate lists."""
    S, fc = _nonzero(f)
    return [_slices(S, col) for col in raw_T_columns(S, fc, range(S.p))]


def operator_matrix(f: Poly) -> OperatorMatrix:
    return OperatorMatrix(f, PolyMatrix(f.spec, zip(*_columns(f))))


def kernel_T(f: Poly):
    """(dimension, kernel basis) over k(x^p); dimension is always 1 and the
    basis vector is decompose(f) without content, first entry monic."""
    S, fc = _nonzero(f)
    v = [Poly._raw(S, e) for e in _pm_row_normalize(S, _slices(S, fc))]
    if apply_T(f, reassemble(v)):       # v spans no part of the kernel
        raise ArithmeticError("kernel of T_f has dimension 0, expected 1")
    return 1, [v]


def image_T(f: Poly):
    """(dimension, basis) of the column space of T_f over k(X): with w as
    above and j the last index where w_j != 0, row i != j is
    w_j e_i - w_i e_j when i < j, else e_i."""
    S, fc = _nonzero(f)
    p = S.p
    w = _slices(S, (f ** (p - 2)).c)[::-1]
    j = max(i for i in range(p) if w[i])
    rows = []
    for i in range(p):
        if i != j:
            row = [[] for _ in range(p)]
            row[i], row[j] = (w[j], raw_neg(S, w[i])) if i < j else ([1], [])
            rows.append(_pm_row_normalize(S, row))
    # sum w_i u_i is coordinate p-1 of u W, W = sum w_i(x^p) x^(p-1-i); a
    # column off the hyperplane would span k(X)^p together with it. W is
    # f^(p-2) when w is right, but it is rebuilt from w, so that the check
    # tests the hyperplane returned and not only f
    W = list(reassemble([Poly._raw(S, e) for e in w[::-1]]).c)
    if any(any(raw_mul(S, col, W)[p - 1::p]) for col in raw_T_columns(S, fc, range(p))):
        raise ArithmeticError(f"image of T_f has dimension {p}, expected {p - 1}")
    return p - 1, [[Poly._raw(S, e) for e in row] for row in rows]


def image_equal(f: Poly, g: Poly) -> bool:
    """Whether T_f and T_g have the same image inside k(x) over k(x^p)."""
    if f.is_zero() or g.is_zero():
        raise InputError("the defining polynomials must be non-zero")
    f._check(g)
    return image_T(f) == image_T(g)


def in_image(f: Poly, q: Poly) -> bool:
    """Whether q lies in the image of T_f over k(x^p): q f^(p-2) has no
    coefficient at a degree congruent to p-1 mod p."""
    p = _nonzero(f)[0].p
    f._check(q)
    return not any((q * f ** (p - 2)).c[p - 1::p])
