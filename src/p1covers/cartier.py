"""The twisted-derivative operator T_f(q) = q f' - f q' on k(x), viewed
as a k(x^p)-linear map in the basis {1, x, ..., x^(p-1)}.

Writing q = sum c_i(x^p) x^i, the operator becomes a p x p matrix over
k[X] with X standing for x^p. Its kernel over k(X) is the line through f
and its image has dimension p - 1; in characteristic 2 the image lies
inside k(x^2). Image comparisons use the canonical reduced echelon form
of the column space over k(X) with content removed, so equality of
subspaces is literal tuple equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .field import FieldSpec
from .poly import (Poly, PolyMatrix, polymat_canonical_rows, polymat_kernel,
                   polymat_rank, raw_T, raw_trim)


def apply_T(f: Poly, q: Poly) -> Poly:
    """q f' - f q'; antisymmetric in (f, q) and kills f itself."""
    if not isinstance(f, Poly) or not isinstance(q, Poly):
        raise InputError("apply_T expects polynomials")
    if f.is_zero():
        raise InputError("the defining polynomial f must be non-zero")
    f._check(q)
    return Poly._raw(f.spec, raw_T(f.spec, list(f.c), list(q.c)))


def decompose(q: Poly) -> list[Poly]:
    """Coordinates of q in the basis {1, x, ..., x^(p-1)} over k(x^p):
    p polynomials c_i(X) with q(x) = sum c_i(x^p) x^i."""
    S = q.spec
    p = S.p
    parts = [[] for _ in range(p)]
    for k, code in enumerate(q.c):
        j, i = divmod(k, p)
        part = parts[i]
        if code:
            part.extend([0] * (j + 1 - len(part)))
            part[j] = code
    return [Poly._raw(S, raw_trim(part)) for part in parts]


def reassemble(parts: list[Poly]) -> Poly:
    """Inverse of decompose: sum c_i(x^p) x^i."""
    if not parts:
        raise InputError("nothing to reassemble")
    S = parts[0].spec
    p = S.p
    if len(parts) != p:
        raise InputError(f"expected {p} basis coordinates, got {len(parts)}")
    out = []
    for i, part in enumerate(parts):
        for j, code in enumerate(part.c):
            k = j * p + i
            if code:
                out.extend([0] * (k + 1 - len(out)))
                out[k] = code
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
    if f.is_zero():
        raise InputError("the defining polynomial f must be non-zero")
    S = f.spec
    return [[list(c.c) for c in decompose(apply_T(f, Poly.monomial(S, j)))]
            for j in range(S.p)]


def operator_matrix(f: Poly) -> OperatorMatrix:
    return OperatorMatrix(f, PolyMatrix(f.spec, zip(*_columns(f))))


def kernel_T(f: Poly):
    """(dimension, kernel basis) over k(x^p); dimension is always 1 and the
    basis vector is a k(X)-multiple of decompose(f)."""
    om = operator_matrix(f)
    _, vecs = polymat_kernel(om.spec, om.matrix.data, om.matrix.ncols)
    dim = len(vecs)
    if dim != 1:
        raise ArithmeticError(f"kernel of T_f has dimension {dim}, expected 1")
    return dim, [[Poly._raw(om.spec, list(e)) for e in v] for v in vecs]


def image_T(f: Poly):
    """(dimension, basis) of the column space of T_f over k(X); the basis
    rows are the canonical reduced generators with polynomial entries."""
    S = f.spec
    canon = polymat_canonical_rows(S, _columns(f), S.p)
    dim = len(canon)
    if dim != S.p - 1:
        raise ArithmeticError(f"image of T_f has dimension {dim}, expected {S.p - 1}")
    return dim, [[Poly._raw(S, list(e)) for e in row] for row in canon]


def image_equal(f: Poly, g: Poly) -> bool:
    """Whether T_f and T_g have the same image inside k(x) over k(x^p)."""
    if f.is_zero() or g.is_zero():
        raise InputError("the defining polynomials must be non-zero")
    f._check(g)
    return image_T(f) == image_T(g)


def in_image(f: Poly, q: Poly) -> bool:
    """Whether q lies in the image of T_f over k(x^p)."""
    cols = _columns(f)
    f._check(q)
    S = f.spec
    target = [list(c.c) for c in decompose(q)]
    return polymat_rank(S, cols + [target], S.p) == polymat_rank(S, cols, S.p)
