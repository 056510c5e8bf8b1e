"""The operator T_f(q) = q f' - f q': matrix, kernel, image, structure."""

import random
from itertools import product as iproduct

import pytest

from p1covers import (InputError, Poly, apply_T, decompose, image_T,
                      image_equal, in_image, kernel_T, make_field,
                      operator_matrix, reassemble)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)


def nonzero_polys(spec, max_deg):
    for n in range(max_deg + 1):
        for tail in iproduct(range(spec.order), repeat=n):
            yield Poly(spec, list(tail) + [1])
        for lead in range(2, spec.order):
            for tail in iproduct(range(spec.order), repeat=n):
                yield Poly(spec, list(tail) + [lead])


def rand_poly(spec, deg, rng):
    c = [rng.randrange(spec.order) for _ in range(deg)] + [rng.randrange(1, spec.order)]
    return Poly(spec, c)


def test_apply_T_examples():
    x = Poly.x(F3)
    assert apply_T(x, Poly.monomial(F3, 2)) == Poly.parse("2*x^2", F3)
    f = Poly.parse("x^4 + 2*x + 1", F3)
    assert apply_T(f, f).is_zero()
    one = Poly.one(F3)
    assert apply_T(one, Poly.monomial(F3, 2)) == Poly.parse("x", F3)   # -q'


def test_apply_T_zero_f():
    with pytest.raises(InputError):
        apply_T(Poly.zero(F3), Poly.x(F3))


def test_apply_T_antisymmetry_random():
    rng = random.Random(0)
    for spec in (F2, F3, F5):
        for _ in range(40):
            f = rand_poly(spec, rng.randrange(5), rng)
            g = rand_poly(spec, rng.randrange(5), rng)
            assert apply_T(f, g) == -apply_T(g, f)


def test_apply_T_kxp_linearity():
    rng = random.Random(1)
    for spec in (F2, F3):
        p = spec.p
        for _ in range(30):
            f = rand_poly(spec, rng.randrange(4), rng)
            q = rand_poly(spec, rng.randrange(4), rng)
            u = rand_poly(spec, rng.randrange(3), rng)
            u_xp = Poly(spec, _spread(list(u.c), p))
            assert apply_T(f, u_xp * q) == u_xp * apply_T(f, q)


def _spread(coeffs, p):
    out = []
    for j, c in enumerate(coeffs):
        out.extend([0] * (j * p - len(out)))
        out.append(c)
    return out


def test_decompose_examples():
    parts = decompose(Poly.parse("x^5 + x", F3))
    assert [p.to_str("X") for p in parts] == ["0", "1", "X"]
    assert [p.to_str("X") for p in decompose(Poly.parse("2", F3))] == ["2", "0", "0"]
    parts2 = decompose(Poly.parse("x^3 + x^2 + 1", F2))
    assert [p.to_str("X") for p in parts2] == ["X + 1", "X"]


def test_decompose_reassemble_round_trip():
    rng = random.Random(2)
    for spec in (F2, F3, F5):
        for _ in range(40):
            q = rand_poly(spec, rng.randrange(9), rng)
            assert reassemble(decompose(q)) == q


def test_operator_matrix_examples():
    om = operator_matrix(Poly.x(F3))
    rows = [[om.matrix.entry(i, j).to_str("X") for j in range(3)] for i in range(3)]
    assert rows == [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "2"]]

    om1 = operator_matrix(Poly.one(F3))
    rows1 = [[om1.matrix.entry(i, j).to_str("X") for j in range(3)] for i in range(3)]
    assert rows1 == [["0", "2", "0"], ["0", "0", "1"], ["0", "0", "0"]]

    om2 = operator_matrix(Poly.x(F2))
    rows2 = [[om2.matrix.entry(i, j).to_str("X") for j in range(2)] for i in range(2)]
    assert rows2 == [["1", "0"], ["0", "0"]]


def test_operator_matrix_reassembly_identity():
    rng = random.Random(3)
    for spec in (F2, F3, F5):
        for _ in range(15):
            f = rand_poly(spec, rng.randrange(1, 5), rng)
            om = operator_matrix(f)
            q = rand_poly(spec, rng.randrange(7), rng)
            assert reassemble(om.apply_vector(decompose(q))) == apply_T(f, q)


def test_kernel_examples():
    dim, basis = kernel_T(Poly.x(F3))
    assert dim == 1
    assert [e.to_str("X") for e in basis[0]] == ["0", "1", "0"]

    f = Poly.parse("x^5 + x", F3)
    dim, basis = kernel_T(f)
    assert dim == 1
    assert _proportional_over_kx(basis[0], decompose(f))

    dim, basis = kernel_T(Poly.one(F3))
    assert dim == 1 and [e.to_str("X") for e in basis[0]] == ["1", "0", "0"]


def _proportional_over_kx(v, w):
    n = len(v)
    for i in range(n):
        for j in range(i + 1, n):
            if v[i] * w[j] != v[j] * w[i]:
                return False
    return True


def test_image_examples():
    dim, basis = image_T(Poly.x(F3))
    assert dim == 2
    assert in_image(Poly.x(F3), Poly.monomial(F3, 2))
    assert not in_image(Poly.one(F3), Poly.monomial(F3, 2))

    dim1, basis1 = image_T(Poly.one(F3))
    assert dim1 == 2
    assert in_image(Poly.one(F3), Poly.x(F3))

    f = Poly.parse("x^3 + x^2 + 1", F2)
    dim2, basis2 = image_T(f)
    assert dim2 == 1
    assert all(e.is_zero() for e in basis2[0][1:])      # image inside k(x^2)


def test_kernel_image_dims_exhaustive_small():
    for spec, max_deg in ((F2, 4), (F3, 3)):
        for f in nonzero_polys(spec, max_deg):
            dim, basis = kernel_T(f)
            assert dim == 1
            assert _proportional_over_kx(basis[0], decompose(f))
            idim, _ = image_T(f)
            assert idim == spec.p - 1


def test_kernel_image_dims_random_f5():
    rng = random.Random(4)
    for _ in range(30):
        f = rand_poly(F5, rng.randrange(5), rng)
        dim, basis = kernel_T(f)
        assert dim == 1 and _proportional_over_kx(basis[0], decompose(f))
        idim, _ = image_T(f)
        assert idim == 4


def test_char2_image_in_kx2_exhaustive():
    for spec in (F2, F4):
        max_deg = 5 if spec is F2 else 3
        for f in nonzero_polys(spec, max_deg):
            _, basis = image_T(f)
            for vec in basis:
                assert all(e.is_zero() for e in vec[1:])


def test_image_equal_examples():
    f = Poly.parse("x^3 + x + 2", F3)
    xp_f = Poly(F3, _spread([0, 1], 3)) * f       # x^p * f
    assert image_equal(f, xp_f)
    assert not image_equal(Poly.x(F3), Poly.one(F3))
    assert image_equal(Poly.parse("x^3 + x^2 + 1", F2), Poly.parse("x^4 + x + 1", F2))


def test_image_equal_implies_proportional_char3():
    # scan low-degree pairs over F_3: equal images only for k(x^3)-multiples
    polys = list(nonzero_polys(F3, 2))
    for f in polys:
        for g in polys:
            if image_equal(f, g):
                assert _proportional_over_kx(decompose(f), decompose(g))


def test_pfold_iterate_collapses_onto_T():
    # the p-fold composite is a rational multiple of T_f itself:
    # f * (T_f)^p = ((f d/dx)^(p-1) f) * T_f, exactly. This is the precise
    # form of the collapse behind the kernel-dimension argument; the naive
    # reading "(T_f)^p commutes with multiplication by x" is false
    # (f = x, q = x, p = 3 is a counterexample).
    rng = random.Random(5)
    for spec in (F2, F3, F5):
        p = spec.p
        for _ in range(15):
            f = rand_poly(spec, rng.randrange(4), rng)
            c = f
            for _ in range(p - 1):
                c = f * c.derivative()
            q = rand_poly(spec, rng.randrange(6), rng)
            it = q
            for _ in range(p):
                it = apply_T(f, it)
            assert f * it == c * apply_T(f, q)
    # the counterexample pinned down
    T3 = lambda q: apply_T(Poly.x(F3), q)
    x = Poly.x(F3)
    assert T3(T3(T3(x * x))) != x * T3(T3(T3(x)))


def reference_columns(f):
    S = f.spec
    return [[list(c.c) for c in decompose(apply_T(f, Poly.monomial(S, j)))]
            for j in range(S.p)]


def test_columns_match_decomposed_images():
    from p1covers.cartier import _columns
    for spec in (F2, F3, F4, F5):
        for f in nonzero_polys(spec, 3):
            assert _columns(f) == reference_columns(f)
    rng = random.Random(25)
    for spec in (make_field(7), make_field(3, 2), make_field(5, 2)):
        for _ in range(40):
            f = rand_poly(spec, rng.randrange(7), rng)
            assert _columns(f) == reference_columns(f)
        # T_x(x) = 0, and T_c(x^j) = -j c x^(j-1) leaves one coordinate
        x = Poly.x(spec)
        assert _columns(x)[1] == [[]] * spec.p
        c = _columns(Poly.constant(spec, 2))
        assert c[0] == [[]] * spec.p
        assert all(sum(map(bool, col)) == 1 for col in c[1:])
    with pytest.raises(InputError):
        _columns(Poly.zero(F3))
