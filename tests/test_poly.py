"""Polynomial arithmetic, factorization/root machinery, exact linear algebra."""

import random
from functools import reduce
from itertools import product as iproduct

import pytest

from p1covers import (Cover, FieldElement, FieldMatrix, InputError, Poly, PolyMatrix,
                      kernel_basis, make_field, poly_arith, poly_gcd,
                      rank_over_kX, roots_with_multiplicity)
from p1covers.cli import main
from p1covers.poly import (raw_add, raw_eval, raw_mobius_substitute, raw_mul, raw_pow_mod,
                          raw_rem, raw_scale, raw_translate, raw_trim)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F9 = make_field(3, 2)


def rand_poly(spec, deg, rng, monic=False):
    c = [rng.randrange(spec.order) for _ in range(deg + 1)]
    if monic:
        c[-1] = 1
    elif all(v == 0 for v in c):
        c[-1] = 1
    return Poly(spec, c)


def test_gcd_examples():
    a = Poly.parse("x^2 + 2", F3)
    b = Poly.parse("x + 1", F3)
    assert poly_gcd(a, b) == b
    f = Poly.parse("2*x^3 + 1", F3)
    assert poly_gcd(f, Poly.zero(F3)) == f.monic()
    assert poly_arith(a, b, "gcd") == b


def test_mul_sub_example():
    lhs = Poly.parse("x^3 + x + 1", F3) * Poly.parse("x^3", F3) - Poly.parse("x^4", F3)
    assert lhs == Poly.parse("x^6 + x^3", F3)


def test_poly_arith_dispatch():
    a, b = Poly.parse("x^2 + 1", F3), Poly.parse("x + 2", F3)
    assert poly_arith(a, b, "add") == a + b
    assert poly_arith(a, b, "sub") == a - b
    assert poly_arith(a, b, "mul") == a * b
    q, r = poly_arith(a, b, "divrem")
    assert q * b + r == a and r.degree() < b.degree()
    with pytest.raises(InputError):
        poly_arith(a, b, "pow")


def test_divrem_property():
    rng = random.Random(0)
    for spec in (F2, F3, F5, F9):
        for _ in range(60):
            a = rand_poly(spec, rng.randrange(8), rng)
            b = rand_poly(spec, rng.randrange(1, 5), rng)
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree() < b.degree()


def test_degree_multiplicativity_and_gcd_divides():
    rng = random.Random(1)
    for _ in range(60):
        a = rand_poly(F3, rng.randrange(6), rng)
        b = rand_poly(F3, rng.randrange(6), rng)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).degree() == a.degree() + b.degree()
        g = poly_gcd(a, b)
        assert (a % g).is_zero() and (b % g).is_zero()


def test_divrem_zero_divisor():
    with pytest.raises(InputError):
        divmod(Poly.parse("x", F3), Poly.zero(F3))


def test_field_mismatch():
    with pytest.raises(InputError):
        Poly.parse("x", F3) + Poly.parse("x", F5)


def test_integer_codes_checked_everywhere():
    # an int is reduced mod p over a prime field and must be a code in
    # [0, q) otherwise; a negative code used to index the tables from the end
    assert Poly.constant(F3, -1) == Poly.monomial(F3, 0, 2) == Poly(F3, [5])
    assert FieldMatrix(F3, [[-1, 1]]).data == [[2, 1]]
    # an int scalar is read the same way: 3 is the code of u in F_9, not 3 mod 3
    assert Poly.one(F9) * 3 == 3 * Poly.one(F9) == Poly.constant(F9, 3)
    for build in (lambda: Poly.constant(F9, -1), lambda: Poly.monomial(F9, 2, 100),
                  lambda: Poly.one(F9) * 100, lambda: Poly.one(F9) * -1,
                  lambda: Poly.monomial(F9, 1, FieldElement(F3, 1)),
                  lambda: Poly(F9, [0, 9]), lambda: FieldMatrix(F9, [[-1, 1]]),
                  lambda: FieldMatrix(F9, [[1, 9]])):
        with pytest.raises(InputError):
            build()


def test_derivative_examples():
    assert Poly.parse("x^3", F3).derivative().is_zero()
    assert Poly.parse("x^5 + x", F3).derivative() == Poly.parse("2*x^4 + 1", F3)
    assert Poly.parse("x^3 + x^2 + 1", F2).derivative() == Poly.parse("x^2", F2)


def test_derivative_leibniz():
    rng = random.Random(2)
    for spec in (F2, F3, F9):
        for _ in range(40):
            a = rand_poly(spec, rng.randrange(6), rng)
            b = rand_poly(spec, rng.randrange(6), rng)
            assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_derivative_kills_pth_powers_exhaustive():
    for spec in (F2, F3):
        p = spec.p
        for tail in iproduct(range(spec.order), repeat=4):
            a = Poly(spec, tail)
            assert (a ** p).derivative().is_zero()


def test_monic_examples():
    assert Poly.parse("2*x^4 + 1", F3).monic() == Poly.parse("x^4 + 2", F3)
    x3 = Poly.parse("x^3", F3)
    assert x3.monic() == x3
    assert Poly.parse("2*x^6 + 1", F5).monic() == Poly.parse("x^6 + 3", F5)
    with pytest.raises(InputError):
        Poly.zero(F3).monic()


def test_roots_examples():
    roots, residual = roots_with_multiplicity(Poly.parse("x^4 + 2", F3), 4)
    assert residual == Poly.one(F3)
    assert [(str(r), m) for r, m in roots] == [("1", 1), ("2", 1), ("[u]", 1), ("[2*u]", 1)]

    roots, residual = roots_with_multiplicity(Poly.parse("x^6 + x^3", F3), 4)
    assert residual == Poly.one(F3)
    assert sorted((r.code, m) for r, m in roots) == [(0, 3), (2, 3)]

    roots, residual = roots_with_multiplicity(Poly.parse("x^2 + 1", F3), 4)
    assert [(str(r), m) for r, m in roots] == [("[u]", 1), ("[2*u]", 1)]


def test_roots_reconstruct_input():
    rng = random.Random(3)
    for spec in (F2, F3, F5):
        for _ in range(40):
            a = rand_poly(spec, rng.randrange(1, 7), rng)
            if a.is_zero() or a.degree() < 1:
                continue
            roots, residual = roots_with_multiplicity(a, 4)
            target = roots[0][0].spec if roots else spec
            prod = Poly.one(target)
            xv = Poly.x(target)
            for r, m in roots:
                prod = prod * (xv - Poly.constant(target, r.code)) ** m
            prod = prod * residual.embed(target) * a.leading_coefficient().code
            assert prod == a.embed(target)


def test_roots_residual_reporting():
    # x^2 + x + 2 is irreducible over F_3; with max_ext = 1 it stays unsplit
    a = Poly.parse("x^2 + x + 2", F3)
    roots, residual = roots_with_multiplicity(a, 1)
    assert roots == []
    assert residual == a.monic()
    roots2, residual2 = roots_with_multiplicity(a, 2)
    assert residual2 == Poly.one(F3) and len(roots2) == 2


def test_roots_multiplicity_with_unsplit_part():
    # (x^2+x+2)^2 * x^3 over F_3, max_ext 1: only the root 0 materializes
    a = (Poly.parse("x^2 + x + 2", F3) ** 2) * Poly.parse("x^3", F3)
    roots, residual = roots_with_multiplicity(a, 1)
    assert [(r.code, m) for r, m in roots] == [(0, 3)]
    assert residual == Poly.parse("x^2 + x + 2", F3) ** 2


def _trial_division_multiplicities(spec, poly):
    """Oracle: irreducible factors with multiplicity by trial division.

    Scanning divisors by increasing degree means every divisor found is
    irreducible (its proper factors were removed earlier).
    """
    from p1covers.poly import raw_divrem

    remaining = list(poly.monic().c)
    out = {}
    deg = 1
    while len(remaining) - 1 > 0:
        hit = False
        for tail in iproduct(range(spec.order), repeat=deg):
            cand = list(tail) + [1]
            q, r = raw_divrem(spec, remaining, cand)
            if not r:
                mult = 0
                while not r:
                    remaining = q
                    mult += 1
                    q, r = raw_divrem(spec, remaining, cand)
                out[tuple(cand)] = mult
                hit = True
                break
        if not hit:
            deg += 1
    return out


@pytest.mark.parametrize("spec,max_deg", [(F2, 4), (F3, 4)])
def test_squarefree_structure_against_trial_division(spec, max_deg):
    from p1covers.poly import raw_sqf_list
    for tail in iproduct(range(spec.order), repeat=max_deg):
        coeffs = list(tail) + [1]
        poly = Poly(spec, coeffs)
        oracle = _trial_division_multiplicities(spec, poly)
        sqf = dict()
        for fac, mult in raw_sqf_list(spec, coeffs):
            assert mult not in sqf      # multiplicity classes are merged
            sqf[mult] = Poly._raw(spec, fac)
        expected = {}
        for cand, m in oracle.items():
            expected[m] = expected.get(m, Poly.one(spec)) * Poly(spec, list(cand))
        assert sqf == expected


def _sympy_dense(a):
    """Little-endian code list -> sympy's big-endian dense list."""
    return list(reversed(a))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_sqf_and_ddf_match_sympy(p):
    # sympy (test-only) as an independent oracle over prime fields
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_sqf_list
    from p1covers.poly import raw_ddf, raw_monic, raw_mul, raw_sqf_list

    S = make_field(p)
    rng = random.Random(5000 + p)
    for _ in range(40):
        # products of small random factors with multiplicities up to p + 1,
        # so the p-th-root step of the squarefree split is reached
        f = [rng.randrange(1, p)]
        for _ in range(rng.randint(1, 4)):
            fac = [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1]
            for _ in range(rng.randint(1, p + 1)):
                f = raw_mul(S, f, fac)
        lc, expected = gf_sqf_list(_sympy_dense(f), p, ZZ)
        assert lc == f[-1]
        merged = {}
        for g, k in expected:
            merged[k] = raw_mul(S, merged.get(k, [1]), list(reversed(g)))
        got = {k: g for g, k in raw_sqf_list(S, f)}
        assert len(got) == len(raw_sqf_list(S, f))
        assert got == merged
        for g in got.values():
            pieces, leftover = raw_ddf(S, g)
            assert leftover is None
            want = {r: list(reversed(h)) for h, r in
                    gf_ddf_zassenhaus(_sympy_dense(raw_monic(S, g)), p, ZZ)}
            assert {r: h for h, r in pieces} == want


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_factor_sqf_matches_sympy(p):
    # the equal-degree split on raw_ddf's pieces against sympy's
    # factorization of squarefree polynomials over F_p
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor_sqf
    from p1covers.poly import raw_ddf, raw_factor_sqf, raw_mul, raw_sqf_list

    S = make_field(p)
    rng = random.Random(6000 + p)
    split_degrees = set()
    for _ in range(40):
        f = [rng.randrange(1, p)]
        for _ in range(rng.randint(1, 6)):
            f = raw_mul(S, f, [rng.randrange(p) for _ in range(rng.randint(1, 4))] + [1])
        for fac, _ in raw_sqf_list(S, f):
            split_degrees.update(k for piece, k in raw_ddf(S, fac)[0] if len(piece) - 1 > k)
            _, expected = gf_factor_sqf(_sympy_dense(fac), p, ZZ)
            got = raw_factor_sqf(S, fac)
            assert sorted(map(tuple, got)) == sorted(tuple(reversed(e)) for e in expected)
    assert any(k > 1 for k in split_degrees)    # pieces of several factors of degree > 1


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2)])
def test_factor_sqf_nonprime_base(p, m):
    # no sympy oracle over F_4, F_8, F_9: the factors multiply back to the
    # input, are distinct and monic, and raw_ddf finds each irreducible
    from p1covers.poly import raw_ddf, raw_factor_sqf, raw_mul, raw_sqf_list

    S = make_field(p, m)
    rng = random.Random(100 * p + m)
    split_degrees = set()
    for _ in range(60):
        f = [1]
        for _ in range(rng.randint(1, 4)):
            f = raw_mul(S, f, [rng.randrange(S.order) for _ in range(rng.randint(1, 4))] + [1])
        for fac, _ in raw_sqf_list(S, f):
            split_degrees.update(k for piece, k in raw_ddf(S, fac)[0] if len(piece) - 1 > k)
            factors = raw_factor_sqf(S, fac)
            assert len(set(map(tuple, factors))) == len(factors)
            prod = [1]
            for P in factors:
                assert P[-1] == 1
                assert raw_ddf(S, P) == ([(P, len(P) - 1)], None)
                prod = raw_mul(S, prod, P)
            assert prod == fac
    assert any(k > 1 for k in split_degrees)


@pytest.mark.parametrize("p,m", [(2, 8), (5, 4), (2, 10), (3, 7)])
def test_split_root_returns_a_root(p, m):
    # both splitting branches (p = 2 trace, odd p powering), on both sides
    # of the table limit
    from p1covers.poly import _split_root, raw_mul, raw_scale
    S = make_field(p, m)
    assert isinstance(S._mul_t, list) == (S.order <= 729)
    rng = random.Random(p ** m)
    for _ in range(12):
        roots = rng.sample(range(S.order), rng.randint(2, 5))
        f = [1]
        for r in roots:
            f = raw_mul(S, f, [S.neg(r), 1])
        f = raw_scale(S, f, rng.randrange(1, S.order))
        assert _split_root(S, f) in roots


def test_split_root_memory_independent_of_field_size():
    # the splitting candidates come one at a time: a root over F_{3^12},
    # 531441 elements, allocates nothing of the field's size
    import tracemalloc
    from p1covers.poly import _split_root, raw_mul
    S = make_field(3, 12)
    f = raw_mul(S, [S.neg(5), 1], [S.neg(1234), 1])
    tracemalloc.start()
    try:
        assert _split_root(S, f) in (5, 1234)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("p,m", [(3, 6), (2, 9)])
def test_raw_layer_agrees_without_tables(p, m, monkeypatch):
    # the same raw loops on a tabled field and on a copy of it built above
    # the table limit, whose stand-ins compute every entry
    from p1covers import field
    from p1covers.poly import (_roots_of_split_product, _trace_mod, raw_axpy, raw_divrem,
                               raw_eval, raw_factor_sqf, raw_gcd, raw_kernel, raw_mul,
                               raw_neg, raw_pow_mod, raw_quo_root, raw_rank, raw_rref,
                               raw_sqf_list, raw_sub)
    T = make_field(p, m)
    make_field(p)  # interned with its tables before the limit drops
    monkeypatch.setattr(field, "TABLE_LIMIT", 0)
    S = field.FieldSpec(p, m, T.modulus)
    assert isinstance(T._mul_t, list) and not isinstance(S._mul_t, list)
    rng = random.Random(p ** m)

    def poly(deg):
        return [rng.randrange(T.order) for _ in range(deg)] + [rng.randrange(1, T.order)]

    for _ in range(12):
        a, b, c = poly(rng.randrange(7)), poly(rng.randrange(5)), poly(rng.randrange(1, 4))
        ac, bc = raw_mul(T, a, c), raw_mul(T, b, c)
        assert raw_mul(S, a, b) == raw_mul(T, a, b)
        assert raw_divrem(S, ac, b) == raw_divrem(T, ac, b)
        # subtraction adds the negation, and division folds the sign into
        # its multiplier: a = quo c + rem with deg rem < deg c, c not monic
        assert raw_sub(S, a, ac) == raw_sub(T, a, ac) == raw_add(T, a, raw_neg(T, ac))
        assert raw_sub(S, ac, ac) == [] == raw_sub(T, ac, ac)
        quo, rem = raw_divrem(T, a, c)
        assert raw_divrem(S, a, c) == (quo, rem) and len(rem) < len(c)
        assert raw_add(T, raw_mul(T, quo, c), rem) == a
        assert raw_gcd(S, ac, bc) == raw_gcd(T, ac, bc)
        x = rng.randrange(T.order)
        assert raw_eval(S, ac, x) == raw_eval(T, ac, x)
        f = raw_mul(T, ac, raw_mul(T, b, b))
        for _ in range(p - 1):
            f = raw_mul(T, f, c)  # a * b^2 * c^p: every branch of the recursion
        assert raw_sqf_list(S, f) == raw_sqf_list(T, f)
        for fac, _ in raw_sqf_list(T, ac):
            assert raw_factor_sqf(S, fac) == raw_factor_sqf(T, fac)
        # the untabled copy powers on packed residues, the tabled field by
        # raw_mul and raw_rem
        e = rng.choice([0, 1, 2, T.order, rng.randrange(1 << 24)])
        assert raw_pow_mod(S, a, e, c) == raw_pow_mod(T, a, e, c)
        assert raw_pow_mod(S, b, e, ac) == raw_pow_mod(T, b, e, ac)
        terms = S.m * (len(c) - 1)
        # reduced, unreduced (deg a >= deg c) and a multiple of c, whose trace is 0
        for r in (raw_rem(T, a, c), a, raw_mul(T, a, c), ac):
            assert _trace_mod(S, r, c, terms) == _trace_mod(T, r, c, terms)
        assert _trace_mod(T, ac, c, terms) == [] == _trace_mod(S, ac, c, terms)
        assert (_trace_mod(T, raw_add(T, a, raw_mul(T, b, c)), c, terms)
                == _trace_mod(T, raw_rem(T, a, c), c, terms))
        # root extraction: synthetic division and the roots of a product
        # of distinct linear factors, scanned on T, split on its copy
        roots = rng.sample(range(T.order), rng.randrange(1, 5))
        f = [rng.randrange(1, T.order)]
        for r in roots:
            f = raw_mul(T, f, [T.neg(r), 1])
        assert raw_quo_root(S, f, roots[0]) == raw_quo_root(T, f, roots[0])
        assert _roots_of_split_product(S, S, f) == _roots_of_split_product(T, T, f) \
            == sorted(roots)
    for _ in range(12):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 7)
        rows = [[rng.randrange(T.order) for _ in range(ncols)] for _ in range(nrows)]
        k = rng.randrange(1, T.order)
        rows.append([T.add(x, T.mul(k, y)) for x, y in zip(rows[0], rows[-1])])
        rows.append([0] * ncols)
        axpy = [T.add(x, T.mul(k, y)) for x, y in zip(rows[0], rows[1])]
        assert raw_axpy(S, rows[0], k, rows[1]) == raw_axpy(T, rows[0], k, rows[1]) == axpy
        # elimination folds the sign into the row multiplier: the two added
        # rows add no rank, row rank is column rank, and each kernel vector
        # is orthogonal to every row
        cols = [list(col) for col in zip(*rows)]
        rank = raw_rank(T, rows[:nrows], ncols)
        assert raw_rank(S, rows, ncols) == raw_rank(T, rows, ncols) == rank \
            == raw_rank(S, cols, len(rows)) == raw_rank(T, cols, len(rows))
        assert raw_rref(S, rows, ncols) == raw_rref(T, rows, ncols)
        kernel = raw_kernel(T, rows, ncols)
        assert raw_kernel(S, rows, ncols) == kernel and len(kernel) == ncols - rank
        assert not any(reduce(T.add, map(T.mul, row, v), 0) for row in rows for v in kernel)


@pytest.mark.parametrize("p,m", [(3, 2), (3, 4), (7, 4), (2, 12)])
def test_quo_root_is_exact_division(p, m):
    # one synthetic-division pass: quotient times (x - r) gives a back, in
    # tabled and untabled fields, and a non-root leaves a remainder
    from p1covers.poly import raw_quo_root
    S = make_field(p, m)
    rng = random.Random(p ** m)
    for deg in (0, 1, 2, 5, 9):
        b = [rng.randrange(S.order) for _ in range(deg)] + [rng.randrange(1, S.order)]
        r = rng.randrange(S.order)
        a = raw_mul(S, b, [S.neg(r), 1])
        assert raw_quo_root(S, a, r) == b
        assert raw_mul(S, raw_quo_root(S, a, r), [S.neg(r), 1]) == a
        others = [c for c in rng.sample(range(S.order), 8) if raw_eval(S, a, c)]
        for c in others[:2]:
            with pytest.raises(ArithmeticError):
                raw_quo_root(S, a, c)
    with pytest.raises(ArithmeticError):
        raw_quo_root(S, [1], 0)


def _pow_mod_by_raw_mul(S, base, e, mod):
    # plain square-and-multiply on the raw layer, the packed kernel's oracle
    result, base = raw_rem(S, [1], mod), raw_rem(S, list(base), mod)
    while e:
        if e & 1:
            result = raw_rem(S, raw_mul(S, result, base), mod)
        base = raw_rem(S, raw_mul(S, base, base), mod)
        e >>= 1
    return result


@pytest.mark.parametrize("p,m", [(3, 1), (2, 3), (5, 2), (3, 6), (2, 9)])
def test_tabled_pow_mod_matches_repeated_multiplication(p, m):
    # the tabled loop squares and multiplies from the top bit down; it
    # returns the trimmed residue of base^e, [1] for e = 0 and [] for a
    # constant modulus, also for a base with trailing zero codes
    S = make_field(p, m)
    q = S.order
    assert S.tabled
    rng = random.Random(q)
    for k in (0, 1, 2, 3, 5):
        h = [rng.randrange(q) for _ in range(k)] + [rng.randrange(1, q)]
        base = [rng.randrange(q) for _ in range(k + rng.randrange(4))] + [rng.randrange(1, q)]
        want = raw_rem(S, [1], h)
        for e in range(2 * q + 2):
            got = raw_pow_mod(S, base + [0, 0], e, h)
            assert got == want == raw_pow_mod(S, base, e, h), (k, e)
            assert not got or got[-1]
            want = raw_rem(S, raw_mul(S, want, base), h)
    assert raw_pow_mod(S, [0, 1], 0, [1]) == [] and raw_pow_mod(S, [0, 1], 0, [0, 1]) == [1]


def test_tabled_pow_mod_squares_once_per_bit(monkeypatch):
    # e = q = 3, every raw_ddf step over F_3: two products, not four
    from p1covers import poly
    S = make_field(3)
    calls = []

    def counted(F, a, b):
        calls.append(1)
        return raw_mul(F, a, b)

    monkeypatch.setattr(poly, "raw_mul", counted)
    h = [1, 2, 0, 1]
    assert poly.raw_pow_mod(S, [0, 1], 3, h) == raw_rem(S, [0, 0, 0, 1], h)
    assert len(calls) == 2


def test_binary_splitters_try_basis_codes_first(monkeypatch):
    # over F_{2^12} the trace is F_2-linear in b, so some u^j, code 2^j,
    # splits a product of distinct linear factors: a root set whose
    # differences have zero trace against 1, u, ..., u^8 is still split
    # within a few candidates
    from p1covers import poly
    S = make_field(2, 12)
    f = [1]
    for r in (5, 1234, 77, 4000):
        f = raw_mul(S, f, [S.neg(r), 1])
    calls = []
    trace_mod = poly._trace_mod

    def counted(F, a, h, terms):
        calls.append(list(a))
        return trace_mod(F, a, h, terms)

    monkeypatch.setattr(poly, "_trace_mod", counted)
    assert poly._split_root(S, f) in (5, 1234, 77, 4000)
    assert len(calls) <= 24
    assert all(len(a) == 2 for a in calls)          # degree-1 candidates b x only


@pytest.mark.parametrize("p,m,degrees", [
    (7, 4, range(1, 11)), (7, 8, (1, 2, 4, 6)), (3, 8, (1, 2, 3, 7)),
    (2, 12, (1, 2, 4, 8)), (5, 6, (1, 3, 5, 9)), (13, 12, (1, 2, 5))])
def test_packed_pow_mod_matches_square_and_multiply(p, m, degrees):
    # above the table limit raw_pow_mod and _trace_mod run on packed
    # residues; moduli monic and not, bases of degree at least the modulus's
    from p1covers.poly import _trace_mod
    S = make_field(p, m)
    q = S.order
    assert not S.tabled
    rng = random.Random(p ** m)
    for k in degrees:
        h = [rng.randrange(q) for _ in range(k)] + [1 if k % 2 else rng.randrange(2, q)]
        base = [rng.randrange(q) for _ in range(k + rng.randrange(4))] + [rng.randrange(1, q)]
        for e in (0, 1, 2, q, (q ** k - 1) // 2):
            assert raw_pow_mod(S, base, e, h) == _pow_mod_by_raw_mul(S, base, e, h), (k, e)
        want, a = [], raw_rem(S, base, h)
        for _ in range(m * k):
            want, a = raw_add(S, want, a), raw_rem(S, raw_mul(S, a, a), h)
        assert _trace_mod(S, base, h, m * k) == want


def test_packed_residue_slots_hold_the_largest_sums():
    # p = 13, m = 12, k = 10, the largest case: the slot width holds the
    # bound on a slot sum, and a product of residues whose digits are all
    # p - 1, modulo a modulus whose digits are too, comes out right
    from p1covers.field import _PackedResidues
    p, m, k = 13, 12, 10
    S = make_field(p, m)
    top = S.order - 1                                  # every digit p - 1
    h = [top] * k + [1]
    R = _PackedResidues(S, h)
    assert (2 * k - 1) * m * (p - 1) ** 2 + (m - 1) * (p - 1) ** 2 < 1 << R.bits
    assert R.width == (2 * m - 1) * R.bits
    a = [top] * k
    assert R.unpack(R.mul(R.pack(a), R.pack(a))) == raw_rem(S, raw_mul(S, a, a), h)


@pytest.mark.parametrize("p,m,r", [(13, 1, 3), (2, 1, 12), (5, 2, 3)])
def test_split_skips_base_field_candidates(p, m, r, monkeypatch):
    # one Frobenius orbit over F_{p^m}, the roots of an irreducible of
    # degree r, in the untabled F_{p^(m r)}: no degree-1 splitter candidate
    # from the base field's image is tried, since it takes one value on
    # the whole orbit, and the roots still all come out
    from p1covers import poly
    S, T = make_field(p, m), make_field(p, m * r)
    assert S.tabled and not T.tabled
    if m == 1:
        P = list(T.modulus)
    else:
        rng = random.Random(p * m * r)
        P = []
        while not (P and poly.raw_factor_sqf(S, P) == [P]):
            P = [rng.randrange(S.order) for _ in range(r)] + [1]
    base = {T.embed_code(c, S) for c in range(S.order)}
    tried = []
    pow_mod, trace_mod = poly.raw_pow_mod, poly._trace_mod

    def recorded_pow(F, a, e, mod):
        tried.append(list(a))
        return pow_mod(F, a, e, mod)

    def recorded_trace(F, a, h, terms):
        tried.append(list(a))
        return trace_mod(F, a, h, terms)

    monkeypatch.setattr(poly, "raw_pow_mod", recorded_pow)
    monkeypatch.setattr(poly, "_trace_mod", recorded_trace)
    Pt = poly.raw_embed(S, T, P)
    roots = poly._roots_of_split_product(S, T, Pt)
    assert tried                                    # the split path ran
    linear = [a for a in tried if len(a) == 2]
    assert linear
    assert not [a for a in linear if (a[1] if p == 2 else a[0]) in base]
    assert len(roots) == r and all(poly.raw_eval(T, Pt, c) == 0 for c in roots)
    # roots in the base field itself: nothing is skipped, and the split works
    f = poly.raw_mul(T, [T.neg(5), 1], [T.neg(1234), 1])
    assert poly._roots_of_split_product(T, T, f) == [5, 1234]
    assert poly._split_root(T, f) in (5, 1234)


@pytest.mark.parametrize("p,m,r", [(3, 1, 5), (2, 1, 8), (2, 2, 4), (7, 1, 3), (2, 3, 3),
                                   (5, 1, 4), (5, 2, 2), (3, 1, 6), (3, 2, 3)])
def test_split_product_roots_scan_and_split_agree(p, m, r, monkeypatch):
    # products of one to three distinct irreducibles of degree r over F_{p^m},
    # in F_{p^(m r)} with 243 to 729 elements: the tabled code scan, a scan
    # of every code and the per-orbit split of an untabled copy agree
    from p1covers import field
    from p1covers.poly import (_roots_of_split_product, raw_deriv, raw_embed, raw_eval,
                               raw_factor_sqf, raw_gcd, raw_mul, raw_sqf_list,
                               raw_sqf_roots)
    S, T = make_field(p, m), make_field(p, m * r)
    make_field(p)  # interned with its tables before the limit drops
    monkeypatch.setattr(field, "TABLE_LIMIT", 0)
    U = field.FieldSpec(p, m * r, T.modulus)
    monkeypatch.undo()  # no field made below is cached without tables
    assert T.tabled and not U.tabled
    rng = random.Random(1000 * p + 10 * m + r)
    irreducibles = set()
    while len(irreducibles) < 6:
        P = [rng.randrange(S.order) for _ in range(r)] + [1]
        if len(raw_gcd(S, P, raw_deriv(S, P))) == 1 and raw_factor_sqf(S, P) == [P]:
            irreducibles.add(tuple(P))
    irreducibles = sorted(irreducibles)
    for n in (1, 2, 3):
        g = [1]
        for P in rng.sample(irreducibles, n):
            g = raw_mul(S, g, list(P))
        gt = raw_embed(S, T, g)
        roots = _roots_of_split_product(S, T, gt)
        assert len(roots) == n * r
        assert roots == [c for c in range(T.order) if raw_eval(T, gt, c) == 0]
        assert _roots_of_split_product(S, U, gt) == roots
        f = raw_mul(S, g, raw_mul(S, g, list(irreducibles[0])))
        want, residual = roots_with_multiplicity(Poly._raw(S, f), r)
        assert raw_sqf_roots(S, raw_sqf_list(S, f), r) == (
            T, [(pt.code, e) for pt, e in want], list(residual.c))
        assert all(pt.spec == T for pt, _ in want)
        assert sum(e for _, e in want) == len(f) - 1


def test_roots_mixed_degrees_partial_split():
    # exact degrees 2 and 3 need F_9 and F_27; no single extension of
    # degree <= 4 holds both, so the smaller-mass factor stays residual
    quad = Poly.parse("x^2 + 1", F3)
    cubic = Poly.parse("x^3 + 2*x + 1", F3)          # irreducible over F_3
    a = quad * cubic
    roots, residual = roots_with_multiplicity(a, 4)
    assert residual == quad or residual == cubic
    target = roots[0][0].spec
    prod = Poly.one(target)
    for r, m in roots:
        prod = prod * (Poly.x(target) - Poly.constant(target, r.code)) ** m
    assert prod * residual.embed(target) == a.embed(target)
    # with max_ext = 6 everything fits in F_{3^6}
    roots6, residual6 = roots_with_multiplicity(a, 6)
    assert residual6 == Poly.one(F3) and len(roots6) == 5


def test_roots_over_nonprime_base_vanish():
    # the discriminant of this cover over F_9 has irreducible factors of
    # degrees 2 and 4: the quadratic's roots are found in F_81 and carried
    # into F_{3^8}, which must agree with the direct F_9 -> F_{3^8} embedding
    cov = Cover.parse("[2*u]*x^3 + [2*u + 1]*x^2 + 2*x + 2 / "
                      "[u + 1]*x^4 + [u]*x^3 + x^2 + 2*x + [u + 1]", F9)
    disc = cov.discriminant()
    roots, residual = roots_with_multiplicity(disc, 4)
    assert residual == Poly.one(F9) and len(roots) == 6
    assert roots[0][0].spec.order == 3 ** 8
    for r, _ in roots:
        assert disc.evaluate(r).code == 0


def test_roots_reconstruct_input_nonprime_base():
    rng = random.Random(5)
    for spec in (F4, F9):
        for _ in range(12):
            a = rand_poly(spec, rng.randrange(2, 6), rng)
            if a.is_zero() or a.degree() < 1:
                continue
            roots, residual = roots_with_multiplicity(a, 4)
            target = roots[0][0].spec if roots else spec
            prod = Poly.one(target)
            for r, m in roots:
                assert a.evaluate(r).code == 0
                prod = prod * (Poly.x(target) - Poly.constant(target, r.code)) ** m
            lc = Poly.constant(target, target.embed_code(a.leading_coefficient().code, spec))
            assert prod * residual.embed(target) * lc == a.embed(target)


def test_roots_zero_input():
    with pytest.raises(InputError):
        roots_with_multiplicity(Poly.zero(F3), 2)


def test_kernel_examples():
    eye = FieldMatrix(F3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert kernel_basis(eye) == []
    zero = FieldMatrix(F3, [[0, 0, 0], [0, 0, 0]], ncols=3)
    assert len(kernel_basis(zero)) == 3
    m = FieldMatrix(F3, [[1, 0, 0], [0, 0, 0], [0, 0, 2]])
    vecs = kernel_basis(m)
    assert len(vecs) == 1
    assert [e.code for e in vecs[0]] == [0, 1, 0]


def brute_nullity(spec, rows, ncols):
    count = 0
    for vec in iproduct(range(spec.order), repeat=ncols):
        if all(
            _dot(spec, row, vec) == 0 for row in rows
        ):
            count += 1
    dim = 0
    while spec.order ** dim < count:
        dim += 1
    assert spec.order ** dim == count
    return dim


def _dot(spec, row, vec):
    acc = 0
    for a, b in zip(row, vec):
        acc = spec.add(acc, spec.mul(a, b))
    return acc


@pytest.mark.parametrize("spec", [F2, F3, F9])
def test_kernel_matches_brute_force(spec):
    rng = random.Random(spec.order)
    for _ in range(15):
        nrows = rng.randrange(1, 5)
        ncols = rng.randrange(1, 5)
        rows = [[rng.randrange(spec.order) for _ in range(ncols)] for _ in range(nrows)]
        M = FieldMatrix(spec, rows, ncols=ncols)
        vecs = kernel_basis(M)
        assert len(vecs) == brute_nullity(spec, rows, ncols)
        for v in vecs:
            codes = [e.code for e in v]
            assert all(_dot(spec, row, codes) == 0 for row in rows)


def test_rank_over_kX_examples():
    X = Poly.parse("x", F3)     # the variable X, printed as x here
    zero, one = Poly.zero(F3), Poly.one(F3)
    M = PolyMatrix(F3, [[X, zero, zero], [zero, zero, zero], [zero, zero, one]])
    rank, kernel = rank_over_kX(M)
    assert rank == 2
    assert len(kernel) == 1
    assert [str(e) for e in kernel[0]] == ["0", "1", "0"]

    Z = PolyMatrix(F3, [[zero, zero], [zero, zero]])
    assert rank_over_kX(Z)[0] == 0

    # matrix of the twisted derivative for f = x over F_3
    two = Poly.constant(F3, 2)
    T = PolyMatrix(F3, [[one, zero, zero], [zero, zero, zero], [zero, zero, two]])
    rank, kernel = rank_over_kX(T)
    assert rank == 2 and [str(e) for e in kernel[0]] == ["0", "1", "0"]


def test_rank_over_kX_kernel_property():
    rng = random.Random(9)
    for _ in range(25):
        nrows, ncols = rng.randrange(1, 4), rng.randrange(1, 4)
        rows = [[rand_poly(F3, rng.randrange(3), rng) if rng.random() < 0.8 else Poly.zero(F3)
                 for _ in range(ncols)] for _ in range(nrows)]
        M = PolyMatrix(F3, rows)
        rank, kernel = rank_over_kX(M)
        assert rank + len(kernel) == ncols
        for v in kernel:
            assert any(not e.is_zero() for e in v)
            for row in rows:
                acc = Poly.zero(F3)
                for e, r in zip(v, row):
                    acc = acc + e * r
                assert acc.is_zero()


def test_parse_print_round_trip():
    cases = ["x^4 + 2", "2*x + 1", "x", "0", "2", "x^6 + x^3"]
    for s in cases:
        poly = Poly.parse(s, F3)
        assert str(poly) == s
        assert Poly.parse(str(poly), F3) == poly
    e = Poly.parse("[u+1]*x^2 + 2*x + 1", F9)
    assert Poly.parse(str(e), F9) == e
    assert Poly.parse("x ^ 4   +  2", F3) == Poly.parse("x^4+2", F3)
    assert Poly.parse("x^2 - 1", F3) == Poly.parse("x^2 + 2", F3)


def test_parse_round_trip_random():
    rng = random.Random(4)
    for spec in (F3, F9, F2):
        for _ in range(50):
            poly = rand_poly(spec, rng.randrange(7), rng)
            assert Poly.parse(str(poly), spec) == poly


@pytest.mark.parametrize("bad", [
    "", "x^-2", "x^2 +", "y + 1", "2x", "[u+1]x",
    # these made the element reader raise ValueError before every reader
    # shared field._sum_terms
    "[a*u]", "[u^x]", "[u^-1]", "[u^]", "[abc]", "[]", "[u+[1]]",
    # an exponent above field.MAX_EXPONENT, rejected before any allocation
    "x^1000000000"])
def test_parse_errors(bad, capsys):
    for read in (F9.parse_element, lambda s: Poly.parse(s, F9),
                 lambda s: Cover.parse(s, F9), lambda s: Poly.parse(f"{s}*x + 1", F9)):
        with pytest.raises(InputError):
            read(bad)
    assert main(["disc", bad, "--p", "3", "--ext", "2"]) == 2
    assert main(["disc", f"{bad}*x + 1", "--p", "3", "--ext", "2"]) == 2
    assert capsys.readouterr().out == ""


def test_poly_evaluate_and_embed():
    f = Poly.parse("x^2 + 1", F3)
    assert f.evaluate(F3.element(1)).code == 2
    u = F9.element(3)
    assert f.evaluate(u).code == 0          # u^2 + 1 = 0
    g = f.embed(F9)
    assert g.spec is F9 and g.degree() == 2


def _substitute_by_power_lists(S, P, n, a, b, c, e):
    """(cx + e)^n P((ax + b)/(cx + e)) as the sum of P_i (ax + b)^i (cx + e)^(n-i)."""
    A, C = raw_trim([b, a]), raw_trim([e, c])
    apows, cpows = [[1]], [[1]]
    for _ in range(n):
        apows.append(raw_mul(S, apows[-1], A))
        cpows.append(raw_mul(S, cpows[-1], C))
    out = []
    for i, coef in enumerate(P):
        if coef:
            out = raw_add(S, out, raw_scale(S, raw_mul(S, apows[i], cpows[n - i]), coef))
    return out


def _substitution_cases(S, rng):
    """(P, n, (a, b, c, e)): random ones plus P = [], deg P < n, c = 0 with
    e != 1, a root of P at the map's image of infinity (the result drops
    in degree) and a pole of the map at which the result vanishes."""
    q = S.order

    def poly(deg):
        return raw_trim([rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)])

    def invertible(c=None):
        while True:
            m = [rng.randrange(q) for _ in range(4)]
            if c is not None:
                m[2] = c
            if S.sub(S.mul(m[0], m[3]), S.mul(m[1], m[2])):
                return tuple(m)

    out = []
    for _ in range(12):
        n = rng.randint(0, 6)
        out.append((poly(rng.randint(0, n)), n, invertible()))
    out.append(([], 4, invertible(1)))
    out.append(([], 3, invertible(0)))
    out.append((poly(2), 5, invertible(1)))
    if q > 2:
        e = rng.randrange(2, q)
        out.append((poly(3), 4, (rng.randrange(1, q), rng.randrange(q), 0, e)))
    r = rng.randrange(q)                        # P(r) = 0 and the map sends inf to r
    P = raw_mul(S, [S.neg(r), 1], poly(2))
    b = next(b for b in range(q) if S.sub(r, b))
    out.append((P, 4, (r, b, 1, 1)))
    out.append((poly(1), 3, (1, 0, 1, S.neg(r))))   # -r goes to inf, deg P < n
    return out


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2),
                                 (7, 4), (3, 7), (2, 10)])
def test_mobius_substitute_matches_power_lists_and_values(p, m):
    S = make_field(p, m)
    rng = random.Random(100 * p + m)
    q = S.order
    # every point of a small field; a sample above 81 elements
    xs = range(q) if q <= 81 else rng.sample(range(q), 40)
    for P, n, (a, b, c, e) in _substitution_cases(S, rng):
        got = raw_mobius_substitute(S, list(P), n, a, b, c, e)
        assert got == _substitute_by_power_lists(S, P, n, a, b, c, e)
        assert len(got) <= n + 1 and (not got or got[-1])
        for x in xs:
            den = S.add(S.mul(c, x), e)
            if den:
                y = S.div(S.add(S.mul(a, x), b), den)
                assert raw_eval(S, got, x) == S.mul(S.pow_code(den, n), raw_eval(S, P, y))
        for t in [0, 1, rng.randrange(q)]:
            shifted = raw_translate(S, P, t)
            assert len(shifted) == len(P) and shifted[-1:] == list(P[-1:])
            for x in xs[:20]:
                assert raw_eval(S, shifted, x) == raw_eval(S, P, S.add(x, t))
