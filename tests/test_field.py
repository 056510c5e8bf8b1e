"""Field construction, arithmetic, Frobenius, embeddings, text format."""

import hashlib
import random
from array import array
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from p1covers import (InputError, arith, elements, embed, frobenius, make_field,
                      FieldElement)
from p1covers import field
from p1covers.field import TABLE_LIMIT

TABLED = [(p, m) for p in (2, 3, 5, 7, 11, 13) for m in range(1, 10)
          if p ** m <= TABLE_LIMIT]


def brute_irreducible(p, coeffs):
    """Trial division by every monic polynomial of degree 1..deg/2."""
    from itertools import product as iproduct

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    def rem(a, b):
        a = list(a)
        while len(a) >= len(b) and any(a):
            while a and a[-1] == 0:
                a.pop()
            if len(a) < len(b):
                break
            f = a[-1]  # b monic
            k = len(a) - len(b)
            for j, c in enumerate(b):
                a[k + j] = (a[k + j] - f * c) % p
            while a and a[-1] == 0:
                a.pop()
        return a

    n = len(coeffs) - 1
    for deg in range(1, n // 2 + 1):
        for tail in iproduct(range(p), repeat=deg):
            div = list(tail) + [1]
            if not rem(coeffs, div):
                return False
    return True


def least_irreducible_oracle(p, m):
    from itertools import product as iproduct
    for tail in iproduct(range(p), repeat=m):
        coeffs = list(tail) + [1]
        if brute_irreducible(p, coeffs):
            return tuple(coeffs)
    raise AssertionError("no irreducible found")


def test_make_field_prime():
    F3 = make_field(3)
    assert F3.p == 3 and F3.m == 1 and F3.modulus is None


def test_make_field_moduli_examples():
    assert make_field(3, 2).modulus == (1, 0, 1)      # x^2 + 1
    assert make_field(2, 2).modulus == (1, 1, 1)      # x^2 + x + 1


@pytest.mark.parametrize("p,m", [(p, m) for p, m in TABLED if m > 1]
                         + [(2, 10), (2, 12), (3, 7), (3, 8), (5, 6), (7, 4), (13, 4)])
def test_modulus_is_least_irreducible(p, m):
    assert make_field(p, m).modulus == least_irreducible_oracle(p, m)


# beyond the oracle's reach: F_{13^12} alone has 13^11 candidates with
# constant term 0 ahead of its modulus in the search order
PINNED_MODULI = {
    (5, 12): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 4, 1),
    (7, 10): (1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1),
    (11, 8): (1, 0, 0, 0, 0, 0, 0, 4, 1),
    (13, 6): (1, 0, 0, 0, 0, 1, 1),
    (11, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
    (7, 12): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 3, 1),
    (11, 12): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 5, 1),
    (13, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 6, 1),
    (13, 12): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1),
}


@pytest.mark.parametrize("p,m", sorted(PINNED_MODULI))
def test_large_moduli_pinned(p, m, monkeypatch):
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    from p1covers import field
    drawn = []

    def counting_product(*ranges, **kw):
        for t in product(*ranges, **kw):
            drawn.append(t)
            yield t

    monkeypatch.setattr(field, "product", counting_product)
    modulus = field._least_irreducible(p, m)
    assert modulus == PINNED_MODULI[(p, m)]
    assert gf_irreducible_p(list(reversed(modulus)), p, ZZ)
    assert drawn and all(t[0] for t in drawn)  # no candidate divisible by x


def test_make_field_deterministic_and_interned():
    a = make_field(5, 3)
    b = make_field(5, 3)
    assert a is b
    assert a.modulus == b.modulus


def test_make_field_validation(monkeypatch):
    with pytest.raises(InputError):
        make_field(4)
    with pytest.raises(InputError):
        make_field(1)
    with pytest.raises(InputError):
        make_field(17)          # above the prime limit
    monkeypatch.setattr(field, "PRIME_LIMIT", 17)
    make_field(17)
    with pytest.raises(InputError):
        make_field(3, 0)
    with pytest.raises(InputError):
        make_field(3, 13)


def test_arith_examples():
    F3 = make_field(3)
    two = F3.element(2)
    assert (two * two).code == 1
    assert (F3.one() / two).code == 2
    F9 = make_field(3, 2)
    u = F9.element(3)
    assert (u * u).code == 2
    assert arith(two, two, "mul").code == 1


def test_arith_errors():
    F3, F5 = make_field(3), make_field(5)
    with pytest.raises(InputError):
        arith(F3.one(), F5.one(), "add")
    with pytest.raises(ZeroDivisionError):
        F3.one() / F3.zero()
    with pytest.raises(InputError):
        arith(F3.one(), F3.one(), "pow")


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_field_axioms_sampled(p, m):
    spec = make_field(p, m)
    rng = random.Random(p * 100 + m)
    for _ in range(200):
        a, b, c = (FieldElement(spec, rng.randrange(spec.order)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if a.code:
            assert (a * (spec.one() / a)).code == 1
        assert (a - b) + b == a


def test_frobenius_examples():
    F9 = make_field(3, 2)
    u = F9.element(3)
    assert frobenius(u) == F9.element(6)           # 2u
    assert frobenius(frobenius(u)) == u
    F3 = make_field(3)
    assert frobenius(F3.element(2)) == F3.element(2)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_frobenius_is_field_automorphism(p, m):
    spec = make_field(p, m)
    for a in elements(spec):
        acc = a
        for _ in range(m):
            acc = frobenius(acc)
        assert acc == a
    rng = random.Random(7)
    for _ in range(100):
        a = FieldElement(spec, rng.randrange(spec.order))
        b = FieldElement(spec, rng.randrange(spec.order))
        assert frobenius(a + b) == frobenius(a) + frobenius(b)
        assert frobenius(a * b) == frobenius(a) * frobenius(b)


def test_embed_prime_subfield_and_identity():
    F3, F9 = make_field(3), make_field(3, 2)
    assert embed(F3.element(2), F9).code == 2
    x = F3.element(1)
    assert embed(x, F3) == x


def test_embed_least_root():
    F9, F81 = make_field(3, 2), make_field(3, 4)
    img = embed(F9.element(3), F81)     # image of u, a root of x^2 + 1
    assert (img * img).code == 2        # squares to -1
    # least root: no smaller element of F81 is a root of x^2 + 1
    for code in range(img.code):
        cand = FieldElement(F81, code)
        if (cand * cand).code == 2:
            raise AssertionError("embedding did not pick the least root")


def test_embed_is_ring_homomorphism_exhaustive():
    F4, F16 = make_field(2, 2), make_field(2, 4)
    for a in elements(F4):
        for b in elements(F4):
            assert embed(a * b, F16) == embed(a, F16) * embed(b, F16)
            assert embed(a + b, F16) == embed(a, F16) + embed(b, F16)
    imgs = {embed(a, F16).code for a in elements(F4)}
    assert len(imgs) == 4               # injective


def test_embed_degree_check():
    F9, F27 = make_field(3, 2), make_field(3, 3)
    with pytest.raises(InputError):
        embed(F9.element(3), F27)


def test_embed_large_field_splitting_paths():
    # beyond the table limit: char-2 trace splitting and odd-p powering
    F8, F4096 = make_field(2, 3), make_field(2, 12)
    w = embed(F8.element(2), F4096)     # image of the generator of F8
    acc = FieldElement(F4096, 0)
    for c in reversed(F8.modulus):
        acc = acc * w + FieldElement(F4096, c)
    assert acc.code == 0
    conj = [w]
    cur = w
    for _ in range(2):
        cur = frobenius(cur)
        conj.append(cur)
    assert w.code == min(e.code for e in conj)

    F9, F95 = make_field(3, 2), make_field(3, 10)
    v = embed(F9.element(3), F95)
    assert (v * v).code == 2
    rng = random.Random(11)
    for _ in range(50):
        a = FieldElement(F9, rng.randrange(9))
        b = FieldElement(F9, rng.randrange(9))
        assert embed(a * b, F95) == embed(a, F95) * embed(b, F95)


def test_elements_order():
    assert [e.code for e in elements(make_field(2))] == [0, 1]
    assert [e.code for e in elements(make_field(3))] == [0, 1, 2]
    F4 = make_field(2, 2)
    assert [str(e) for e in elements(F4)] == ["0", "1", "[u]", "[u + 1]"]
    assert len(elements(make_field(3, 2))) == 9


def test_element_text_round_trip():
    for spec in (make_field(3), make_field(3, 2), make_field(2, 3)):
        for e in elements(spec):
            assert spec.parse_element(str(e)) == e
    F9 = make_field(3, 2)
    assert F9.parse_element("[2*u+1]").code == 2 * 3 + 1
    assert F9.parse_element(" [ u + 2 ] ").digits() == (2, 1)
    assert F9.parse_element("2").code == 2


def test_element_parse_errors():
    F9 = make_field(3, 2)
    with pytest.raises(InputError):
        F9.parse_element("[u^2]")
    with pytest.raises(InputError):
        F9.parse_element("[u")
    with pytest.raises(InputError):
        make_field(3).parse_element("[u]")
    with pytest.raises(InputError):
        F9.parse_element("abc")


def test_element_comparisons_and_hash():
    F9 = make_field(3, 2)
    a = F9.element(5)
    assert a == FieldElement(F9, 5)
    assert hash(a) == hash(FieldElement(F9, 5))
    assert F9.element(2) < a
    assert bool(F9.zero()) is False and bool(a) is True


def element_text(spec, code):
    """The element grammar written out from decode: nonzero digits from the
    top, 'c*u^k' with the 1 and the ^1 dropped, bracketed unless constant."""
    digits = spec.decode(code)
    if not any(digits[1:]):
        return str(digits[0])
    terms = []
    for k in reversed(range(spec.m)):
        c = digits[k]
        if c:
            power = "" if k == 0 else "u" if k == 1 else f"u^{k}"
            terms.append(str(c) if not power else power if c == 1 else f"{c}*{power}")
    return "[" + " + ".join(terms) + "]"


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4),
                                 (5, 3), (3, 5), (7, 3), (5, 4), (3, 6)])
def test_element_str_table_every_code(p, m):
    spec = make_field(p, m)
    assert spec.order <= TABLE_LIMIT
    assert [spec.element_str(c) for c in range(spec.order)] == \
        [element_text(spec, c) for c in range(spec.order)]
    assert len(spec._strs) == spec.order  # built on the first call, kept


@pytest.mark.parametrize("p,m", [(2, 12), (7, 4), (3, 8)])
def test_element_str_untabled_sampled(p, m):
    spec = make_field(p, m)
    q = spec.order
    for c in [0, 1, p - 1, p, q - 1, *random.Random(q).sample(range(q), 500)]:
        assert spec.element_str(c) == element_text(spec, c)
        assert str(FieldElement(spec, c)) == element_text(spec, c)
    assert spec._strs is None  # above the limit no string table is kept


def test_element_str_table_is_lazy():
    spec = field.FieldSpec(3, 2, make_field(3, 2).modulus)
    assert spec._strs is None
    assert spec.element_str(5) == "[u + 2]" and len(spec._strs) == 9


def digit_expansion(code, p, m):
    out = []
    for _ in range(m):
        code, r = divmod(code, p)
        out.append(r)
    return tuple(out)


@pytest.mark.parametrize("p,m", TABLED)
def test_tables_match_slow_arithmetic(p, m, monkeypatch):
    # every pair up to 256 elements; above, all columns of a few rows
    spec = make_field(p, m)
    q = spec.order
    if q <= 256:
        rows = range(q)
    else:
        rows = sorted({0, 1, q - 1, *random.Random(q).sample(range(2, q - 1), 16)})
    digits = [digit_expansion(c, p, m) for c in range(q)]
    code = {d: c for c, d in enumerate(digits)}
    assert spec._neg_t == [code[tuple(-x % p for x in d)] for d in digits]
    assert spec._inv_t == [0] + [spec._inv_slow(a) for a in range(1, q)]
    for a in rows:
        da = digits[a]
        assert spec._add_t[a * q:a * q + q] == [
            code[tuple((x + y) % p for x, y in zip(da, db))] for db in digits]
        assert [spec.sub(a, b) for b in range(q)] == [
            code[tuple((x - y) % p for x, y in zip(da, db))] for db in digits]
        assert spec._mul_t[a * q:a * q + q] == [spec._mul_slow(a, b) for b in range(q)]
    if m > 1:
        # the products above read each code as one chunk; a copy built
        # under a zero table limit reads one digit per chunk and computes
        # every entry
        monkeypatch.setattr(field, "TABLE_LIMIT", 0)
        copy = field.FieldSpec(p, m, spec.modulus)
        assert spec._chunks == 1 and copy._chunks == m and not copy.tabled
        for a in rows:
            assert spec._mul_t[a * q:a * q + q] == [copy.mul(a, b) for b in range(q)]


@pytest.mark.parametrize("p,m", TABLED + [(2, 10), (3, 7)])
def test_primitive_powers_list_the_least_generator(p, m):
    # brute force: the order of each of 1, 2, ... by repeated products, up
    # to the first of order q - 1, whose powers the list must hold; the
    # order test finds the same element, and the field keeps its list
    spec = make_field(p, m)
    n = spec.order - 1
    for g in range(1, spec.order):
        powers, x = [1], g
        while x != 1:
            powers.append(x)
            x = spec.mul(x, g)
        if len(powers) == n:
            break
    assert spec._primitive_powers() == powers
    assert spec._primitive_powers() is spec._primitive_powers()


@pytest.mark.parametrize("p,m", [(3, 7), (5, 6), (7, 8), (13, 12)])
def test_decode_caches_match_divmod_expansion(p, m):
    # the chunk tables are each field's one digit and packing cache: every
    # code up to 5^6 elements, above a seeded sample
    spec = make_field(p, m)
    q, bits = spec.order, spec._pack_bits
    if q <= 5 ** 6:
        codes = range(q)
    else:
        codes = [0, q - 1, *random.Random(q).sample(range(1, q - 1), 3000)]
    for c in codes:
        digits = digit_expansion(c, p, m)
        assert spec.decode(c) == digits
        assert spec._packed_code(c) == sum(d << (i * bits) for i, d in enumerate(digits))


def test_chunk_tables_bounded_and_tables_unchanged():
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(1, 13):
            spec = make_field(p, m)
            assert len(spec._chunk_digits) == len(spec._chunk_packs) <= TABLE_LIMIT
            if spec.order <= TABLE_LIMIT:  # one chunk: the whole code
                assert spec._chunks == 1 and len(spec._chunk_digits) == spec.order
    # a pinned digest of the add, mul, neg and inv tables of every tabled
    # field and of its differences a - b in table order: the digit path
    # that builds the tables changes no entry
    h = hashlib.sha256()
    for p, m in TABLED:
        spec = make_field(p, m)
        q = spec.order
        sub = [spec.sub(a, b) for a in range(q) for b in range(q)]
        for t in (spec._add_t, sub, spec._mul_t, spec._neg_t, spec._inv_t):
            h.update(array("H", t).tobytes())
    assert h.hexdigest() == "07f68ed9910bf15d8b2ffaa71096b5ab2ef7931a61b45da5d4f3abd6b9ad01d0"


@pytest.mark.parametrize("p,m", [(3, 7), (2, 11), (7, 8)])
def test_field_axioms_untabled(p, m):
    spec = make_field(p, m)
    element = st.integers(0, spec.order - 1).map(lambda c: FieldElement(spec, c))

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(element, element, element)
    def axioms(a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a.code:
            assert (a * (spec.one() / a)).code == 1
        assert frobenius(a + b) == frobenius(a) + frobenius(b)
        assert frobenius(a * b) == frobenius(a) * frobenius(b)

    axioms()
    assert not spec.tabled and spec._chunks > 1
