"""Covers: construction, discriminants, lengths, group actions,
equivalence, chart normalization."""

import random
from itertools import product as iproduct

import pytest

from p1covers import (Cover, Divisor, FieldElement, INF, InputError, Mobius,
                      Poly, SplitBoundExceeded, elements, equivalent,
                      make_cover, make_field)

F2 = make_field(2)
F3 = make_field(3)
F9 = make_field(3, 2)


def all_mobius(spec):
    out = []
    for a, b, c, d in iproduct(range(spec.order), repeat=4):
        if spec.sub(spec.mul(a, d), spec.mul(b, c)):
            out.append(Mobius.from_codes(spec, a, b, c, d))
    return out


def rand_cover(spec, rng, dmax=4):
    while True:
        d = rng.randrange(1, dmax + 1)
        g = Poly(spec, [rng.randrange(spec.order) for _ in range(d + 1)])
        h = Poly(spec, [rng.randrange(spec.order) for _ in range(d + 1)])
        try:
            cov = Cover(g, h)
        except InputError:
            continue
        if cov.d == d:
            return cov


def test_make_cover_examples():
    cov = make_cover(Poly.parse("x^2", F3), Poly.one(F3))
    assert cov.d == 2
    with pytest.raises(InputError):
        make_cover(Poly.parse("x^2", F2), Poly.one(F2))       # inseparable
    with pytest.raises(InputError):
        make_cover(Poly.parse("x^2 + x", F3), Poly.parse("x + 1", F3))  # common factor


def test_make_cover_degenerate():
    with pytest.raises(InputError):
        make_cover(Poly.zero(F3), Poly.zero(F3))
    with pytest.raises(InputError):
        make_cover(Poly.one(F3), Poly.parse("2", F3))          # degree 0


def test_discriminant_examples():
    assert Cover.parse("x^5 + x", F3).discriminant() == Poly.parse("x^4 + 2", F3)
    assert Cover.parse("x^4", F3).discriminant() == Poly.parse("x^3", F3)
    assert Cover.parse("x^4 / x^3+x+1", F3).discriminant() == Poly.parse("x^6 + x^3", F3)


def test_differential_lengths_examples():
    div = Cover.parse("x^5 + x", F3).differential_lengths(4)
    assert div.multiplicity(INF) == 4
    assert sorted((pt.code, m) for pt, m in div.items() if pt is not INF) == \
        [(1, 1), (2, 1), (3, 1), (6, 1)]          # 1, 2, u, 2u over F_9
    assert div.mass() == 8

    div2 = Cover.parse("x^2+1 / x", F3).differential_lengths(4)
    assert div2.multiplicity(INF) == 0
    assert sorted((pt.code, m) for pt, m in div2.items()) == [(1, 1), (2, 1)]

    div3 = Cover.parse("x^4 / x^3+x+1", F3).differential_lengths(4)
    assert sorted((pt.code, m) for pt, m in div3.items()) == [(0, 3), (2, 3)]


def test_differential_lengths_split_bound():
    cov = Cover.parse("x^3 + 2*x + 1 / x + 2", F3)
    try:
        cov.differential_lengths(1)
    except SplitBoundExceeded as exc:
        assert exc.residual is not None and exc.residual.degree() >= 2
    else:
        # fine if it happens to split over F_3; force an irreducible quartic case
        quart = Cover.parse("x^5 + x", F3)
        with pytest.raises(SplitBoundExceeded):
            quart.differential_lengths(1)


def test_ram_index_examples():
    assert Cover.parse("x^4", F3).ram_index(F3.element(0)) == (4, False)
    assert Cover.parse("x^4 + x^3", F3).ram_index(F3.element(0)) == (3, True)
    one = Cover.parse("x", F3)
    for e in elements(F3):
        assert one.ram_index(e) == (1, False)
    assert one.ram_index(INF) == (1, False)


def test_ram_index_extension_point():
    cov = Cover.parse("x^5 + x", F3)
    u = F9.element(3)
    assert cov.ram_index(u) == (2, False)          # simple branch point


def test_tame_wild_length_consistency():
    rng = random.Random(5)
    for _ in range(25):
        cov = rand_cover(F3, rng)
        try:
            div = cov.differential_lengths(4)
        except SplitBoundExceeded:
            continue
        for pt, l in div.items():
            e, wild = cov.ram_index(pt)
            if wild:
                assert l >= e and e % 3 == 0
            else:
                assert l == e - 1


def reference_ram_index(cov, point):
    """The ramification index as it was first computed: infinity moved to 0
    by x -> 1/x, the cover embedded into the point's field, and x - P
    divided out by long division until a remainder is left."""
    from p1covers.poly import raw_divrem
    if point is INF:
        flipped = cov.precompose(Mobius.from_codes(cov.spec, 0, 1, 1, 0))
        return reference_ram_index(flipped, cov.spec.zero())
    c = cov if point.spec == cov.spec else cov.embed(point.spec)
    h_val = c.h.evaluate(point)
    w = c.g - c.h * (c.g.evaluate(point) / h_val) if h_val else c.h
    S, e, coeffs = c.spec, 0, list(w.c)
    while True:
        q, r = raw_divrem(S, coeffs, [S.neg(point.code), 1])
        if r:
            return e, e % cov.spec.p == 0
        coeffs, e = q, e + 1


def shaped_cover(spec, rng, d, shape):
    """A random cover of degree d with deg h = d ("h"), deg h < d ("g")
    or deg g < d = deg h ("h only")."""
    while True:
        dg = d if shape != "h only" else rng.randrange(d)
        dh = d if shape != "g" else rng.randrange(d)
        g = Poly(spec, [rng.randrange(spec.order) for _ in range(dg)] + [rng.randrange(1, spec.order)])
        h = Poly(spec, [rng.randrange(spec.order) for _ in range(dh)] + [rng.randrange(1, spec.order)])
        try:
            return Cover(g, h)
        except InputError:
            continue


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_ram_index_matches_reference(p, m):
    S = make_field(p, m)
    rng = random.Random(100 * p + m)
    checked = {"inf": 0, "branch": 0, "extension": 0, "unramified": 0}
    for d in range(1, 6):
        for shape in ("h", "g", "h only"):
            for _ in range(3):
                cov = shaped_cover(S, rng, d, shape)
                assert cov.d == d
                assert cov.ram_index(INF) == reference_ram_index(cov, INF)
                checked["inf"] += 1
                try:
                    support = cov.differential_lengths(4).support()
                except SplitBoundExceeded:
                    support = []
                for pt in support:
                    if pt is INF:
                        continue
                    assert cov.ram_index(pt) == reference_ram_index(cov, pt)
                    checked["branch"] += 1
                    checked["extension"] += pt.spec != S
                disc = cov.discriminant()
                calm = [e for e in elements(S) if disc.evaluate(e)]
                for pt in rng.sample(calm, min(3, len(calm))):
                    assert cov.ram_index(pt) == reference_ram_index(cov, pt) == (1, False)
                    checked["unramified"] += 1
    assert all(checked.values()), checked


def test_ram_index_bad_points():
    cov = Cover.parse("x^3 + x / x + 1", F9)
    for bad in ("0", 0, None):
        with pytest.raises(InputError):
            cov.ram_index(bad)
    for alien in (F3.element(1), make_field(3, 3).element(4), F2.element(1)):
        with pytest.raises(InputError):
            reference_ram_index(cov, alien)
        with pytest.raises(InputError):
            cov.ram_index(alien)


def test_postcompose_examples():
    cov = Cover.parse("x^2", F3)
    shifted = cov.postcompose(Mobius.from_codes(F3, 1, 1, 0, 1))
    assert shifted == Cover.parse("x^2 + 1", F3)
    ident = cov.postcompose(Mobius.identity(F3))
    assert ident == cov


def test_precompose_example():
    cov = Cover.parse("x^4", F3)
    moved = cov.precompose(Mobius.from_codes(F3, 1, 1, 1, 0))   # x -> (x+1)/x
    fixed = moved.postcompose(Mobius.from_codes(F3, 0, 1, 1, 2))  # y -> 1/(y-1)
    assert fixed == Cover.parse("x^4 / x^3+x+1", F3)


def test_disc_invariant_under_postcompose():
    rng = random.Random(6)
    mob = all_mobius(F3)
    for _ in range(30):
        cov = rand_cover(F3, rng)
        m = mob[rng.randrange(len(mob))]
        assert cov.postcompose(m).discriminant() == cov.discriminant()


def test_lengths_transport_under_precompose():
    rng = random.Random(7)
    mob = all_mobius(F3)
    for _ in range(20):
        cov = rand_cover(F3, rng, dmax=3)
        m = mob[rng.randrange(len(mob))]
        try:
            before = cov.differential_lengths(4)
        except SplitBoundExceeded:
            continue
        after = cov.precompose(m).differential_lengths(4)
        spec = before.spec or after.spec or F3
        minv = m.inverse().embed(spec) if spec is not F3 else m.inverse()
        transported = before.embed(spec).transport(minv) if before.spec else \
            Divisor([(pt, mult) for pt, mult in before.items()], spec=None).transport(minv)
        assert transported == (after.embed(spec) if after.spec != spec else after)


def test_equivalent_examples():
    w = equivalent(Cover.parse("x^2", F3), Cover.parse("x^2 + 1", F3))
    assert w is not None and w.codes() == (1, 1, 0, 1)
    assert equivalent(Cover.parse("x^2", F3), Cover.parse("x^2 + 2*x + 1", F3)) is None
    assert equivalent(Cover.parse("x^4 + x^3", F3), Cover.parse("x^4 + 2*x^3", F3)) is None


def test_equivalent_under_all_postcompositions():
    cov = Cover.parse("x^2 + 2*x / x + 1", F3)
    for m in all_mobius(F3):
        moved = cov.postcompose(m)
        w = equivalent(cov, moved)
        assert w is not None
        assert cov.postcompose(w) == moved


def test_equivalent_is_equivalence_relation():
    rng = random.Random(8)
    mob = all_mobius(F3)
    for _ in range(10):
        a = rand_cover(F3, rng, dmax=3)
        b = a.postcompose(mob[rng.randrange(len(mob))])
        c = b.postcompose(mob[rng.randrange(len(mob))])
        assert equivalent(a, a) is not None
        assert (equivalent(a, b) is None) == (equivalent(b, a) is None)
        assert equivalent(a, c) is not None


def test_equivalent_preconditions():
    with pytest.raises(InputError):
        equivalent(Cover.parse("x^2", F3), Cover.parse("x^3", F3))
    with pytest.raises(InputError):
        equivalent(Cover.parse("x^2", F3), Cover.parse("x^2", F9))


def test_normalize_examples():
    nc = Cover.parse("x^4", F3).normalize()
    assert str(nc.cover.g) == "x^4" and str(nc.cover.h) == "x^3 + x + 1"
    assert nc.source_change.codes() == (1, 1, 1, 0)            # x -> (x+1)/x

    nc2 = Cover.parse("x^2+1 / x", F3).normalize()
    assert nc2.source_change.is_identity() and nc2.target_change.is_identity()
    assert nc2.cover == Cover.parse("x^2+1 / x", F3)

    nc3 = Cover.parse("x", F3).normalize()
    assert nc3.cover == Cover.parse("x", F3)


def test_normalize_invariants():
    rng = random.Random(9)
    for _ in range(25):
        cov = rand_cover(F3, rng)
        nc = cov.normalize()
        d = nc.cover.d
        assert nc.cover.g.degree() == d and nc.cover.g.leading_coefficient().code == 1
        assert nc.cover.h.degree() == d - 1 and nc.cover.h.leading_coefficient().code == 1
        assert nc.cover.g[d - 1].code == 0
        assert nc.cover.discriminant().degree() == 2 * d - 2
        redone = nc.original.precompose(nc.source_change).postcompose(nc.target_change)
        assert redone == nc.cover
        # length multiset preserved
        try:
            before = cov.differential_lengths(4).multiset()
            after = nc.cover.differential_lengths(4).multiset()
            assert sorted(before) == sorted(after)
        except SplitBoundExceeded:
            pass


def test_normalize_needs_extension():
    # every rational point of this cover is ramified (disc = x^4 + x^2
    # vanishes at 0 and 1, and l_inf = 2), so the chart point comes from F_4
    cov = Cover.parse("x^4 + x^2 / x^2 + x + 1", F2)
    disc = cov.discriminant()
    assert disc == Poly.parse("x^4 + x^2", F2)
    assert all(disc.evaluate(e).code == 0 for e in elements(F2))
    nc = cov.normalize(4)
    assert nc.cover.spec.m == 2
    redone = nc.original.precompose(nc.source_change).postcompose(nc.target_change)
    assert redone == nc.cover


@pytest.mark.parametrize("text, source, target", [
    ("x / x^2+1", (1, 0, 0, 1), (0, 1, 1, 0)),            # swap
    ("x^2 / x^2+x+2", (1, 0, 0, 1), (1, 0, 2, 1)),        # both of degree d
    ("x^3+2*x^2 / x^2+1", (1, 0, 0, 1), (1, 1, 0, 1)),    # shear
    ("x^4", (1, 1, 1, 0), (0, 1, 1, 2)),                  # source change
])
def test_normalize_target_change(text, source, target):
    nc = Cover.parse(text, F3).normalize()
    assert nc.source_change.codes() == source
    assert nc.target_change.codes() == target


def test_normalize_tries_every_extension_degree():
    # every point of F_2 and F_4 is ramified; F_8 has unramified points
    cov = Cover.parse("x^6 + 1 / x^4 + x^3 + 1", F2)
    for max_ext in (3, 4):
        nc = cov.normalize(max_ext)
        assert nc.spec.order == 8
        assert nc.original.precompose(nc.source_change).postcompose(nc.target_change) \
            == nc.cover
    with pytest.raises(SplitBoundExceeded):
        cov.normalize(2)


def test_normalize_rejects_max_ext_below_one():
    # x^4 is ramified at infinity, x^2 + 1 / x is not: both are refused
    for text in ("x^4", "x^2 + 1 / x"):
        with pytest.raises(InputError, match="max_ext must be at least 1"):
            Cover.parse(text, F3).normalize(0)


def test_riemann_hurwitz_mass():
    rng = random.Random(10)
    for spec in (F2, F3):
        for _ in range(20):
            cov = rand_cover(spec, rng, dmax=3)
            try:
                div = cov.differential_lengths(4)
            except SplitBoundExceeded:
                continue
            assert div.mass() == 2 * cov.d - 2


def test_divisor_json_and_str():
    div = Cover.parse("x^5 + x", F3).differential_lengths(4)
    js = div.to_json()
    assert js[-1] == {"point": "inf", "mult": 4}
    assert len(js) == 5
    assert all(isinstance(item["point"], str) for item in js)


def _divisor_cases():
    # empty, INF only, finite points only and mixed, over the tabled F_81
    # and the untabled F_2401, finite points given out of order
    out = [(None, [])]
    for spec in (make_field(3, 4), make_field(7, 4)):
        q, rng = spec.order, random.Random(spec.order)
        codes = rng.sample(range(q), 6) + [0, q - 1]
        finite = [(FieldElement(spec, c), rng.randrange(1, 5)) for c in codes]
        out += [(spec, [(INF, 3)]), (spec, finite), (spec, finite[:4] + [(INF, 1)] + finite[4:])]
    return out


@pytest.mark.parametrize("spec,pairs", _divisor_cases())
def test_divisor_text_from_codes_matches_elements(spec, pairs):
    div = Divisor(pairs, spec=spec)
    items = div.items()
    assert div.to_json() == [{"point": str(pt), "mult": m} for pt, m in items]
    assert str(div) == (" + ".join(f"{m}*({pt})" if m > 1 else f"({pt})"
                                   for pt, m in items) or "0")


@pytest.mark.parametrize("spec,pairs", _divisor_cases())
def test_divisor_raw_matches_validating_constructor(spec, pairs):
    checked = Divisor(pairs, spec=spec)
    raw = Divisor._raw(spec, {INF if pt is INF else pt.code: m for pt, m in pairs})
    assert raw == checked and hash(raw) == hash(checked)
    assert raw.items() == checked.items() and str(raw) == str(checked)
    # without finite points the field is not part of the divisor
    if all(pt is INF for pt, _ in pairs):
        bare = Divisor(pairs)
        assert bare == raw and hash(bare) == hash(raw)


def test_divisor_validation():
    with pytest.raises(InputError):
        Divisor([(F3.element(1), 0)])
    with pytest.raises(InputError):
        Divisor([(F3.element(1), 1), (F9.element(1), 1)])
    with pytest.raises(InputError):
        Divisor([(F3.element(1), 1), (F3.element(1), 2)])


def test_mobius_basics():
    m = Mobius.from_codes(F3, 1, 1, 0, 1)
    assert m.apply(F3.element(1)) == F3.element(2)
    assert m.apply(INF) is INF
    inv = Mobius.from_codes(F3, 0, 1, 1, 0)
    assert inv.apply(F3.element(0)) is INF
    assert inv.apply(INF) == F3.element(0)
    assert m.compose(m.inverse()).is_identity()
    with pytest.raises(InputError):
        Mobius.from_codes(F3, 1, 1, 1, 1)


def test_cover_parse_round_trip():
    for s in ["x^4 / x^3 + x + 1", "x^5 + x", "x^2 + 1 / x"]:
        cov = Cover.parse(s, F3)
        assert Cover.parse(str(cov), F3) == cov
    with pytest.raises(InputError):
        Cover.parse("x / x / x", F3)
