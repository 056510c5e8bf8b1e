"""Wild families, the two named families, verification, chart directions."""

import math
import random

import pytest

from p1covers import (Cover, FieldElement, InputError, Poly, SplitBoundExceeded,
                      chart_direction, elements, embed, enumerate_covers, make_field,
                      osserman_family, power_family, tangent_dim, verify_family,
                      wild_family, Family)
from p1covers.family import _fix_infinity
from p1covers.poly import raw_scale, raw_sub

F2 = make_field(2)
F3 = make_field(3)
F9 = make_field(3, 2)
F5 = make_field(5)


def test_wild_family_examples():
    fam = wild_family(Cover.parse("x^4", F3))
    assert fam.specialize(F3.element(1)) == Cover.parse("x^4 + x^3", F3)
    assert str(fam.g) == "x^4" and str(fam.bump) == "x^3"

    fam2 = wild_family(Cover.parse("x^5 + x", F3))
    assert fam2.specialize(F3.element(2)) == Cover.parse("x^5 + 2*x^3 + x", F3)

    with pytest.raises(InputError):
        wild_family(Cover.parse("x^2+1 / x", F3))


def test_wild_family_moves_finite_point():
    # x^4/(x^3+x+1) has wild points 0 and -1 but a tame infinity: the
    # least one (0) goes to infinity first
    fam = wild_family(Cover.parse("x^4 / x^3+x+1", F3))
    assert fam.h == Poly.one(F3)
    assert fam.at_zero() == Cover.parse("x^4 + x^3 + x", F3)
    for t in elements(F3):
        cov = fam.specialize(t)
        assert cov.d == 4
        assert cov.discriminant() == fam.at_zero().discriminant()


def test_wild_family_constant_disc_and_inequivalent_fibers():
    for text in ("x^4", "x^5 + x", "x^4 / x^3+x+1"):
        fam = wild_family(Cover.parse(text, F3))
        base_disc = fam.at_zero().discriminant()
        covers = [fam.specialize(t) for t in elements(F9)]
        assert all(c.discriminant() == base_disc.embed(F9) for c in covers)
        assert len({c.plane() for c in covers}) == len(covers)


def test_wild_family_refuses_degenerate_parameter():
    # deg bump = d: at t = -lc(g)/lc(bump) the fiber loses degree
    F2 = make_field(2)
    fam = wild_family(Cover.parse("x^3 + x^2 + 1 / x", F2))
    bad = fam.degenerate_parameter()
    assert bad == F2.one()
    with pytest.raises(InputError):
        fam.specialize(bad)
    with pytest.raises(InputError):
        fam.specialize(embed(bad, make_field(2, 3)))
    assert fam.specialize(F2.zero()).d == 3
    assert power_family(3).degenerate_parameter() is None
    assert wild_family(Cover.parse("x^4", F3)).degenerate_parameter() is None


def test_power_family():
    fam = power_family(3)
    assert fam.at_zero() == Cover.parse("x^4", F3)
    assert fam.at_zero().discriminant() == Poly.parse("x^3", F3)
    for t in elements(F3):
        assert fam.specialize(t).discriminant() == Poly.parse("x^3", F3)


def test_osserman_family():
    fam = osserman_family(3)
    assert fam.at_zero() == Cover.parse("x^5 + x", F3)
    assert fam.at_zero().discriminant() == Poly.parse("x^4 + 2", F3)
    fam5 = osserman_family(5)
    assert fam5.at_zero().discriminant() == Poly.parse("x^6 + 3", F5)
    with pytest.raises(InputError):
        osserman_family(2)


def test_verify_family_power():
    report = verify_family(power_family(3), elements(F3))
    assert report["disc_constant"] and report["length_divisor_constant"]
    assert report["pairwise_inequivalent"]
    rams = {t: row["0"]["e"] for t, row in report["ram_indices"].items()}
    assert rams == {"0": 4, "1": 3, "2": 3}
    # at t = 0 the point is tame, for t != 0 it turns wild
    wilds = {t: row["0"]["wild"] for t, row in report["ram_indices"].items()}
    assert wilds == {"0": False, "1": True, "2": True}


def test_verify_family_osserman_over_f9():
    report = verify_family(osserman_family(3), elements(F9))
    assert report["disc_constant"]
    assert report["length_divisor_constant"]
    assert report["pairwise_inequivalent"]
    assert len(report["samples"]) == 9
    # four tame simple points plus mass 4 at infinity
    lens = {item["point"]: item["mult"] for item in report["length_divisor"]}
    assert lens["inf"] == 4 and sorted(lens.values()) == [1, 1, 1, 1, 4]


def test_verify_family_detects_constant_family():
    g = Poly.parse("x^2", F3)
    fam = Family("x^2 (constant)", g, Poly.one(F3), Poly.zero(F3), F3, 2)
    report = verify_family(fam, elements(F3))
    assert report["pairwise_inequivalent"] is False
    assert report["disc_constant"] is True


def reference_verify_family(fam, ts, max_ext=4):
    """verify_family as it was first written: every fiber's length divisor
    is found from scratch."""
    deg = 1
    for t in ts:
        deg = math.lcm(deg, t.spec.m)
    K = make_field(fam.spec.p, deg)
    ts_K = [FieldElement(K, K.embed_code(t.code, t.spec)) for t in ts]
    covers = [fam.specialize(t) for t in ts_K]
    discs = [cov.discriminant() for cov in covers]
    divisors = [cov.differential_lengths(max_ext) for cov in covers]
    specs = {div.spec for div in divisors if div.spec is not None}
    if len(specs) > 1:
        J = make_field(fam.spec.p, math.lcm(*(sp.m for sp in specs)))
        divisors = [div.embed(J) for div in divisors]
    support = divisors[0].support()
    ram_indices = {}
    for t, cov in zip(ts_K, covers):
        ram_indices[str(t)] = {str(pt): dict(zip(("e", "wild"), cov.ram_index(pt)))
                               for pt in support}
    return {
        "description": fam.description,
        "samples": [str(t) for t in ts_K],
        "disc": str(discs[0]),
        "disc_constant": all(d == discs[0] for d in discs),
        "length_divisor": divisors[0].to_json(),
        "length_divisor_constant": all(div == divisors[0] for div in divisors),
        "ram_indices": ram_indices,
        "pairwise_inequivalent": len({cov.plane() for cov in covers}) == len(covers),
    }


def sample_parameters(fam, rng, n=5):
    """n parameters from the least extension of the family's field with
    more than n elements, the degenerate one left out."""
    K = fam.spec
    while K.order <= n:
        K = make_field(K.p, 2 * K.m)
    bad = fam.degenerate_parameter()
    ts = [t for t in elements(K) if bad is None or t != embed(bad, K)]
    return sorted(rng.sample(ts, n))


def random_wild_families(S, rng, count):
    out = []
    while len(out) < count:
        d = rng.randrange(3, 6)
        g = Poly(S, [rng.randrange(S.order) for _ in range(d)] + [1])
        h = Poly(S, [rng.randrange(S.order) for _ in range(rng.randrange(d))] + [1])
        try:
            out.append(wild_family(Cover(g, h), 4))
        except (InputError, SplitBoundExceeded):
            continue
    return out


def counted_lengths(monkeypatch):
    calls = []
    lengths = Cover.differential_lengths

    def counted(self, max_ext=4):
        calls.append(self.discriminant())
        return lengths(self, max_ext)

    monkeypatch.setattr(Cover, "differential_lengths", counted)
    return calls


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (2, 3), (3, 2)])
def test_verify_family_wild_matches_per_fiber_reference(p, m):
    S = make_field(p, m)
    rng = random.Random(10 * p + m)
    for fam in random_wild_families(S, rng, 4):
        ts = sample_parameters(fam, rng)
        report = verify_family(fam, ts)
        assert report == reference_verify_family(fam, ts)
        assert report["disc_constant"] and report["length_divisor_constant"]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_verify_family_named_match_per_fiber_reference(p):
    rng = random.Random(p)
    for fam in (power_family(p), osserman_family(p)):
        for ts in (elements(fam.spec), sample_parameters(fam, rng),
                   [embed(t, make_field(p, 2)) for t in sample_parameters(fam, rng, 3)]
                   + [make_field(p, 2).element(p + 1)]):
            report = verify_family(fam, ts)
            assert report == reference_verify_family(fam, ts)


def test_verify_family_finds_lengths_once_per_discriminant(monkeypatch):
    rng = random.Random(11)
    families = [wild_family(Cover.parse("x^4 / x^3+x+1", F3)),
                wild_family(Cover.parse("x^5 + x", F3))]
    families += random_wild_families(make_field(2, 3), rng, 2)
    families += [power_family(p) for p in (3, 5, 7)] + [osserman_family(p) for p in (5, 7)]
    calls = counted_lengths(monkeypatch)
    for fam in families:
        ts = sample_parameters(fam, rng)
        assert len(ts) == 5
        del calls[:]
        report = verify_family(fam, ts)
        assert report["disc_constant"] and len(calls) == 1


def test_verify_family_moving_discriminant(monkeypatch):
    # f_t = x^2 + t*x: h g' - g h' = 2x + t, so every fiber has its own
    # discriminant and its own length divisor
    for S in (F3, F5):
        fam = Family("x^2 + t*x", Poly.parse("x^2", S), Poly.one(S), Poly.x(S), S, 2)
        ts = elements(S)
        expected = reference_verify_family(fam, ts)
        calls = counted_lengths(monkeypatch)
        report = verify_family(fam, ts)
        assert report == expected
        assert report["disc_constant"] is False
        assert report["length_divisor_constant"] is False
        assert len(calls) == len(set(calls)) == S.order
        monkeypatch.undo()


def test_chart_direction_example():
    fam = wild_family(Cover.parse("x^4 / x^3+x+1", F3))
    nc, vec = chart_direction(fam)
    assert nc.cover == Cover.parse("x^4 / x^3+x+1", F3)
    assert str(vec.g1) == "0" and str(vec.h1) == "x"


def test_chart_direction_is_nonzero_tangent_solution():
    # across every wild class at degree <= 4 over F_3, the family direction
    # lands in the xd tangent space and is non-trivial
    checked = 0
    for d in (2, 3, 4):
        for cov in enumerate_covers(F3, d):
            if all(m < 3 for m in cov.length_multiset()):
                continue
            fam = wild_family(cov)
            nc, vec = chart_direction(fam)
            assert not (vec.g1.is_zero() and vec.h1.is_zero())
            dim, basis = tangent_dim(nc, "xd")
            assert dim >= 1
            # membership: the defining identity vanishes on the direction
            from p1covers.deform import _first_order_residual
            S = nc.cover.spec
            res = _first_order_residual(S, list(nc.cover.g.c), list(nc.cover.h.c),
                                        list(vec.g1.c), list(vec.h1.c))
            assert res == []
            checked += 1
    assert checked > 50


def test_chart_direction_through_source_change_and_extension():
    # the chart point comes from F_4, and the bump has full degree d
    fam = wild_family(Cover.parse("x^4 + x^2 / x^2 + x + 1", F2))
    nc, vec = chart_direction(fam)
    S = nc.spec
    assert S.order == 4
    assert str(nc.source_change) == "y -> ([u]*y + 1) / (y)"
    assert str(vec.g1) == "x + 1" and str(vec.h1) == "0"
    from p1covers.deform import _first_order_residual
    assert _first_order_residual(S, list(nc.cover.g.c), list(nc.cover.h.c),
                                 list(vec.g1.c), list(vec.h1.c)) == []


def test_specialize_field_checks():
    fam = power_family(3)
    with pytest.raises(InputError):
        fam.specialize(make_field(2).element(1))
    cov9 = fam.specialize(F9.element(5))
    assert cov9.spec is F9 and cov9.d == 4


def _fix_infinity_by_cases(S, g, h, d):
    """_fix_infinity as a swap or a subtraction, without the matrix."""
    dg, dh = len(g) - 1, len(h) - 1
    if dg == d and dh < d:
        return g, h
    if dh == d and dg < d:
        return h, g
    v = S.mul(g[-1], S.inv(h[-1]))
    return h, raw_sub(S, g, raw_scale(S, h, v))


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 2), (7, 4)])
def test_fix_infinity_matches_swap_and_subtraction(p, m):
    S = make_field(p, m)
    rng = random.Random(S.order + 5)

    def poly(deg):
        return [rng.randrange(S.order) for _ in range(deg)] + [rng.randrange(1, S.order)]

    for d in range(1, 6):
        for _ in range(10):
            low = rng.randrange(d)
            # deg g = d > deg h, deg h = d > deg g, and both of degree d
            for g, h in [(poly(d), poly(low)), (poly(low), poly(d)), (poly(d), poly(d))]:
                want = _fix_infinity_by_cases(S, list(g), list(h), d)
                got = _fix_infinity(S, list(g), list(h), d)
                assert got == want
                assert len(got[0]) - 1 == d and len(got[1]) - 1 < d
