"""Wild families, the two named families, verification, chart directions."""

import pytest

from p1covers import (Cover, InputError, Poly, chart_direction, elements,
                      embed, enumerate_covers, make_field, osserman_family,
                      power_family, tangent_dim, verify_family, wild_family,
                      Family)

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


def test_specialize_field_checks():
    fam = power_family(3)
    with pytest.raises(InputError):
        fam.specialize(make_field(2).element(1))
    cov9 = fam.specialize(F9.element(5))
    assert cov9.spec is F9 and cov9.d == 4
