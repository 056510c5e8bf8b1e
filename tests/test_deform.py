"""Tangent systems, brute-force oracle, lifting, char-3 structure."""

import pytest

from p1covers import (BudgetExceeded, Cover, DeformationVector, InputError,
                      Poly, brute_force_tangent, deformed_discriminant,
                      enumerate_covers, in_image, lift_deformation, make_field,
                      structure_decomposition, tangent_dim, tangent_system)

F3 = make_field(3)
F9 = make_field(3, 2)

NC_SIMPLE = Cover.parse("x^2+1 / x", F3).normalize()
NC_WILD = Cover.parse("x^4 / x^3+x+1", F3).normalize()


def test_tangent_system_shape_xd():
    ts = tangent_system(NC_SIMPLE, "xd")
    assert ts.matrix.ncols == 2          # one slot for g1, one for h1
    assert ts.matrix.nrows == 2
    # conditions force c = e = 0: T_g(e) - T_h(c) = 2ex - c
    assert [row for row in ts.matrix.data] == [[2, 0], [0, 2]] or \
        len([r for r in ts.matrix.data if any(r)]) == 2


def test_tangent_system_degree_one():
    nc = Cover.parse("x", F3).normalize()
    ts = tangent_system(nc, "xd")
    assert ts.matrix.ncols == 0
    assert tangent_dim(nc, "xd")[0] == 0


def test_tangent_system_xli_shape():
    ts = tangent_system(NC_SIMPLE, "xli")
    assert ts.matrix.ncols == 4          # c, e, eps_1, eps_2
    assert len(ts.points) == 2 and ts.lengths == (1, 1)
    assert ts.degenerate == ()


def test_tangent_dims_examples():
    assert tangent_dim(NC_SIMPLE, "xd")[0] == 0
    assert tangent_dim(NC_SIMPLE, "xli")[0] == 2
    dim, basis = tangent_dim(NC_WILD, "xd")
    assert dim == 2
    dirs = {(str(v.g1), str(v.h1)) for v in basis}
    assert ("0", "x") in dirs


def test_brute_force_oracle_examples():
    assert brute_force_tangent(NC_SIMPLE, "xd") == 0
    assert brute_force_tangent(Cover.parse("x", F3).normalize(), "xd") == 0
    assert brute_force_tangent(NC_WILD, "xd") == 2


def test_brute_force_limit():
    with pytest.raises(BudgetExceeded):
        brute_force_tangent(NC_WILD, "xd", limit=10)


def test_oracle_agreement_all_covers_d_le_3():
    for d in (1, 2, 3):
        for cov in enumerate_covers(F3, d):
            nc = cov.normalize()
            dim, _ = tangent_dim(nc, "xd")
            assert dim == brute_force_tangent(nc, "xd")


def test_tangent_dim_stable_under_field_extension():
    for cover_text in ("x^2+1 / x", "x^4 / x^3+x+1", "x^3 + x^2 / x + 2"):
        cov = Cover.parse(cover_text, F3)
        dim_base = tangent_dim(cov.normalize(), "xd")[0]
        dim_ext = tangent_dim(cov.embed(F9).normalize(), "xd")[0]
        assert dim_base == dim_ext


def test_xli_contains_xd():
    for d in (2, 3):
        for cov in enumerate_covers(F3, d):
            nc = cov.normalize()
            assert tangent_dim(nc, "xli")[0] >= tangent_dim(nc, "xd")[0]


def test_xli_over_extension_branch_points():
    # disc = x^2 + 1 over F_3: the two branch points are conjugate in F_9,
    # so the xli system lives over the splitting field
    nc = Cover.parse("x^2 + 2 / x", F3).normalize()
    ts = tangent_system(nc, "xli")
    assert ts.spec.order == 9
    assert sorted(str(p) for p in ts.points) == ["[2*u]", "[u]"]
    assert tangent_dim(nc, "xli")[0] == 2
    assert brute_force_tangent(nc, "xli") == 2
    assert tangent_dim(nc, "xd")[0] == 0


def test_xli_degenerate_directions_flagged():
    # both branch points of x^4/(x^3+x+1) carry length 3 = p
    ts = tangent_system(NC_WILD, "xli")
    assert len(ts.degenerate) == 2
    # the eps slots decouple, adding exactly 2 free dimensions
    assert tangent_dim(NC_WILD, "xli")[0] == tangent_dim(NC_WILD, "xd")[0] + 2
    # the exhaustive count sees the same degeneracy (3^8 trials)
    assert brute_force_tangent(NC_WILD, "xli") == 4


def test_solver_reports_inconsistent_systems():
    # the machinery behind obstruction reporting: an inconsistent
    # inhomogeneous system has no particular solution
    from p1covers.deform import _solve_particular
    rows = [[1, 0], [1, 0]]
    assert _solve_particular(F3, rows, [1, 2], 2) is None
    assert _solve_particular(F3, rows, [1, 1], 2) == [1, 0]


def test_genuine_obstruction_char5():
    # char 5, degree 3 < p: no wild point exists, so the fixed-disc locus
    # is a fat point -- a nonzero first-order direction that dies at
    # order 2. Confirmed by exhausting all 625 second-order corrections.
    F5 = make_field(5)
    nc = Cover.parse("x^3 + 1 / x^2", F5).normalize()
    assert nc.source_change.is_identity() and nc.target_change.is_identity()
    dim, basis = tangent_dim(nc, "xd")
    assert dim == 1 == brute_force_tangent(nc, "xd")
    assert (str(basis[0].g1), str(basis[0].h1)) == ("3*x", "1")
    res = lift_deformation(nc, basis[0], 3)
    assert not res.success
    assert res.obstructed_at == 2
    assert str(res.residual) == "3"


def test_char5_degree3_all_directions_obstruct():
    # sweeping version: every nonzero tangent direction at degree 3 over
    # F_5 fails to reach order 2, matching zero-dimensionality of the
    # fixed-discriminant locus below the wild threshold
    F5 = make_field(5)
    nonzero_dirs = 0
    for cov in enumerate_covers(F5, 3):
        nc = cov.normalize()
        _, basis = tangent_dim(nc, "xd")
        for v in basis:
            res = lift_deformation(nc, v, 3)
            assert not res.success and res.obstructed_at == 2
            nonzero_dirs += 1
    assert nonzero_dirs == 120


def test_no_obstructions_at_desk_scale():
    # every wild first-order direction at degree <= 4 over F_3 lifts to
    # order 4: consistent with a genuine family through each one
    for d in (3, 4):
        for cov in enumerate_covers(F3, d):
            if not any(m >= 3 for m in cov.length_multiset()):
                continue
            nc = cov.normalize()
            _, basis = tangent_dim(nc, "xd")
            for v in basis:
                assert lift_deformation(nc, v, 4).success


def test_lift_zero_vector():
    v = DeformationVector(Poly.zero(F3), Poly.zero(F3))
    res = lift_deformation(NC_WILD, v, 4)
    assert res.success
    assert all(g.is_zero() and h.is_zero() for g, h in res.corrections)


def test_lift_wild_direction_to_order_4():
    v = DeformationVector(Poly.zero(F3), Poly.x(F3))
    res = lift_deformation(NC_WILD, v, 4)
    assert res.success and res.obstructed_at is None
    series = deformed_discriminant(NC_WILD, res.corrections, 4)
    assert series[0] == NC_WILD.cover.discriminant()
    assert all(t.is_zero() for t in series[1:])


def test_lift_requires_first_order_solution():
    bad = DeformationVector(Poly.one(F3), Poly.zero(F3))
    with pytest.raises(InputError):
        lift_deformation(NC_WILD, bad, 4)
    with pytest.raises(InputError):
        lift_deformation(NC_WILD, DeformationVector(Poly.zero(F3), Poly.x(F3)), 9)


def test_lift_vacuous_at_rigid_cover():
    dim, basis = tangent_dim(NC_SIMPLE, "xd")
    assert dim == 0 and basis == []


def test_structure_decomposition_wild_basis():
    dim, basis = tangent_dim(NC_WILD, "xd")
    for v in basis:
        out = structure_decomposition(NC_WILD, v)
        assert out is not None
        (a_num, den), (b_num, den2), (c_num, den3) = out
        assert den == den2 == den3
        assert den.leading_coefficient().code == 1
    # the direction (0, x) has alpha = beta = 0, gamma = 1/X
    v0 = next(v for v in basis if str(v.g1) == "0" and str(v.h1) == "x")
    (a_num, den), (b_num, _), (c_num, _) = structure_decomposition(NC_WILD, v0)
    assert a_num.is_zero() and b_num.is_zero()
    assert str(c_num) == "1" and den.to_str("X") == "X"


def test_structure_decomposition_every_census_basis_vector():
    # every xd basis vector of every class normalized inside its base field
    # decomposes, and the verification back in k[x] holds for each
    counts = {}
    for p, m, degrees in ((2, 1, (2, 3, 4, 5)), (3, 1, (2, 3, 4)), (2, 2, (3,)), (3, 2, (3,))):
        F = make_field(p, m)
        n = 0
        for d in degrees:
            for cov in enumerate_covers(F, d):
                nc = cov.normalize()
                if nc.spec != F:
                    continue
                for v in tangent_dim(nc, "xd")[1]:
                    assert structure_decomposition(nc, v) is not None
                    n += 1
        counts[F.order] = n
    assert counts == {2: 1110, 3: 398, 4: 512, 9: 800}


def test_field_mismatch_raises_input_error():
    F5 = make_field(5)
    with pytest.raises(InputError):
        in_image(Poly.x(F3), Poly.parse("[u]*x^2", F9))
    with pytest.raises(InputError):
        in_image(Poly.x(F3), Poly.x(F5))
    v = DeformationVector(Poly.zero(F9), Poly.x(F9))
    with pytest.raises(InputError):
        structure_decomposition(NC_WILD, v)


def test_tangent_basis_verified_by_substitution():
    # tangent_dim itself recomputes the defining identity for each vector;
    # exercise it across the census at degree 3 with a wild case present
    seen_wild = False
    for cov in enumerate_covers(F3, 3):
        nc = cov.normalize()
        dim, basis = tangent_dim(nc, "xd")
        if dim > 0:
            seen_wild = True
            for v in basis:
                assert v.g1.degree() <= cov.d - 2 and v.h1.degree() <= cov.d - 2
    assert seen_wild
