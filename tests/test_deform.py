"""Tangent systems, brute-force oracle, lifting, char-3 structure."""

import random
from itertools import product

import pytest

from p1covers import (BudgetExceeded, Cover, DeformationVector, InputError,
                      Poly, SplitBoundExceeded, brute_force_tangent, census_by_disc,
                      deformed_discriminant, enumerate_covers, in_image,
                      lift_deformation, make_field, structure_decomposition,
                      tangent_dim, tangent_system)
from p1covers import deform
from p1covers.deform import _dual_linear_product, _first_order_residual
from p1covers.poly import raw_trim

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


def reference_brute_force(nc, variant="xd", max_ext=4, limit=deform.BRUTE_FORCE_LIMIT):
    """Reference: the oracle as one trial per candidate (g1, h1, eps),
    each residual recomputed from the definition and compared with the
    xli target (zero for xd)."""
    ts = tangent_system(nc, variant, max_ext)
    S, g, h = ts.spec, ts.g, ts.h
    q = S.order
    nvars = ts.matrix.ncols
    if q ** nvars > limit:
        raise BudgetExceeded(
            f"brute force needs {q ** nvars} trials, over the limit {limit}")
    npoly = nc.cover.d - 1
    count = 0
    for tup in product(range(q), repeat=nvars):
        g1 = raw_trim(list(tup[:npoly]))
        h1 = raw_trim(list(tup[npoly:2 * npoly]))
        eps = tup[2 * npoly:]
        _, target = _dual_linear_product(
            S, [(pt.code, e, l) for pt, e, l in zip(ts.points, eps, ts.lengths)])
        count += _first_order_residual(S, g, h, g1, h1) == target
    dim = 0
    while q ** dim < count:
        dim += 1
    if q ** dim != count:
        raise ArithmeticError(f"solution count {count} is not a power of q={q}")
    return dim


def oracle_outcome(oracle, nc, variant, max_ext, limit):
    """The dimension, or the refusal's type and message."""
    try:
        return oracle(nc, variant, max_ext, limit)
    except (BudgetExceeded, SplitBoundExceeded) as exc:
        return type(exc).__name__, str(exc)


def random_chart_covers(spec, d, rng, n):
    """n seeded random covers of degree d over spec, chart-normalized."""
    out = []
    while len(out) < n:
        g = Poly(spec, [rng.randrange(spec.order) for _ in range(d)] + [1])
        h = Poly(spec, [rng.randrange(spec.order) for _ in range(d + 1)])
        try:
            cov = Cover(g, h)
        except InputError:
            continue
        if cov.d == d:
            out.append(cov.normalize())
    return out


def test_split_oracle_matches_reference():
    # both variants over seven fields: the same dimension, or the same
    # refusal at the same limit; max_ext 1 makes some xli systems refuse
    # to split
    rng = random.Random(15)
    seen = set()
    for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        spec = make_field(p, m)
        for d in (2, 3, 4):
            for nc in random_chart_covers(spec, d, rng, 3):
                for variant in ("xd", "xli"):
                    max_ext = rng.choice((1, 4))
                    got = oracle_outcome(brute_force_tangent, nc, variant, max_ext, 4000)
                    assert got == oracle_outcome(reference_brute_force, nc, variant,
                                                 max_ext, 4000), (nc.cover, variant)
                    seen.add(got[0] if isinstance(got, tuple) else "dim")
    assert seen == {"dim", "BudgetExceeded", "SplitBoundExceeded"}


def test_split_oracle_work_bound(monkeypatch):
    # the h1 and g1 terms once per polynomial (9^2 each), the discriminant
    # of the tangent system, and two per rechecked solution (9^dim of
    # them); one trial per candidate made 1 + 2 * 9^4 = 13,123 calls
    nc = Cover.parse("x^3 / x^2 + 1", F9).normalize()
    assert tangent_system(nc, "xd").matrix.ncols == 4
    calls = 0
    real_T = deform.raw_T

    def counted(*args):
        nonlocal calls
        calls += 1
        return real_T(*args)

    monkeypatch.setattr(deform, "raw_T", counted)
    dim = brute_force_tangent(nc, "xd")
    assert dim == 1
    assert calls <= 2 * 9 ** 2 + 1 + 2 * 9 ** dim


def test_split_oracle_rechecks_each_solution(monkeypatch):
    monkeypatch.setattr(deform, "_first_order_residual", lambda S, g, h, g1, h1: [1])
    with pytest.raises(ArithmeticError, match="fails the defining identity"):
        brute_force_tangent(NC_WILD, "xd")


def test_oracle_rejects_a_count_that_is_not_a_power_of_q(monkeypatch):
    # T_g(0) moved out of reach of every lookup: the solutions with h1 = 0
    # drop out of the count, 9 for NC_WILD, which leaves no power of 3
    real = deform.raw_T

    def skewed(S, f, q):
        return [0] * (2 * len(f)) + [1] if not q else real(S, f, q)

    monkeypatch.setattr(deform, "raw_T", skewed)
    with pytest.raises(ArithmeticError, match="is not a power of q=3"):
        brute_force_tangent(NC_WILD, "xd")


def test_oracle_agreement_whole_censuses_xd():
    # every class whose chart lies over the base field: the oracle, the
    # kernel and the census histogram of its discriminant agree
    checked = 0
    for p, m, d in ((2, 1, 5), (3, 1, 4), (2, 2, 3), (5, 1, 3)):
        spec = make_field(p, m)
        by_disc = {r.disc.c: r for r in census_by_disc(spec, d, points=False).records}
        for cov in enumerate_covers(spec, d):
            nc = cov.normalize()
            if nc.spec != spec:
                continue
            dim = brute_force_tangent(nc, "xd")
            assert dim == tangent_dim(nc, "xd")[0], cov
            assert dim in by_disc[cov.discriminant().c].tangent_dims, cov
            checked += 1
    assert checked == 1821


def test_oracle_agreement_whole_censuses_xli():
    checked = 0
    for p, m, d in ((3, 1, 3), (2, 2, 3), (2, 1, 4)):
        spec = make_field(p, m)
        for cov in enumerate_covers(spec, d):
            nc = cov.normalize()
            try:
                dim = brute_force_tangent(nc, "xli")
            except (BudgetExceeded, SplitBoundExceeded):
                continue
            assert dim == tangent_dim(nc, "xli")[0], cov
            checked += 1
    assert checked == 276      # of the 396 classes; the rest exceed the limit


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
