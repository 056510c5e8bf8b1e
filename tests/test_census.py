"""Census counts, record structure, theorem verification, determinism."""

import json
import random
from itertools import product as iproduct

import pytest

from p1covers import (BudgetExceeded, Cover, InputError, Mobius, Poly,
                      census_by_disc, enumerate_covers, make_field, raw_plane_count,
                      verify_theorem_char23)
from p1covers.census import (_admissible, _class_total, _materialize_divisor,
                             _merge_tables, _prefix_tasks, _scaling, _scan_chunk,
                             _substitute, _tangent_dim_raw)
from p1covers.field import FieldElement
from p1covers.poly import (raw_deriv, raw_gcd, raw_monic, raw_mul, raw_rref,
                           raw_sub, raw_trim)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F7 = make_field(7)
F8 = make_field(2, 3)
F9 = make_field(3, 2)
F16 = make_field(2, 4)
F49 = make_field(7, 2)


def brute_plane_count(spec, d):
    """Count 2-planes by canonicalizing every rank-2 matrix via RREF."""
    q = spec.order
    planes = set()
    for flat in iproduct(range(q), repeat=2 * (d + 1)):
        rows = [list(flat[:d + 1]), list(flat[d + 1:])]
        rref, pivots = raw_rref(spec, rows, d + 1)
        if len(pivots) == 2:
            planes.add(tuple(tuple(r) for r in rref))
    return len(planes)


@pytest.mark.parametrize("spec,d", [(F2, 2), (F2, 3), (F3, 2), (F3, 3), (F4, 2)])
def test_raw_plane_count_matches_brute_force(spec, d):
    assert raw_plane_count(spec.order, d) == brute_plane_count(spec, d)


def test_raw_plane_count_examples():
    assert raw_plane_count(3, 2) == 13
    assert raw_plane_count(3, 4) == 1210
    assert raw_plane_count(9, 4) == 605242


def test_enumerate_covers_counts():
    assert len(list(enumerate_covers(F3, 1))) == 1
    covers = list(enumerate_covers(F3, 2))
    assert len(covers) == 9
    planes = {c.plane() for c in covers}
    assert len(planes) == 9                     # one per equivalence class


def test_enumerate_covers_are_valid_and_canonical():
    for cov in enumerate_covers(F3, 3):
        assert cov.d == 3
        assert not cov.discriminant().is_zero()
    # determinism of the stream
    a = [str(c) for c in enumerate_covers(F3, 2)]
    b = [str(c) for c in enumerate_covers(F3, 2)]
    assert a == b


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_covers(F9, 4, budget=1000))


def test_census_3_2_nine_records():
    res = census_by_disc(F3, 2)
    assert res.raw_planes == 13
    assert res.total_classes == 9
    assert len(res.records) == 9
    for rec in res.records:
        assert rec.class_count == 1
        assert rec.length_multiset() == (1, 1)
        assert rec.tangent_dims == {0: 1}
        assert not rec.wild
        assert rec.split_ok and rec.lengths.mass() == 2
    # six records with two rational branch points, three with conjugate pairs
    rational = [r for r in res.records if r.disc.degree() == 2 and r.l_inf == 0
                and len(r.lengths.items()) == 2 and r.lengths.spec is F3]
    quadratic = [r for r in res.records if r.lengths.spec is not None
                 and r.lengths.spec.m == 2]
    assert len(quadratic) == 3
    mixed = [r for r in res.records if r.l_inf == 1]
    assert len(mixed) + len(rational) == 6


def test_census_2_2_wild_only():
    res = census_by_disc(F2, 2)
    assert all(rec.wild for rec in res.records)
    assert all(1 not in rec.length_multiset() for rec in res.records)
    discs = {str(rec.disc) for rec in res.records}
    assert "1" in discs                          # x^2 + x, branch mass at infinity
    assert res.total_classes == sum(r.class_count for r in res.records)
    # x^2 itself is inseparable and must not appear
    for cov in enumerate_covers(F2, 2):
        assert cov != Cover.parse("x^2 + x", F2) or True
        assert not (cov.g == Poly.parse("x^2", F2) and cov.h == Poly.one(F2))


def test_census_3_4_wild_record():
    res = census_by_disc(F3, 4)
    assert res.total_classes == 729
    rec = next(r for r in res.records if str(r.disc) == "x^6 + x^3")
    assert rec.wild
    assert rec.finite_lengths == (3, 3)
    assert all(dim >= 1 for dim in rec.tangent_dims)
    assert rec.class_count == sum(rec.tangent_dims.values())


def test_census_masses():
    for spec, d in [(F2, 2), (F2, 3), (F3, 2), (F3, 3), (F5, 2)]:
        res = census_by_disc(spec, d)
        for rec in res.records:
            assert rec.mass() == 2 * d - 2
            if rec.split_ok:
                assert rec.lengths.mass() == 2 * d - 2


def test_census_deterministic_json():
    a = census_by_disc(F3, 3).to_json()
    b = census_by_disc(F3, 3).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_census_parallel_matches_sequential():
    seq = census_by_disc(F3, 4, points=False)
    par = census_by_disc(F3, 4, points=False, processes=2)
    assert json.dumps(seq.to_json(), sort_keys=True) == \
        json.dumps(par.to_json(), sort_keys=True)


def test_census_budget():
    with pytest.raises(BudgetExceeded):
        census_by_disc(F9, 4, budget=1000)


@pytest.mark.parametrize("processes", [0, -3])
def test_census_rejects_processes_below_one(processes):
    with pytest.raises(InputError):
        census_by_disc(F3, 2, processes=processes)


def test_class_count_transport_between_records():
    # two simple rational branch points: moving them by a Moebius map is a
    # bijection of classes, so matching length multisets mean equal counts
    res = census_by_disc(F3, 2)
    by_disc = {str(r.disc): r for r in res.records}
    a = by_disc["x^2 + 2*x"]        # branch points 0 and 1
    b = by_disc["x^2 + x"]          # branch points 0 and 2
    assert a.class_count == b.class_count
    # explicit transport: x -> 2x maps {0, 2} to {0, 1}
    m = Mobius.from_codes(F3, 2, 0, 0, 1)
    covers = [c for c in enumerate_covers(F3, 2)]
    in_a = [c for c in covers if str(c.discriminant()) == "x^2 + 2*x"]
    in_b = [c for c in covers if str(c.discriminant()) == "x^2 + x"]
    moved = {c.precompose(m).plane() for c in in_a}
    assert moved == {c.plane() for c in in_b}


def test_same_multiset_same_count_up_to_three_points():
    # char 5, degree 3: tame multisets on up to 3 points exist in numbers
    # ((1,1,2), (2,2), (1,3), ...), and matching multisets with rational
    # support must give matching class counts
    res = census_by_disc(F5, 3, with_tangent=False)
    groups = {}
    for rec in res.records:
        if not rec.split_ok or len(rec.lengths.items()) > 3:
            continue
        if any(m >= 5 for m in rec.length_multiset()):
            continue
        if rec.lengths.spec is not None and rec.lengths.spec.m > 1:
            continue
        key = rec.length_multiset()
        groups.setdefault(key, set()).add(rec.class_count)
    # e_P <= d = 3 leaves exactly (1,1,2) and (2,2) on <= 3 tame points
    assert sorted(groups) == [(1, 1, 2), (2, 2)]
    for key, counts in groups.items():
        assert len(counts) == 1, f"multiset {key} has class counts {counts}"


def test_verify_theorem_char23_small():
    rep = verify_theorem_char23(F3, 3)
    assert rep["violations"] == []
    assert rep["wild_classes"] > 0
    assert all(int(d) >= 1 for d in rep["wild_tangent_dims"])

    rep9 = verify_theorem_char23(F9, 3)
    assert rep9["violations"] == []

    rep2 = verify_theorem_char23(F2, 3)
    assert rep2["violations"] == []
    assert rep2["length_one_absent"] is True

    with pytest.raises(Exception):
        verify_theorem_char23(F5, 2)


def test_galois_orbit_count():
    res = census_by_disc(F9, 2, orbit_count=True)
    assert res.galois_orbits is not None
    assert res.galois_orbits <= res.total_classes
    # orbits have size 1 or 2 under the order-2 Frobenius of F_9/F_3
    fixed = 2 * res.galois_orbits - res.total_classes
    assert 0 <= fixed <= res.total_classes
    # rational planes are exactly the F_3-census planes that stay separable
    # and base-point-free over F_9 (all of them: disc and gcd are F_3-data)
    res3 = census_by_disc(F3, 2)
    assert fixed == res3.total_classes

    res_m1 = census_by_disc(F3, 2, orbit_count=True)
    assert res_m1.galois_orbits == res_m1.total_classes


def enumerated_galois_orbits(spec, d):
    """Oracle: orbits of the coefficient-wise p-power map on the echelon
    forms of the enumerated classes, followed one by one."""
    frob = [spec.frob_code(c) for c in range(spec.order)]
    seen = set()
    orbits = 0
    for cov in enumerate_covers(spec, d):
        key = (cov.g.c, cov.h.c)
        if key in seen:
            continue
        orbits += 1
        cur = key
        while cur not in seen:
            seen.add(cur)
            cur = tuple(tuple(frob[c] for c in part) for part in cur)
        assert cur == key
    return orbits


@pytest.mark.parametrize("spec,d", [(F4, 1), (F4, 2), (F4, 3), (F4, 4),
                                    (F8, 1), (F8, 2), (F8, 3),
                                    (F9, 1), (F9, 2), (F9, 3), (F16, 2)])
def test_galois_orbits_match_enumeration(spec, d):
    res = census_by_disc(spec, d, with_tangent=False, points=False, orbit_count=True)
    assert res.galois_orbits == enumerated_galois_orbits(spec, d)


def test_census_checks_class_total(monkeypatch):
    import p1covers.census as census_mod
    monkeypatch.setattr(census_mod, "_class_total", lambda p, m, d: -1)
    with pytest.raises(ArithmeticError):
        census_by_disc(F3, 2)


@pytest.mark.parametrize("spec", [F2, F3])
def test_census_max_ext_bounds_points_only(spec):
    # some d = 4 classes are ramified at every point of P^1(F_q); the
    # echelon-chart tangent stage needs no extension field for them
    small = census_by_disc(spec, 4, max_ext=1, points=False)
    assert small.to_json() == census_by_disc(spec, 4, points=False).to_json()


def test_census_multisets_match_cover_path():
    # record-level length multisets agree with the per-cover computation
    res = census_by_disc(F3, 3, with_tangent=False)
    by_disc = {str(r.disc): r for r in res.records}
    for cov in enumerate_covers(F3, 3):
        rec = by_disc[str(cov.discriminant())]
        assert rec.length_multiset() == cov.length_multiset()


def assert_tangent_dims_match_object_layer(spec, d):
    # the echelon-chart path inside the census agrees with the chart-form
    # solver of the object layer
    from p1covers import tangent_dim
    res = census_by_disc(spec, d)
    by_disc = {}
    for cov in enumerate_covers(spec, d):
        dim, _ = tangent_dim(cov.normalize(), "xd")
        by_disc.setdefault(str(cov.discriminant()), []).append(dim)
    assert len(by_disc) == len(res.records)
    for rec in res.records:
        expect = {}
        for dim in by_disc[str(rec.disc)]:
            expect[dim] = expect.get(dim, 0) + 1
        assert rec.tangent_dims == expect


def test_census_tangent_dims_match_object_layer():
    assert_tangent_dims_match_object_layer(F3, 3)


# F_2 d = 4 holds classes whose chart form needs F_4; the scaling orbits
# reach size 6 over F_7 and 8 over F_9
@pytest.mark.parametrize("spec,d", [(F2, 1), (F2, 2), (F2, 3), (F2, 4), (F2, 5),
                                    (F4, 3), (F5, 3), (F8, 3), (F7, 3), (F9, 2)])
def test_census_tangent_dims_match_object_layer_over(spec, d):
    assert_tangent_dims_match_object_layer(spec, d)


def test_census_points_flag():
    res = census_by_disc(F3, 2, points=False)
    assert all(rec.lengths is None and not rec.split_ok for rec in res.records)
    res2 = census_by_disc(F3, 2, points=True)
    assert all(rec.lengths is not None for rec in res2.records)


def full_slice(S, d, c2):
    """Reference: every admissible (g, h, disc) with pivots at (0, c2),
    the whole slice in scan order, as the census scanned it before it
    took one class per scaling orbit."""
    q = S.order
    free_g = [j for j in range(1, d + 1) if j != c2]
    free_h = list(range(c2 + 1, d + 1))
    for gvals in iproduct(range(q), repeat=len(free_g)):
        g = [0] * (d + 1)
        g[d] = 1
        for j, v in zip(free_g, gvals):
            g[d - j] = v
        g = raw_trim(g)
        gp = raw_deriv(S, g)
        for hvals in iproduct(range(q), repeat=len(free_h)):
            h = [0] * (d + 1)
            h[d - c2] = 1
            for j, v in zip(free_h, hvals):
                h[d - j] = v
            h = raw_trim(h)
            if len(raw_gcd(S, g, h)) > 1:
                continue
            disc = raw_sub(S, raw_mul(S, h, gp), raw_mul(S, g, raw_deriv(S, h)))
            if disc:
                yield g, h, disc


def counts_and_dims(table):
    return {key: [rec[0], rec[1]] for key, rec in table.items()}


@pytest.mark.parametrize("spec,d", [(spec, d) for spec in (F3, F4, F5, F7, F8, F9)
                                    for d in (1, 2, 3)] + [(F4, 4), (F5, 4)])
def test_scaling_transversal_matches_full_scan(spec, d):
    exp, log = _scaling(spec, d)
    reference, expanded = [], []
    ref_table = {}
    orbit_sizes = 0
    for c2 in range(1, d + 1):
        for g, h, disc in full_slice(spec, d, c2):
            reference.append((tuple(g), tuple(h)))
            rec = ref_table.setdefault(tuple(raw_monic(spec, disc)), [0, {}])
            rec[0] += 1
            dim = _tangent_dim_raw(spec, g, h, d, disc)
            rec[1][dim] = rec[1].get(dim, 0) + 1
        for g, h, disc, s in _admissible(spec, d, c2, log):
            orbit_sizes += s
            expanded.append((tuple(g), tuple(h)))
            expanded.extend((tuple(raw_monic(spec, _substitute(exp, log, g, k))),
                             tuple(raw_monic(spec, _substitute(exp, log, h, k))))
                            for k in range(1, s))
    assert len(set(expanded)) == len(expanded)       # each class exactly once
    assert set(expanded) == set(reference)
    assert orbit_sizes == len(reference) == _class_total(spec.p, spec.m, d)
    table = {}
    for c2 in range(1, d + 1):
        _merge_tables(table, _scan_chunk((spec.p, spec.m, d, c2, (), True)))
    assert counts_and_dims(table) == ref_table
    # a link names its orbit's first key and the scaling that reaches the key
    for key, (_, _, link) in table.items():
        if link is not None:
            first, k = link
            assert table[first][2] is None
            assert tuple(raw_monic(spec, _substitute(exp, log, first, k))) == key


@pytest.mark.parametrize("spec,d", [(F4, 4), (F9, 3)])
def test_prefix_tasks_split_the_slice(spec, d):
    for c2 in range(1, d + 1):
        whole = _scan_chunk((spec.p, spec.m, d, c2, (), True))
        for k in range(1, d):
            tasks = _prefix_tasks(spec, d, c2, k, True)
            assert len(tasks) < spec.order ** k     # unreachable prefixes dropped
            merged = {}
            for task in tasks:
                _merge_tables(merged, _scan_chunk(task))
            assert counts_and_dims(merged) == counts_and_dims(whole)


# F_9 d = 3 stops at F_{9^3}, the largest tabled extension, to keep root
# finding cheap; F_49 d = 2 puts points in F_{49^2}, which has no tables
@pytest.mark.parametrize("spec,d,max_ext", [(F4, 3, 4), (F8, 3, 4), (F9, 3, 3),
                                            (F49, 2, 4)])
def test_census_points_match_direct_root_finding(spec, d, max_ext, monkeypatch):
    import p1covers.census as census_mod
    calls = []

    def counted(*args):
        calls.append(args[1])
        return _materialize_divisor(*args)

    monkeypatch.setattr(census_mod, "_materialize_divisor", counted)
    res = census_by_disc(spec, d, max_ext=max_ext, with_tangent=False, points=True)
    assert len(calls) < len(res.records)           # some points come by scaling
    for rec in res.records:
        want = _materialize_divisor(spec, rec.disc.c, rec.l_inf, max_ext)
        assert (rec.lengths, rec.split_ok) == want, str(rec.disc)


@pytest.mark.parametrize("p,m", [(2, 10), (3, 7)])
def test_scaling_images_without_tables(p, m):
    # no _mul_t in these fields: the images come from the exp/log lists and
    # must match substituting a*x into the polynomial with field products
    S = make_field(p, m)
    assert S._mul_t is None
    exp, log = _scaling(S, 2)
    n = S.order - 1
    assert len(exp) == n and len(set(exp)) == n
    assert all(S.mul(exp[k], exp[1]) == exp[(k + 1) % n] for k in range(0, n, 97))
    rng = random.Random(1000 * p + m)
    for _ in range(40):
        D = [rng.randrange(S.order) for _ in range(rng.randrange(1, 7))]
        D.append(rng.randrange(1, S.order))
        k = rng.randrange(n)
        ax = Poly.monomial(S, 1, FieldElement(S, exp[k]))
        image = Poly.zero(S)
        for c in reversed(Poly._raw(S, D).coeffs()):
            image = image * ax + Poly.constant(S, c)
        assert raw_monic(S, _substitute(exp, log, D, k)) == list(image.monic().c)
