"""Census counts, record structure, theorem verification, determinism."""

import json
import random
from itertools import product as iproduct

import pytest

from p1covers import (INF, BudgetExceeded, Cover, Divisor, InputError, Mobius, Poly,
                      SplitBoundExceeded, census_by_disc, enumerate_covers, make_field,
                      raw_plane_count, verify_theorem_char23, wild_family)
from p1covers.census import (CensusRecord, _admissible, _chart_block, _class_total, _images,
                             _materialize_divisor, _merge_tables,
                             _monic_images, _scaling, _scan_chunk, _swapped,
                             _tangent_dim_raw)
from p1covers.cover import _branch_shape
from p1covers.deform import _columns_to_rows, _tangent_columns_raw
from p1covers.field import FieldElement, embed
from p1covers.poly import (raw_add, raw_deriv, raw_gcd, raw_monic, raw_mul, raw_rank,
                           raw_rref, raw_scale, raw_sqf_list, raw_sub, raw_trim)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F7 = make_field(7)
F8 = make_field(2, 3)
F9 = make_field(3, 2)
F11 = make_field(11)
F16 = make_field(2, 4)
F25 = make_field(5, 2)
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
    for budget in (0, -5):
        with pytest.raises(InputError):
            list(enumerate_covers(F3, 2, budget=budget))
        with pytest.raises(InputError):
            census_by_disc(F3, 2, budget=budget)


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


def test_census_parallel_matches_sequential(monkeypatch):
    # two processes must reach the pool, also on a machine with one CPU
    import concurrent.futures
    import os
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pools = []
    pool_type = concurrent.futures.ProcessPoolExecutor

    def recorded(*args, **kwargs):
        pools.append(kwargs)
        return pool_type(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recorded)
    seq = census_by_disc(F3, 4, points=False)
    assert not pools
    par = census_by_disc(F3, 4, points=False, processes=2)
    assert pools == [{"max_workers": 2}]
    assert json.dumps(seq.to_json(), sort_keys=True) == \
        json.dumps(par.to_json(), sort_keys=True)


def test_census_workers_bounded_by_cpu_count(monkeypatch):
    # a huge process count asks for no more workers than CPUs; the fake
    # pool runs its tasks in this process, so no real pool is started
    import concurrent.futures
    import os
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, **kwargs):
            return map(fn, *iterables)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    many = census_by_disc(F3, 3, processes=10 ** 6)
    assert pools == [2]
    one = census_by_disc(F3, 3)
    assert pools == [2]
    assert json.dumps(many.to_json(), sort_keys=True) == \
        json.dumps(one.to_json(), sort_keys=True)


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
    # each record's points, wildness and length multiset agree with the
    # per-cover path, which finds every class's points by direct root
    # finding where the census scales its first key's points (F_8's reach
    # F_{8^4}, which has no tables)
    for spec in (F3, F4, F5, F8):
        res = census_by_disc(spec, 3, max_ext=4, with_tangent=False, points=True)
        by_disc = {str(r.disc): r for r in res.records}
        for cov in enumerate_covers(spec, 3):
            rec = by_disc[str(cov.discriminant())]
            try:
                lengths = cov.differential_lengths(4)
            except SplitBoundExceeded:
                lengths = None
            try:
                wild_family(cov, 4)
                wild = True
            except SplitBoundExceeded:
                wild = True
            except InputError:
                wild = False
            assert ((rec.lengths, rec.split_ok, rec.wild, rec.length_multiset())
                    == (lengths, lengths is not None, wild, cov.length_multiset())), str(cov)


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


def reference_tangent_dim(S, g, h, d, disc):
    """Reference: the xd tangent dimension as the nullity of the whole
    (2d-1)-square system in the plane's echelon chart. g1 and h1 run over
    the monomials x^e, e < d and e != deg h, and one more column is the
    discriminant."""
    dh = len(h) - 1
    cols = _tangent_columns_raw(S, g, h, [e for e in range(d) if e != dh])
    cols.append(disc)
    n = 2 * d - 1
    return n - raw_rank(S, _columns_to_rows(cols, n), n)


def orbit(S, a, s):
    """The monic images a(γ^k x), k < s, as tuples, by field products."""
    powers = S._primitive_powers()
    n = S.order - 1
    return [tuple(raw_monic(S, [S.mul(c, powers[k * i % n]) for i, c in enumerate(a)]))
            for k in range(s)]


def translated(S, a, b):
    """a(x + b) by Horner's rule on the raw layer."""
    out = []
    for c in reversed(a):
        out = raw_add(S, raw_mul(S, out, [b, 1]), [c])
    return out


def affine_orbit_count(S, keys):
    """The orbits of x -> ax + b on a set of monic keys, by field products:
    the orbit of a key is the scaling images of its translates."""
    seen = set()
    count = 0
    for key in keys:
        if key not in seen:
            count += 1
            for b in range(S.order):
                seen.update(orbit(S, tuple(translated(S, list(key), b)), S.order - 1))
    return count


def reversed_key(S, key, d):
    """monic(x^(2d-2) key(1/x)): the key's coefficients padded to 2d - 1,
    read backwards."""
    padded = list(key) + [0] * (2 * d - 1 - len(key))
    return tuple(raw_monic(S, raw_trim(padded[::-1])))


def pgl2_orbit_count(S, d, keys):
    """The orbits of PGL_2(F_q) on a set of monic keys, read as binary
    forms of degree 2d - 2, by field products: the closure of a key under
    translation, scaling and reversal."""
    seen = set()
    count = 0
    for key in keys:
        if key in seen:
            continue
        count += 1
        seen.add(key)
        todo = [key]
        while todo:
            k = todo.pop()
            near = [reversed_key(S, k, d)] + orbit(S, k, S.order - 1) + \
                [tuple(translated(S, list(k), b)) for b in range(S.order)]
            for n in near:
                if n not in seen:
                    seen.add(n)
                    todo.append(n)
    return count


def counting(monkeypatch, name):
    """Replace the census module's `name` by a wrapper that records the
    second argument of each call; returns that list."""
    import p1covers.census as census_mod
    calls = []
    fn = getattr(census_mod, name)

    def counted(*args):
        calls.append(args[1])
        return fn(*args)

    monkeypatch.setattr(census_mod, name, counted)
    return calls


def counts_and_dims(table):
    return {key: [rec[0], rec[1]] for key, rec in table.items()}


def assert_links_canonical(spec, table):
    # a link names the least key of its orbit, whose own link is None, and
    # the least scaling that reaches the key from it
    n = spec.order - 1
    for key, (_, _, link) in table.items():
        keys = orbit(spec, key, n)
        if link is None:
            assert key == min(keys)
        else:
            first, k = link
            assert first == min(keys) and table[first][2] is None
            assert orbit(spec, first, k + 1)[k] == key
            assert key not in orbit(spec, first, k)


def expand_class(S, g, h, s, t):
    """The t s classes that a yielded class stands for: its translates by
    b < t, g re-echelonized against h, and their images under the scaling."""
    out = []
    for b in range(t):
        hb, gb = translated(S, h, b), translated(S, g, b)
        gb = raw_trim(raw_sub(S, gb, raw_scale(S, hb, gb[len(hb) - 1])))
        out += zip(orbit(S, gb, s), orbit(S, hb, s))
    return out


# the sections: g's column 1 (F_3 d = 4 at c2 >= 2, F_5 d = 3, F_2 d = 5),
# a linear h cell (F_9 d = 3, F_3 d = 4 at c2 = 1 with h_2 != 0), and no
# section (F_8 d = 3 at c2 = 1, the b^2 term)
@pytest.mark.parametrize("spec,d", [(spec, d) for spec in (F3, F4, F5, F7, F8, F9)
                                    for d in (1, 2, 3)] + [(F4, 4), (F5, 4), (F3, 4), (F2, 5)])
def test_scaling_transversal_matches_full_scan(spec, d):
    _, log = _scaling(spec, d)
    reference, expanded = [], []
    ref_table = {}
    orbit_sizes = sectioned = 0
    for c2 in range(1, d + 1):
        for g, h, disc in full_slice(spec, d, c2):
            reference.append((tuple(g), tuple(h)))
            rec = ref_table.setdefault(tuple(raw_monic(spec, disc)), [0, {}])
            rec[0] += 1
            dim = reference_tangent_dim(spec, g, h, d, disc)
            rec[1][dim] = rec[1].get(dim, 0) + 1
        for g, h, disc, s, t in _admissible(spec, d, c2, log, {}):
            assert t in (1, spec.order)
            orbit_sizes += s * t
            sectioned += t > 1
            expanded += expand_class(spec, g, h, s, t)
    assert len(set(expanded)) == len(expanded)       # each class exactly once
    assert set(expanded) == set(reference)
    assert orbit_sizes == len(reference) == _class_total(spec.p, spec.m, d)
    assert sectioned or d == 1                      # some slice has a section
    table = _scan_chunk((spec.p, spec.m, d, 0, 1, True))
    assert counts_and_dims(table) == ref_table
    assert_links_canonical(spec, table)


def test_sections_where_the_translations_act():
    # t = q on the slices with a section cell, t = 1 elsewhere
    def ts(spec, d, c2):
        return {t for *_, t in _admissible(spec, d, c2, _scaling(spec, d)[1], {})}
    assert ts(F9, 3, 1) == ts(F9, 3, 2) == {9} and ts(F9, 3, 3) == {1}
    assert ts(F3, 4, 1) == {1, 3} and ts(F3, 4, 2) == ts(F3, 4, 4) == {3}
    assert ts(F8, 3, 1) == {1} and ts(F8, 3, 2) == {8}
    assert ts(F2, 5, 1) == {1, 2}
    # F_3 d = 4, c2 = 1: h = x^3 + h_2 x^2 + h_1 x + h_0 moves h_1 by 2 h_2 b
    _, log = _scaling(F3, 4)
    for g, h, _, _, t in _admissible(F3, 4, 1, log, {}):
        assert (t == 3) == (h[2] != 0)
        assert t == 1 or h[1] == 0
        assert g[3] == 0


@pytest.mark.parametrize("spec,d", [(F3, 4), (F5, 3), (F4, 4), (F9, 3)])
def test_census_counts_are_translation_invariant(spec, d):
    # x -> x + b maps the classes with monic discriminant D one-to-one onto
    # those with D(x + b): every key and each of its translates have the
    # same class count and tangent histogram
    res = census_by_disc(spec, d, points=False)
    by_key = {tuple(r.disc.c): r for r in res.records}
    assert sum(r.class_count for r in res.records) == _class_total(spec.p, spec.m, d)
    for key, rec in by_key.items():
        for b in range(1, spec.order):
            other = by_key[tuple(translated(spec, list(key), b))]
            assert (other.class_count, other.tangent_dims) == (rec.class_count,
                                                               rec.tangent_dims)


@pytest.mark.parametrize("spec,d", [(F3, 4), (F9, 3), (F2, 5), (F8, 3)])
def test_scan_makes_one_monic_key_per_class(spec, d, monkeypatch):
    # each class of an affine orbit gets its own key, made monic in the
    # scan: the monic keys made there count the census's classes, which is
    # how the benchmark's per-layer trace counts them
    calls = counting(monkeypatch, "raw_monic")
    table = _scan_chunk((spec.p, spec.m, d, 0, 1, False))
    assert len(calls) == sum(rec[0] for rec in table.values()) == _class_total(spec.p, spec.m, d)


@pytest.mark.parametrize("spec,max_d", [(F2, 6), (F3, 4)])
def test_tangent_block_matches_full_system(spec, max_d):
    # every scanned class: rank A from the g row's chart block plus the
    # class's own rank of N B(h), against the whole (2d-1)-square system
    low_rank = set()
    for d in range(1, max_d + 1):
        _, log = _scaling(spec, d)
        memo = {}                   # g rows shared across the slices
        for c2 in range(1, d + 1):
            for g, h, disc, _, _ in _admissible(spec, d, c2, log, memo):
                block = _chart_block(spec, g, d, d - c2, memo)
                if block[1] < d:
                    low_rank.add(tuple(g))
                assert (_tangent_dim_raw(spec, block, h)
                        == reference_tangent_dim(spec, g, h, d, disc)), (g, h)
    # g in k[x^p] has g' = 0, so T_g(x^e) vanishes for p | e
    assert (0, 0, 1, 0, 1) in low_rank if spec is F2 else (0, 0, 0, 1) in low_rank


@pytest.mark.parametrize("spec,d", [(F2, 6), (F3, 4), (F4, 4), (F9, 3)])
def test_scan_parts_merge_to_one_scan(spec, d):
    # the parts of a split each take every parts-th g row of each slice:
    # merged, they give the one-part table, links included, and each part
    # does only some of the work
    whole = _scan_chunk((spec.p, spec.m, d, 0, 1, True))
    total = _class_total(spec.p, spec.m, d)
    assert sum(rec[0] for rec in whole.values()) == total
    assert_links_canonical(spec, whole)
    for parts in (2, 3, 4):
        merged = {}
        for part in range(parts):
            table = _scan_chunk((spec.p, spec.m, d, part, parts, True))
            assert sum(rec[0] for rec in table.values()) < total
            merged = _merge_tables(merged, table)
        assert merged == whole


@pytest.mark.parametrize("spec,d", [(F2, 6), (F3, 4), (F4, 3), (F9, 3)])
def test_shared_scan_matches_per_slice_scans(spec, d):
    # the slices of one task share their g rows and their table: the same
    # counts and dimensions as scanning each slice alone with its own memo
    # and expanding each class by substitution, and its links still name
    # first keys
    shared = _scan_chunk((spec.p, spec.m, d, 0, 1, True))
    _, log = _scaling(spec, d)
    alone = {}
    for c2 in range(1, d + 1):
        memo = {}
        for g, h, disc, s, t in _admissible(spec, d, c2, log, memo):
            dim = _tangent_dim_raw(spec, _chart_block(spec, g, d, d - c2, memo), h)
            D = raw_monic(spec, disc)
            for b in range(t):
                for key in orbit(spec, translated(spec, D, b), s):
                    rec = alone.setdefault(key, [0, {}])
                    rec[0] += 1
                    rec[1][dim] = rec[1].get(dim, 0) + 1
    assert counts_and_dims(shared) == alone
    assert_links_canonical(spec, shared)


@pytest.mark.parametrize("spec,d", [(F4, 4), (F9, 3)])
def test_prefix_tasks_split_the_slice(spec, d):
    # within one slice, the parts of a split take disjoint shares of its g
    # rows, and together they yield exactly the slice's classes
    _, log = _scaling(spec, d)
    for c2 in range(1, d + 1):
        def classes(part, parts):
            return [(tuple(g), tuple(h), tuple(disc), s, t)
                    for g, h, disc, s, t in _admissible(spec, d, c2, log, {}, part, parts)]
        whole = classes(0, 1)
        n_rows = len({cls[0] for cls in whole})
        for parts in (2, 3, 4):
            split = [classes(part, parts) for part in range(parts)]
            rows = [{cls[0] for cls in share} for share in split]
            assert sum(map(len, rows)) == n_rows        # no g row in two parts
            if n_rows >= parts:
                assert all(len(share) < len(whole) for share in split)
            assert sorted(cls for share in split for cls in share) == sorted(whole)


# F_2 d = 6 has no g section (2 | 6); F_3 d = 4 drops g's column 1 at c2 >= 2,
# so its g rows are those of the c2 = 1 slice
@pytest.mark.parametrize("spec,d,visits,distinct", [(F2, 6, 192, 63), (F3, 4, 39, 18)])
def test_g_row_work_once_per_census(spec, d, visits, distinct, monkeypatch):
    # a g row is scanned in every slice where its cell c2 is zero; its
    # factors and T_g columns are built once per census all the same, and
    # a second census builds them again, so no cache outlives a call
    import p1covers.census as census_mod
    _, log = _scaling(spec, d)
    scanned = []
    for c2 in range(1, d + 1):
        free_g = census_mod._free_g(spec.p, d, c2)
        scanned += [tuple(census_mod._row(d, 0, free_g, vals))
                    for vals, _ in census_mod._g_starts(log, d, c2, spec.p)]
    rows = set(scanned)
    assert (len(scanned), len(rows)) == (visits, distinct)
    n_factored = sum(len(raw_sqf_list(spec, list(g))) for g in rows)
    columns, factored = [], []
    t_columns, factor_sqf = census_mod.raw_T_columns, census_mod.raw_factor_sqf

    def counted_columns(S, g, exps):
        columns.append(tuple(g))
        return t_columns(S, g, exps)

    def counted_factor(S, f):
        factored.append(tuple(f))
        return factor_sqf(S, f)

    monkeypatch.setattr(census_mod, "raw_T_columns", counted_columns)
    monkeypatch.setattr(census_mod, "raw_factor_sqf", counted_factor)
    for _ in range(2):
        columns.clear()
        factored.clear()
        census_by_disc(spec, d, points=True)
        assert sorted(columns) == sorted(rows)
        assert len(factored) == n_factored


@pytest.mark.parametrize("spec,d", [(F3, 4), (F9, 3), (F2, 5), (F5, 3)])
def test_census_reads_one_length_structure_per_record(spec, d, monkeypatch):
    # the census reads each record's length structure once: the records
    # the benchmark's per-layer trace counts are these reads
    calls = counting(monkeypatch, "_length_structure")
    res = census_by_disc(spec, d, points=True)
    assert len(calls) == len(res.records)


@pytest.mark.parametrize("spec,d", [(F2, 6), (F3, 4), (F5, 3), (F8, 3), (F9, 3)])
def test_census_makes_one_branch_shape_per_affine_orbit_of_keys(spec, d, monkeypatch):
    # the keys of one PGL_2 orbit have Moebius-moved branch data, so the
    # census makes one branch shape per PGL_2 orbit of keys, fewer than
    # its x -> ax + b orbits
    calls = counting(monkeypatch, "_branch_shape")
    res = census_by_disc(spec, d, with_tangent=False, points=False)
    keys = [tuple(r.disc.c) for r in res.records]
    assert len(calls) == len(set(calls)) == pgl2_orbit_count(spec, d, keys)
    assert len(calls) < affine_orbit_count(spec, keys)


# F_9 d = 3 stops at F_{9^3}, the largest tabled extension, to keep root
# finding cheap; F_49 d = 2 puts points in F_{49^2}, which has no tables;
# most F_5 d = 3 keys do not split over F_5 itself, and their translates
# take (None, False) from them
@pytest.mark.parametrize("spec,d,max_ext", [(F4, 3, 4), (F8, 3, 4), (F9, 3, 3),
                                            (F49, 2, 4), (F5, 3, 2), (F7, 3, 4),
                                            (F3, 4, 4), (F5, 3, 1)])
def test_census_points_match_direct_root_finding(spec, d, max_ext, monkeypatch):
    # points are found once per PGL_2 orbit of keys and moved to the
    # other keys, which must get the points of their own root finding
    calls = counting(monkeypatch, "_materialize_divisor")
    res = census_by_disc(spec, d, max_ext=max_ext, with_tangent=False, points=True)
    keys = [tuple(r.disc.c) for r in res.records]
    assert len(calls) == pgl2_orbit_count(spec, d, keys)
    for rec in res.records:
        want = _materialize_divisor(spec, rec.disc.c, rec.l_inf, max_ext)
        assert (rec.lengths, rec.split_ok) == want, str(rec.disc)
    if max_ext == 1:
        assert sum(not r.split_ok for r in res.records) == 370 and len(res.records) == 445


def assert_branch_data_per_key(spec, d, with_tangent=True):
    # every record's JSON equals the one built from its own key's branch
    # shape and divisor
    res = census_by_disc(spec, d, with_tangent=with_tangent, points=True)
    for rec in res.records:
        finite, l_inf, profile, wild, _ = _branch_shape(spec, rec.disc.c, d)
        lengths, split_ok = _materialize_divisor(spec, rec.disc.c, l_inf, 4)
        want = CensusRecord(disc=rec.disc, lengths=lengths, finite_lengths=finite,
                            l_inf=l_inf, class_count=rec.class_count,
                            tangent_dims=rec.tangent_dims, wild=wild, split_ok=split_ok,
                            factor_profile=profile)
        assert json.dumps(rec.to_json()) == json.dumps(want.to_json())
    return res


@pytest.mark.parametrize("spec", [F2, F3, F4])
@pytest.mark.parametrize("d", [1, 2])
def test_census_branch_data_matches_per_key_recomputation(spec, d):
    # small degrees: no scaling lists at d = 1, q - 1 = 1 over F_2, and
    # constant keys
    res = assert_branch_data_per_key(spec, d)
    if d == 1:
        assert [tuple(r.disc.c) for r in res.records] == [(1,)]


@pytest.mark.parametrize("spec,d", [(F5, 3), (F7, 3), (F3, 4), (F2, 6), (F4, 4), (F11, 3)])
def test_census_moved_branch_data_matches_per_key_recomputation(spec, d):
    # censuses where a translate's or a reversal's points are moved by
    # b != 0 or x -> 1/(x - b) and then by a scaling γ^(e - k) with e != k
    assert_branch_data_per_key(spec, d, with_tangent=False)


@pytest.mark.parametrize("spec,d", [(F2, 6), (F3, 4), (F5, 3)])
def test_reversal_shape_matches_branch_shape(spec, d):
    # every reversal monic(x^(2d-2) t(1/x)) of every translate t of every
    # key gets the key's shape with the lengths at 0 and infinity swapped
    keys = [tuple(r.disc.c) for r in census_by_disc(spec, d, with_tangent=False,
                                                    points=False).records]
    for key in keys:
        finite, l_inf, profile, wild, _ = _branch_shape(spec, key, d)
        for b in range(spec.order):
            t = translated(spec, list(key), b)
            z = next(i for i, c in enumerate(t) if c)
            rev = reversed_key(spec, t, d)
            assert rev in keys
            assert (*_swapped(finite, profile, z, l_inf), z, wild) == \
                tuple(_branch_shape(spec, rev, d)[i] for i in (0, 2, 1, 3)), (key, b)


@pytest.mark.parametrize("spec", [F4, F8, F9, F25, F49])
def test_monic_images_match_field_products(spec):
    # the scaling images of a monic key from the exp/log lists, for every
    # orbit length s and keys of degree 0 to 2d - 2
    d = 3
    exp, log = _scaling(spec, d)
    rng = random.Random(spec.order)
    for n in range(2 * d - 1):
        for _ in range(4):
            key = tuple([rng.randrange(spec.order) for _ in range(n)] + [1])
            for s in range(1, spec.order):
                assert _monic_images(exp, log, key, s) == orbit(spec, key, s)


# points in the tabled F_{3^4} and the untabled F_{7^4}, moved by b and a
# from the base field, a proper subfield, or the points' field itself
@pytest.mark.parametrize("base,T", [(F9, make_field(3, 4)), (F3, make_field(3, 4)),
                                    (F49, make_field(7, 4)), (F7, make_field(7, 4)),
                                    (make_field(7, 4), make_field(7, 4))])
def test_moved_divisor_matches_elementwise_move(base, T):
    rng = random.Random(T.order + base.order)
    codes = rng.sample(range(T.order), 7)
    div = Divisor([(FieldElement(T, c), rng.randrange(1, 4)) for c in codes] + [(INF, 2)])
    nonzero = rng.randrange(1, base.order)
    for b, a in [(0, nonzero), (nonzero, 1), (rng.randrange(1, base.order), nonzero), (0, 1)]:
        eb, ea = embed(FieldElement(base, b), T), embed(FieldElement(base, a), T)
        want = Divisor([(pt if pt is INF else (pt - eb) * ea, m) for pt, m in div.items()],
                       spec=T)
        moved = div.moved(base, a, base.neg(base.mul(a, b)), 0, 1)
        assert moved == want and moved.items() == want.items()
        assert moved.to_json() == want.to_json()
    only_inf = Divisor([(INF, 4)])
    assert only_inf.moved(base, 1, base.neg(1), 0, 1) is only_inf


# x -> (a x + b) / (c x + e) with a, b, c, e from the base field, on codes,
# against FieldElement arithmetic in the tabled F_{3^4} and the untabled
# F_{7^4}
@pytest.mark.parametrize("base,T", [(F9, make_field(3, 4)), (F3, make_field(3, 4)),
                                    (F49, make_field(7, 4)), (F7, make_field(7, 4))])
def test_mobius_divisor_matches_field_arithmetic(base, T):
    rng = random.Random(T.order + 3 * base.order)

    def moved(div, m):
        a, b, c, e = (embed(FieldElement(base, v), T) for v in m)
        pairs = []
        for pt, mult in div.items():
            if pt is INF:
                pt = a / c if c else INF
            else:
                den = c * pt + e
                pt = (a * pt + b) / den if den else INF
            pairs.append((pt, mult))
        return Divisor(pairs, spec=T)

    def check(div, m, spec):
        got, want = div.moved(base, *m), moved(div, m)
        assert got == want and got.items() == want.items(), m
        assert got.to_json() == want.to_json() and got.spec == spec

    r = rng.randrange(1, base.order)                 # a point of the base field
    er = embed(FieldElement(base, r), T).code
    codes = [0, er] + rng.sample([c for c in range(1, T.order) if c != er], 5)
    finite = [(FieldElement(T, c), rng.randrange(1, 4)) for c in codes]
    with_inf = Divisor(finite + [(INF, 2)])
    only_finite = Divisor(finite)
    flip = (0, 1, 1, base.neg(r))                    # x -> 1/(x - r): r -> INF, INF -> 0
    # x -> 1/x takes 0 to INF and INF to 0
    matrices = [flip, (0, 1, 1, 0), (1, 0, 0, 1), (r, 0, 0, 1), (1, r, 0, 1)]
    while len(matrices) < 12:
        m = tuple(rng.randrange(base.order) for _ in range(4))
        if base.mul(m[0], m[3]) != base.mul(m[1], m[2]):
            matrices.append(m)
    for m in matrices:
        check(with_inf, m, T)
        check(only_finite, m, T)
    assert with_inf.multiplicity(FieldElement(T, er)) == \
        with_inf.moved(base, *flip).multiplicity(INF)
    # INF-only: moved onto a point of the base field, or kept by an affine map
    only_inf = Divisor([(INF, 4)])
    assert only_inf.moved(base, *flip).items() == [(FieldElement(base, 0), 4)]
    assert only_inf.moved(base, *flip).spec == base
    assert only_inf.moved(base, r, 1, 0, 1) is only_inf
    # a finite-only divisor whose one point goes to INF has no field left
    lone = Divisor([(FieldElement(T, er), 3)])
    assert lone.moved(base, *flip).items() == [(INF, 3)]
    assert lone.moved(base, *flip).spec is None


@pytest.mark.parametrize("p,m", [(2, 10), (3, 7)])
def test_scaling_images_without_tables(p, m):
    # no mul table in these fields: the images come from the exp/log lists
    # and must match substituting a*x into the polynomial with field products
    S = make_field(p, m)
    assert not isinstance(S._mul_t, list)
    exp, log = _scaling(S, 4)         # images of degree below 8
    n = S.order - 1
    assert len(exp) == 7 * n and len(set(exp)) == n
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
        assert raw_monic(S, list(_images(exp, log, D, k + 1))[k]) == list(image.monic().c)
