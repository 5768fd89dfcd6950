"""Inverse semigroup and crossed product tests.

Bisection counts were enumerated by hand: a single object group admits
only the empty set and the singletons, the two point pair groupoid has
the empty set, four singletons and two global sections, and a two
point space has the subsets of its unit arrows.

The closure is compared against a pairwise closure on arrow-label tags,
written below without the integer tables.
"""

import numpy as np
import pytest

from gcstar import crossed
from gcstar.crossed import (CovariantRep, PartialBijection,
                            all_bisections, bisection_from_arrows,
                            bisection_semigroup, canonical_iso_cstar,
                            check_covariant_rep, check_crossed_rep,
                            covariant_to_groupoid_rep,
                            crossed_product, etale_battery, germ_classes,
                            germ_reconstruction,
                            group_action_semigroup, groupoid_rep_to_covariant,
                            integrate_covariant, is_wide,
                            partial_isometry_form, rep_of_crossed_to_covariant,
                            semigroup_from_bisections, transformation_theorem)
from gcstar.fingroupoid import (FIXTURE_NAMES, FiniteGroupoid, build_preset,
                                counting_weights, disjoint_union, fixture,
                                pair_groupoid)
from gcstar.hilbmod import module_from_dims
from gcstar.report import VerificationError, max_abs, worst_at
from gcstar.reps import from_cocycle, regular_representation
from gcstar.sampling import SplitMix64, random_cocycle

SWAP = {1: 2, 2: 1}
ROT3 = {1: 2, 2: 3, 3: 1}
SHIFT12 = {x: x % 12 + 1 for x in range(1, 13)}


# ---------------------------------------------------------------------------
# reference: bisections as arrow-label tags, closed pair by pair

def compose_tags(gpd, a, b):
    """Pointwise composites of the two arrow sets."""
    return frozenset(gpd.comp[(g, h)] for g in a for h in b
                     if gpd.src[g] == gpd.rng[h])


def invert_tag(gpd, a):
    return frozenset(gpd.inv[g] for g in a)


def reference_closure(gpd, generators):
    """(elements, mul, star, act) of the closure of the generator tags,
    elements in _sort_key order, by composing every pair of tags."""
    tags = []
    for a in generators:
        tags += [a.tag, invert_tag(gpd, a.tag)]
    tags = list(dict.fromkeys(tags))
    grown = True
    while grown:
        products = [compose_tags(gpd, a, b) for a in tags for b in tags]
        grown = any(c not in tags for c in products)
        tags = list(dict.fromkeys(tags + products))
    elements = sorted((bisection_from_arrows(gpd, t) for t in tags),
                      key=crossed._sort_key)
    place = {a.tag: i for i, a in enumerate(elements)}
    point = {x: i for i, x in enumerate(gpd.objects)}
    mul = [[place[compose_tags(gpd, a.tag, b.tag)] for b in elements]
           for a in elements]
    star = [place[invert_tag(gpd, a.tag)] for a in elements]
    act = [[point[a(x)] if x in a.mapping else -1 for x in gpd.objects]
           for a in elements]
    return elements, mul, star, act


def test_partial_bijection_basics():
    pb = PartialBijection({1: 2, 2: 1}, tag=[(1, 2), (2, 1)])
    assert pb(1) == 2
    assert repr(pb) == "Bisection([(1, 2), (2, 1)])"
    with pytest.raises(ValueError):
        PartialBijection({1: 3, 2: 3}, tag=[(1, 3), (2, 3)])
    with pytest.raises(TypeError):
        PartialBijection({1: 2, 2: 1})


def test_partial_bijection_tags_distinguish():
    a = PartialBijection({1: 1}, tag=[("a",)])
    b = PartialBijection({1: 1}, tag=[("b",)])
    assert a != b
    assert hash(a) != hash(b) or a != b
    assert PartialBijection({1: 1}, tag=[("a",)]) == a


def test_bisection_from_arrows_guard():
    gpd, _ = fixture("P2")
    with pytest.raises(ValueError):
        bisection_from_arrows(gpd, [(1, 1), (2, 1)])


def test_bisection_counts():
    for name, count in (("Z2", 3), ("P2", 7), ("X2", 4)):
        gpd, _ = fixture(name)
        assert len(all_bisections(gpd)) == count


def test_all_bisections_guard():
    gpd = pair_groupoid((1, 2, 3, 4, 5))
    with pytest.raises(ValueError):
        all_bisections(gpd)


def test_compose_invert_bisections():
    gpd, _ = fixture("P2")
    swap = bisection_from_arrows(gpd, [(1, 2), (2, 1)])
    assert compose_tags(gpd, swap.tag, swap.tag) == {(1, 1), (2, 2)}
    assert invert_tag(gpd, swap.tag) == swap.tag
    sgrp = semigroup_from_bisections(gpd, [swap])
    ident = bisection_from_arrows(gpd, [(1, 1), (2, 2)])
    assert sgrp.elements == (ident, swap)
    assert sgrp.mul.tolist() == [[0, 1], [1, 0]]
    assert sgrp.star.tolist() == [0, 1]


def test_full_semigroup_validates():
    for name in ("Z2", "P2", "X2"):
        gpd, _ = fixture(name)
        sgrp = bisection_semigroup(gpd)
        out = sgrp.validate()
        assert out.ok, f"{name}: {out}"
        wide = is_wide(gpd, sgrp)
        assert wide.ok, f"{name}: {wide}"


def test_leq_is_restriction():
    gpd, _ = fixture("P2")
    sgrp = bisection_semigroup(gpd)
    small = bisection_from_arrows(gpd, [(1, 2)])
    big = bisection_from_arrows(gpd, [(1, 2), (2, 1)])
    assert sgrp.leq(small, big)
    assert not sgrp.leq(big, small)
    assert sgrp.leq(big, big)


def test_germ_counts_match_arrows():
    for name in ("Z2", "P2", "X2"):
        gpd, _ = fixture(name)
        sgrp = bisection_semigroup(gpd)
        for side in ("dom", "img"):
            classes, class_of = germ_classes(sgrp, side=side)
            assert len(classes) == len(gpd.arrows), (name, side)


def test_germ_reconstruction_fixtures():
    for name in ("Z2", "P2", "X2"):
        gpd, _ = fixture(name)
        sgrp = bisection_semigroup(gpd)
        out = germ_reconstruction(gpd, sgrp)
        assert out.ok, f"{name}: {out}"


def test_germ_groupoid_needs_units():
    gpd, _ = fixture("P2")
    sgrp = semigroup_from_bisections(
        gpd, [bisection_from_arrows(gpd, [(1, 1)])])
    assert sgrp.validate().ok
    with pytest.raises(VerificationError,
                       match="no idempotent acts at 2; units are missing"):
        germ_reconstruction(gpd, sgrp)


def test_crossed_product_dimension_and_laws():
    for name in ("Z2", "P2", "X2"):
        gpd, _ = fixture(name)
        sgrp = bisection_semigroup(gpd)
        alg = crossed_product(sgrp)
        assert alg.dim == len(gpd.arrows)
        out = alg.check()
        assert out.ok, f"{name}: {out}"
        iso = canonical_iso_cstar(sgrp)
        assert iso.ok, f"{name}: {iso}"


def test_trivial_action_gives_group_algebra():
    gpd, sgrp = group_action_semigroup(3, {1: 1})
    alg = crossed_product(sgrp)
    assert alg.dim == 3
    # the basis order follows the exponent, so the table is addition mod 3
    for i in range(3):
        for j in range(3):
            assert alg.table[i, j] == (i + j) % 3
        assert alg.star_table[i] == (-i) % 3
    assert alg.unit_indices == [0]


def test_swap_crossed_product_is_full_matrix_algebra():
    gpd, sgrp = group_action_semigroup(2, SWAP)
    alg = crossed_product(sgrp)
    assert alg.dim == 4
    # explicit matrix units: the class of (a, x) acts as E[x, preimage]
    theta_inv = {a: {y: z for z, y in sgrp.theta[a].items()}
                 for a in sgrp.elements}
    units = {}
    pos = {1: 0, 2: 1}
    for i, (a, x) in enumerate(alg.basis):
        m = np.zeros((2, 2))
        m[pos[x], pos[theta_inv[a][x]]] = 1.0
        units[i] = m
    for i in range(4):
        for j in range(4):
            got = units[i] @ units[j]
            k = alg.table[i, j]
            want = units[k] if k >= 0 else np.zeros((2, 2))
            assert np.array_equal(got, want), (i, j)


def test_rotation_crossed_product_dimension():
    out = transformation_theorem(3, ROT3)
    assert out.ok, str(out)
    gpd, sgrp = group_action_semigroup(3, ROT3)
    assert crossed_product(sgrp).dim == 9


def test_covariant_roundtrip_regular():
    gpd, w = fixture("P2")
    sgrp = bisection_semigroup(gpd)
    rep = regular_representation(gpd, w)
    cov = groupoid_rep_to_covariant(rep, sgrp)
    assert check_covariant_rep(cov).ok
    assert partial_isometry_form(cov).ok
    alg = crossed_product(sgrp)
    rho, out = integrate_covariant(alg, cov)
    assert out.ok, str(out)
    cov2, out2 = rep_of_crossed_to_covariant(alg, rho)
    assert out2.ok, str(out2)
    back, out3 = covariant_to_groupoid_rep(gpd, w, cov)
    assert out3.ok, str(out3)
    assert np.max(np.abs(back.umap.matrix - rep.umap.matrix)) <= 1e-10


def test_covariant_check_flags_broken_projection():
    gpd, w = fixture("P2")
    sgrp = bisection_semigroup(gpd)
    cov = groupoid_rep_to_covariant(regular_representation(gpd, w), sgrp)
    bad_projs = dict(cov.projections)
    bad_projs[1] = bad_projs[1] * 0.5
    broken = CovariantRep(sgrp, cov.dim, bad_projs, cov.isometries)
    out = check_covariant_rep(broken)
    assert not out.ok


def test_translation_requires_counting_weights():
    gpd, w = fixture("W2")
    sgrp = bisection_semigroup(gpd)
    rep = regular_representation(gpd, w)
    with pytest.raises(ValueError):
        groupoid_rep_to_covariant(rep, sgrp)


def test_etale_battery_fixtures():
    rng = SplitMix64(51)
    for name in ("Z2", "P2", "X2"):
        gpd, w = fixture(name)
        module, blocks = random_cocycle(rng, gpd, w)
        rep = from_cocycle(gpd, w, module, blocks)
        out = etale_battery(gpd, w, rep=rep)
        assert out.ok, f"{name}: {out}"


def test_etale_battery_on_the_empty_groupoid():
    gpd = FiniteGroupoid((), (), {}, {}, {}, {}, {})
    rep = from_cocycle(gpd, {}, module_from_dims((), ("w",), {}), {})
    out = etale_battery(gpd, {}, rep=rep)
    assert out.ok, str(out)


def test_transformation_theorem_swap_with_rep():
    rng = SplitMix64(52)
    gpd, w = fixture("T2")
    module, blocks = random_cocycle(rng, gpd, w, coeff_size=2)
    rep = from_cocycle(gpd, w, module, blocks)
    out = transformation_theorem(2, SWAP, rep=rep)
    assert out.ok, str(out)
    names = {c.name for c in out.checks}
    assert "integrated-agreement" in names
    assert "translation-roundtrip" in names


def _assert_nan_failures(out, first):
    """Checks named in first fail with defect NaN and that witness; the
    others pass."""
    for c in out.checks:
        if c.name in first:
            assert not c.passed and np.isnan(c.defect), c.line()
            assert c.witness == first[c.name], c.line()
        else:
            assert c.passed, c.line()


def test_covariant_checks_fail_on_nan_isometry():
    gpd, w = fixture("P2")
    sgrp = bisection_semigroup(gpd)
    fine = groupoid_rep_to_covariant(regular_representation(gpd, w), sgrp)
    els, n = sgrp.elements, len(sgrp.elements)
    # an all-NaN isometry at the bisection {(1, 2)}
    a = next(i for i, e in enumerate(els) if e.tag == frozenset({(1, 2)}))
    isometries = dict(fine.isometries)
    isometries[els[a]] = np.full((fine.dim, fine.dim), np.nan)
    cov = CovariantRep(sgrp, fine.dim, fine.projections, isometries)
    first = {
        "partial-isometries": els[a],
        "involution": next(els[b] for b in range(n)
                           if a in (b, sgrp.star[b])),
        "restriction": next((els[b], els[c])
                            for b, c in np.argwhere(sgrp.le)
                            if a in (b, c)),
        "covariance": next((els[b], sgrp.carrier[x])
                           for b, x in np.argwhere(sgrp.act >= 0)
                           if b == a),
    }
    _assert_nan_failures(check_covariant_rep(cov), first)
    _assert_nan_failures(partial_isometry_form(cov), {
        "multiplicative": next(sgrp.label((b, c))
                               for (b, c), bc in np.ndenumerate(sgrp.mul)
                               if a in (b, c, bc))})


def _worst_of(pairs):
    """worst_at over the defects of a loop's (defect, witness) pairs, as
    (defect, witness of the winning pair or None)."""
    defects, witnesses = [], []
    for d, witness in pairs:
        defects.append(d)
        witnesses.append(witness)
    d, k = worst_at(np.array(defects))
    return d, None if k is None else witnesses[k]


@pytest.mark.parametrize("points", [2, 3])
def test_batched_covariant_checks_match_pair_loops(points):
    gpd = pair_groupoid(tuple(range(1, points + 1)))
    sgrp = bisection_semigroup(gpd)
    els, act, carrier = sgrp.elements, sgrp.act, sgrp.carrier
    fine = groupoid_rep_to_covariant(
        regular_representation(gpd, counting_weights(gpd)), sgrp)
    # scale the isometry of the first element that is not idempotent
    a = int(np.flatnonzero(~sgrp.idem)[0])
    isometries = dict(fine.isometries)
    isometries[els[a]] = isometries[els[a]] * (1 + 1e-6)
    cov = CovariantRep(sgrp, fine.dim, fine.projections, isometries)

    iso = [cov.isometries[e] for e in els]
    pts = [cov.projections[x] for x in carrier]
    zero = np.zeros((cov.dim, cov.dim), dtype=complex)
    dom = [sum((pts[x] for x in np.flatnonzero(row >= 0)), zero)
           for row in act]
    want = {
        "multiplicative": _worst_of(
            (max_abs(iso[b] @ iso[c] - iso[bc]), (els[b], els[c]))
            for (b, c), bc in np.ndenumerate(sgrp.mul)),
        "restriction": _worst_of(
            (max_abs(iso[b] - iso[c] @ dom[b]), (els[b], els[c]))
            for b, c in np.argwhere(sgrp.le)),
        "covariance": _worst_of(
            (max_abs(iso[b] @ pts[x] @ iso[b].conj().T - pts[act[b, x]]),
             (els[b], carrier[x]))
            for b, x in np.argwhere(act >= 0)),
    }
    got = {c.name: (c.defect, c.witness) for c in
           check_covariant_rep(cov).checks + partial_isometry_form(cov).checks}
    for name, (defect, witness) in want.items():
        assert defect > 1e-7, name
        assert got[name] == (defect, witness), name


def test_crossed_rep_fails_on_nan_operator():
    gpd, w = fixture("P2")
    sgrp = bisection_semigroup(gpd)
    alg = crossed_product(sgrp)
    cov = groupoid_rep_to_covariant(regular_representation(gpd, w), sgrp)
    rho, out = integrate_covariant(alg, cov)
    assert out.ok
    i = 1
    rho[i] = np.full(rho[i].shape, np.nan)
    _assert_nan_failures(check_crossed_rep(alg, rho), {
        "multiplicative": next((j, k) for (j, k), m in
                               np.ndenumerate(alg.table) if i in (j, k, m)),
        "star": next(k for k in range(alg.dim)
                     if i in (k, alg.star_table[k]))})


def test_closure_matches_pairwise_reference(monkeypatch):
    p2, p3 = build_preset("pair", points=2), build_preset("pair", points=3)
    t3 = build_preset("transformation", order=3, action=ROT3)
    groupoids = [fixture(name)[0] for name in ("Z2", "P2", "X2")] + [
        p3, build_preset("pair", points=4), t3, disjoint_union(p2, p2),
        disjoint_union(t3, build_preset("space", points=1))]
    cases = [(gpd, all_bisections(gpd)) for gpd in groupoids]
    # the generators of group_action_semigroup(12, ...), 144 arrows on 12
    # points: a vector's key does not fit an int64, so the closure falls
    # back to fixed-width byte keys
    trafo = build_preset("transformation", order=12, action=SHIFT12)
    assert (len(trafo.arrows) + 1) ** len(trafo.objects) > 2 ** 63
    cases.append((trafo, [bisection_from_arrows(trafo, [(k, x) for x in
                                                       trafo.objects])
                          for k in range(12)]))
    gpd, _ = fixture("P2")
    gens = [bisection_from_arrows(gpd, [(1, 2)]),
            bisection_from_arrows(gpd, [(1, 2), (2, 1)])]
    cases.append((gpd, gens))
    for gpd, generators in cases:
        sgrp = semigroup_from_bisections(gpd, generators)
        elements, mul, star, act = reference_closure(gpd, generators)
        assert sgrp.elements == tuple(elements), gpd
        assert sgrp.mul.tolist() == mul, gpd
        assert sgrp.star.tolist() == star, gpd
        assert sgrp.act.tolist() == act, gpd

    n = len(sgrp.elements)
    monkeypatch.setattr(crossed, "_MAX_ELEMENTS", n - 1)
    with pytest.raises(ValueError, match=f"exceeded {n - 1} elements"):
        semigroup_from_bisections(gpd, gens)
    monkeypatch.setattr(crossed, "_MAX_ELEMENTS", n)
    assert len(semigroup_from_bisections(gpd, gens).elements) == n
    # the guard counts the elements that products add, not the generators
    monkeypatch.setattr(crossed, "_MAX_ELEMENTS", 1)
    assert len(semigroup_from_bisections(gpd, all_bisections(gpd))
               .elements) == 7
    # {(1, 2)} and its inverse pass the guard of 1; the two units and the
    # empty bisection that their products add do not
    with pytest.raises(ValueError, match="exceeded 1 elements"):
        semigroup_from_bisections(gpd, gens[:1])
    monkeypatch.setattr(crossed, "_MAX_ELEMENTS", 4)
    with pytest.raises(ValueError, match="exceeded 4 elements"):
        semigroup_from_bisections(gpd, gens[:1])
    monkeypatch.setattr(crossed, "_MAX_ELEMENTS", 5)
    assert len(semigroup_from_bisections(gpd, gens[:1]).elements) == 5


# ---------------------------------------------------------------------------
# derived tables, built once per semigroup

def _translation_groupoids():
    return [fixture(name)[0] for name in FIXTURE_NAMES] + [
        build_preset("pair", points=3),
        build_preset("transformation", order=3, action=ROT3)]


def test_tag_matrix_matches_tag_membership():
    for gpd in _translation_groupoids():
        sgrp = bisection_semigroup(gpd)
        tags = sgrp.tag_matrix(gpd.arrows)
        assert tags.tolist() == [[g in a.tag for g in gpd.arrows]
                                 for a in sgrp.elements], gpd
        assert sgrp.tag_matrix(gpd.arrows) is tags
        # an arrow order of its own gets a matrix of its own
        back = tuple(reversed(gpd.arrows))
        assert np.array_equal(sgrp.tag_matrix(back), tags[:, ::-1])


def test_semigroup_tables_are_read_only():
    gpd, _ = fixture("P2")
    full = bisection_semigroup(gpd)
    mul = np.array(full.mul)
    sgrp = crossed.InverseSemigroup(full.elements, mul, full.star, full.act,
                                    gpd.objects, full.bisections)
    alg = crossed_product(sgrp)
    for table in (sgrp.mul, sgrp.act, sgrp.star, sgrp.le, sgrp.idem,
                  sgrp.tag_matrix(gpd.arrows), *sgrp.germs, alg.table,
                  alg.star_table):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[0]
    # the semigroup holds a copy: the caller's array stays its own
    mul[0, 0] = 1 - mul[0, 0]
    assert sgrp.mul[0, 0] != mul[0, 0]


@pytest.mark.parametrize("battery", ["etale", "trafo"])
def test_batteries_build_germ_classes_once_per_side(monkeypatch, battery):
    calls = []
    real = crossed.germ_classes

    def counted(sgrp, side="dom"):
        calls.append(side)
        return real(sgrp, side)

    monkeypatch.setattr(crossed, "germ_classes", counted)
    rng = SplitMix64(53)
    if battery == "etale":
        gpd, w = fixture("P2")
    else:
        gpd, _ = group_action_semigroup(3, ROT3)
        w = counting_weights(gpd)
    rep = from_cocycle(gpd, w, *random_cocycle(rng, gpd, w))
    out = (etale_battery(gpd, w, rep=rep) if battery == "etale"
           else transformation_theorem(3, ROT3, rep=rep))
    assert out.ok, str(out)
    assert sorted(calls) == ["dom", "img"]


# ---------------------------------------------------------------------------
# back translation: stacked checks against the loop over arrows and pairs

def reference_back_checks(gpd, cov):
    """(missing, blocks-agree, trisection) of covariant_to_groupoid_rep
    for indicator projections, as (defect, witness) pairs, by one block
    cut per (arrow, covering element) and one product per composable
    pair, reading the tags by membership."""
    sgrp = cov.semigroup
    els = sgrp.elements
    cover = {g: [i for i, a in enumerate(els) if g in a.tag]
             for g in gpd.arrows}
    missing = sorted((g for g in gpd.arrows if not cover[g]), key=str)
    frames = {x: np.eye(cov.dim)[:, np.diag(cov.projections[x]).real > 0.5]
              for x in gpd.objects}

    def cut(a, g):
        return (frames[gpd.rng[g]].conj().T @ cov.isometries[els[a]]
                @ frames[gpd.src[g]])

    agree = _worst_of((_worst_of((max_abs(cut(a, g) - cut(cover[g][0], g)),
                                  None) for a in cover[g][1:])[0], g)
                      for g in gpd.arrows if cover[g])
    tri = []
    for g, h in gpd.composable_pairs():
        if not (cover[g] and cover[h]):
            continue
        ab = sgrp.mul[cover[g][0], cover[h][0]]
        gh = gpd.comp[(g, h)]
        if gh in els[ab].tag:
            tri.append((max_abs(cut(cover[g][0], g) @ cut(cover[h][0], h)
                                - cut(ab, gh)), (g, h)))
    return missing, agree, _worst_of(tri)


def _back_cases():
    """(groupoid, coefficient size, fibre dimensions at seed 55); the
    two orbits of P2 + T3 get fibres of two sizes, so the stacked checks
    cut blocks of more than one shape."""
    t3 = build_preset("transformation", order=3, action=ROT3)
    return [(fixture("P2")[0], 1, {1}), (build_preset("pair", points=3), 1,
                                         {1}),
            (t3, 2, {4}),
            (disjoint_union(build_preset("pair", points=2), t3), 1, {1, 2})]


def _fine_cov(gpd, coeff_size, dims):
    w = counting_weights(gpd)
    rep = from_cocycle(gpd, w, *random_cocycle(
        SplitMix64(55), gpd, w, coeff_size=coeff_size))
    cov = groupoid_rep_to_covariant(rep, bisection_semigroup(gpd))
    assert {len(rep.module.left_fiber(x)) for x in gpd.objects} == dims
    return w, cov


def _back_report(gpd, w, cov):
    _, out = covariant_to_groupoid_rep(gpd, w, cov)
    return {c.name: c for c in out.checks}


@pytest.mark.parametrize("gpd, coeff_size, dims", _back_cases())
def test_back_arrows_covered_matches_reference(gpd, coeff_size, dims):
    w = counting_weights(gpd)
    # the unit bisections of every object but the first cover no other
    # arrow and not the first unit
    units = [bisection_from_arrows(gpd, [gpd.unit[x]])
             for x in gpd.objects[1:]]
    sgrp = semigroup_from_bisections(gpd, units)
    rep = from_cocycle(gpd, w, *random_cocycle(SplitMix64(55), gpd, w))
    cov = groupoid_rep_to_covariant(rep, sgrp)
    missing = reference_back_checks(gpd, cov)[0]
    assert gpd.unit[gpd.objects[0]] in missing
    with pytest.raises(VerificationError) as err:
        covariant_to_groupoid_rep(gpd, w, cov)
    assert str(err.value) == f"arrows not covered by any tag: {missing!r}"


@pytest.mark.parametrize("gpd, coeff_size, dims", _back_cases())
def test_back_blocks_agree_matches_reference(gpd, coeff_size, dims):
    w, fine = _fine_cov(gpd, coeff_size, dims)
    sgrp = fine.semigroup
    got = _back_report(gpd, w, fine)
    assert got["blocks-agree"].passed and got["trisection"].passed
    # scale the isometry of the last element that is not idempotent
    a = int(np.flatnonzero(~sgrp.idem)[-1])
    isometries = dict(fine.isometries)
    isometries[sgrp.elements[a]] = isometries[sgrp.elements[a]] * (1 + 1e-6)
    cov = CovariantRep(sgrp, fine.dim, fine.projections, isometries)
    _, agree, tri = reference_back_checks(gpd, cov)
    got = _back_report(gpd, w, cov)
    assert agree[0] > 1e-7
    assert not got["blocks-agree"].passed
    assert (got["blocks-agree"].defect, got["blocks-agree"].witness) == agree
    assert (got["trisection"].defect, got["trisection"].witness) == tri


@pytest.mark.parametrize("gpd, coeff_size, dims", _back_cases())
def test_back_trisection_matches_reference(gpd, coeff_size, dims):
    w, fine = _fine_cov(gpd, coeff_size, dims)
    sgrp = fine.semigroup
    # scale the block of one arrow that is not a unit in every element
    # through it: blocks still agree, but products through it do not
    g = next(g for g in gpd.arrows if g not in gpd.unit.values())
    rows = np.diag(fine.projections[gpd.rng[g]]).real > 0.5
    cols = np.diag(fine.projections[gpd.src[g]]).real > 0.5
    isometries = {}
    for a, u in fine.isometries.items():
        u = u.copy()
        if g in a.tag:
            u[np.ix_(rows, cols)] *= 1 + 1e-6
        isometries[a] = u
    cov = CovariantRep(sgrp, fine.dim, fine.projections, isometries)
    _, agree, tri = reference_back_checks(gpd, cov)
    got = _back_report(gpd, w, cov)
    assert got["blocks-agree"].passed and agree == (0.0, None)
    assert not got["trisection"].passed and tri[0] > 1e-7
    assert (got["trisection"].defect, got["trisection"].witness) == tri
