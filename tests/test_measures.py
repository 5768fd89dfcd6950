"""Measure family tests.

The W2 weight tables below were computed by hand from the fixture
weights c(1)=1, c(2)=4 before the library existed; the pair (g, h) of
the pair groupoid is written through its three points (i, j, k) with
g = (i, j), h = (j, k).
"""

import math

import pytest

from gcstar.fingroupoid import FIXTURE_NAMES, fixture
from gcstar.measures import (Correspondence, arrow_correspondence,
                             check_corr_isomorphism, check_family_identities,
                             check_iterated_integrals, compare_integrals,
                             compose_families, corr_ratio,
                             family_correspondence, fibre_product,
                             groupoid_families, haar_system)
from gcstar.sampling import SplitMix64


def pair_key(i, j, k):
    return ((i, j), (j, k))


W2_MU0 = {(i, j, k): {1: 1.0, 2: 4.0}[j] * {1: 1.0, 2: 4.0}[k]
          for i in (1, 2) for j in (1, 2) for k in (1, 2)}
W2_MU1 = {(i, j, k): {1: 1.0, 2: 4.0}[i] * {1: 1.0, 2: 4.0}[k]
          for i in (1, 2) for j in (1, 2) for k in (1, 2)}
W2_MU2 = {(i, j, k): {1: 1.0, 2: 4.0}[i] * {1: 1.0, 2: 4.0}[j]
          for i in (1, 2) for j in (1, 2) for k in (1, 2)}


def test_alpha_fiber_and_integral_w2():
    gpd, w = fixture("W2")
    alpha, alpha_r = haar_system(gpd, w)
    ones = {g: 1.0 for g in gpd.arrows}
    # the fiber over each object carries total mass c(1)+c(2) = 5
    assert alpha.integrate(ones) == {1: 5.0, 2: 5.0}
    assert set(alpha.fiber(1)) == {(1, 1), (1, 2)}
    assert alpha.weight[(1, 2)] == 4.0   # c(src) = c(2)
    assert alpha_r.weight[(1, 2)] == 1.0  # c(rng) = c(1)


def test_lambda_weights_w2():
    gpd, w = fixture("W2")
    fam = groupoid_families(gpd, w)
    p = pair_key(1, 2, 1)
    assert fam.lam0.weight[p] == 1.0   # c(rng g) = c(1)
    assert fam.lam1.weight[p] == 4.0   # c(rng h) = c(2)
    assert fam.lam2.weight[p] == 1.0   # c(src h) = c(1)


def test_mu_tables_w2_frozen():
    gpd, w = fixture("W2")
    fam = groupoid_families(gpd, w)
    assert len(fam.mu0.points) == 8
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                p = pair_key(i, j, k)
                assert fam.mu0.weight[p] == W2_MU0[(i, j, k)]
                assert fam.mu1.weight[p] == W2_MU1[(i, j, k)]
                assert fam.mu2.weight[p] == W2_MU2[(i, j, k)]


def test_family_identities_all_fixtures():
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        rep = check_family_identities(gpd, w)
        assert rep.ok, str(rep)
        assert rep.max_defect() == 0.0


def test_compose_families_weight_is_product():
    gpd, w = fixture("W2")
    fam = groupoid_families(gpd, w)
    comp = compose_families(fam.lam0, fam.alpha_r)
    p = pair_key(2, 1, 2)
    # lam0 carries c(rng g) = c(2) = 4; the face lands on h = (1, 2)
    # whose alpha_r weight is c(rng h) = c(1) = 1
    assert comp.weight[p] == 4.0


def test_compare_integrals_hand_case():
    gpd, w = fixture("W2")
    psi = {p: 0.0 for p in gpd.composable_pairs()}
    psi[pair_key(1, 2, 1)] = 1.0
    left, right = compare_integrals(gpd, w, psi)
    # only k = g h = (1, 1) contributes, weight c(src g) c(rng k) = 4
    assert left == {1: 4.0, 2: 0.0}
    assert right == {1: 4.0, 2: 0.0}


def test_iterated_integrals_random():
    rng = SplitMix64(5)
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        funcs = [{p: rng.cgauss() for p in gpd.composable_pairs()}
                 for _ in range(10)]
        rep = check_iterated_integrals(gpd, w, funcs)
        assert rep.ok, str(rep)


def test_arrow_correspondence_weights():
    gpd, w = fixture("W2")
    cs = arrow_correspondence(gpd, w, "s")
    assert cs.bmap[(1, 2)] == 1 and cs.fmap[(1, 2)] == 2
    assert cs.weight[(1, 2)] == 1.0
    assert cs.weight[(2, 1)] == 4.0
    cr = arrow_correspondence(gpd, w, "r")
    assert cr.bmap[(1, 2)] == 2 and cr.fmap[(1, 2)] == 1
    assert cr.weight[(1, 2)] == 4.0


def test_fibre_product_matches_mu2():
    gpd, w = fixture("W2")
    cs = arrow_correspondence(gpd, w, "s")
    fp = fibre_product(cs, cs)
    fam = groupoid_families(gpd, w)
    assert set(fp.points) == set(fam.mu2.points)
    for p in fp.points:
        assert fp.weight[p] == fam.mu2.weight[p]


def test_corr_isomorphism_positive():
    gpd, w = fixture("W2")
    alpha, _ = haar_system(gpd, w)
    c1 = family_correspondence(alpha)
    c2 = Correspondence(c1.left_space, c1.right_space, c1.points,
                        c1.bmap, c1.fmap,
                        {p: 2.0 * c1.weight[p] for p in c1.points})
    phi = {p: p for p in c1.points}
    delta = {x: 0.5 for x in gpd.objects}
    rep = check_corr_isomorphism(c1, c2, phi, delta)
    assert rep.ok, str(rep)
    assert corr_ratio(c1, c2, phi) == delta


def test_corr_isomorphism_wrong_delta():
    gpd, w = fixture("W2")
    alpha, _ = haar_system(gpd, w)
    c1 = family_correspondence(alpha)
    phi = {p: p for p in c1.points}
    rep = check_corr_isomorphism(
        c1, c1, phi, {x: 2.0 for x in gpd.objects})
    assert not rep.ok


def test_corr_isomorphism_detects_nonbijection():
    gpd, w = fixture("W2")
    alpha, _ = haar_system(gpd, w)
    c1 = family_correspondence(alpha)
    first = c1.points[0]
    phi = {p: first for p in c1.points}
    rep = check_corr_isomorphism(c1, c1, phi, {x: 1.0 for x in gpd.objects})
    assert not rep.ok


def test_corr_ratio_inconsistent_raises():
    gpd, w = fixture("W2")
    alpha, _ = haar_system(gpd, w)
    c1 = family_correspondence(alpha)
    weights = dict(c1.weight)
    # break constancy over the fiber of object 1
    weights[(1, 1)] *= 3.0
    c2 = Correspondence(c1.left_space, c1.right_space, c1.points,
                        c1.bmap, c1.fmap, weights)
    with pytest.raises(ValueError):
        corr_ratio(c1, c2, {p: p for p in c1.points})


def test_measure_family_rejects_nonpositive():
    gpd, w = fixture("P2")
    alpha, _ = haar_system(gpd, w)
    bad = dict(alpha.weight)
    bad[(1, 1)] = 0.0
    from gcstar.measures import MeasureFamily
    with pytest.raises(ValueError):
        MeasureFamily(alpha.points, alpha.target, alpha.fmap, bad)


def test_iterated_integrals_fail_on_nan():
    gpd, w = fixture("W2")
    rng = SplitMix64(5)
    pairs = gpd.composable_pairs()
    psi = {p: rng.cgauss() for p in pairs}
    psi[pairs[-1]] = complex(math.nan, 0.0)
    left, right = compare_integrals(gpd, w, psi)
    first = next(x for x in gpd.objects
                 if math.isnan(abs(left[x] - right[x])))
    out = check_iterated_integrals(gpd, w, [psi])
    check = out.checks[0]
    assert not check.passed and math.isnan(check.defect)
    assert check.witness == first
