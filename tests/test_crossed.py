"""Inverse semigroup and crossed product tests.

Bisection counts were enumerated by hand: a single object group admits
only the empty set and the singletons, the two point pair groupoid has
the empty set, four singletons and two global sections, and a two
point space has the subsets of its unit arrows.
"""

import numpy as np
import pytest

from gcstar import crossed
from gcstar.crossed import (CovariantRep, PartialBijection,
                            all_bisections, bisection_from_arrows,
                            bisection_semigroup, canonical_iso_cstar,
                            check_covariant_rep, check_crossed_rep,
                            compose_bisections, covariant_to_groupoid_rep,
                            crossed_product, etale_battery, germ_classes,
                            germ_reconstruction,
                            group_action_semigroup, groupoid_rep_to_covariant,
                            integrate_covariant, invert_bisection, is_wide,
                            partial_isometry_form, rep_of_crossed_to_covariant,
                            semigroup_from_bisections, transformation_theorem)
from gcstar.fingroupoid import fixture, pair_groupoid
from gcstar.report import VerificationError
from gcstar.reps import from_cocycle, regular_representation
from gcstar.sampling import SplitMix64, random_cocycle

SWAP = {1: 2, 2: 1}
ROT3 = {1: 2, 2: 3, 3: 1}


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
    ident = compose_bisections(gpd, swap, swap)
    assert ident.tag == frozenset([(1, 1), (2, 2)])
    assert invert_bisection(gpd, swap).tag == frozenset([(1, 2), (2, 1)])


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


def test_closure_composes_each_ordered_pair_once(monkeypatch):
    gpd, _ = fixture("P2")
    calls = []

    def counting(gpd, a, b):
        calls.append((a, b))
        return compose_bisections(gpd, a, b)

    gens = [bisection_from_arrows(gpd, [(1, 2)]),
            bisection_from_arrows(gpd, [(1, 2), (2, 1)])]
    monkeypatch.setattr(crossed, "compose_bisections", counting)
    sgrp = semigroup_from_bisections(gpd, gens)
    n = len(sgrp.elements)
    assert len(calls) == n * n
    assert len(set(calls)) == n * n
    full = bisection_semigroup(gpd)
    assert sgrp.elements == full.elements
    assert np.array_equal(sgrp.mul, full.mul)
    assert np.array_equal(sgrp.star, full.star)
    monkeypatch.setattr(crossed, "_MAX_ELEMENTS", n - 1)
    with pytest.raises(ValueError, match=f"exceeded {n - 1} elements"):
        semigroup_from_bisections(gpd, gens)
    monkeypatch.setattr(crossed, "_MAX_ELEMENTS", n)
    assert len(semigroup_from_bisections(gpd, gens).elements) == n
