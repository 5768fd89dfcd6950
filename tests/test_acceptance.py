"""Acceptance battery.

One test per criterion; running pytest -v prints one pass or fail line
for each.  Every expected number in here was computed by hand or
against an independent route before being frozen, and the tolerances
are the contract tolerances, not looser ones.
"""

import numpy as np
import pytest

from gcstar.convalg import cstar_norm, delta_function, i_norm
from gcstar.crossed import (CrossedProductAlgebra, bisection_semigroup,
                            etale_battery, group_action_semigroup,
                            transformation_theorem)
from gcstar.fingroupoid import (FIXTURE_NAMES, arrow_weights,
                                counting_weights, fixture, space_groupoid,
                                validate_groupoid, validate_haar)
from gcstar.hilbmod import ModuleMap, check_gamma, module_from_dims
from gcstar.intdis import (check_integrated_intertwiner, check_naturality,
                           conv_rep_of, disintegrate, integrate_rep,
                           integration_bound, oracle_integrate, roundtrip_rep)
from gcstar.measures import check_family_identities, check_iterated_integrals
from gcstar.reps import (blockwise, check_intertwiner, check_representation,
                         from_cocycle, induce, regular_representation)
from gcstar.sampling import (SplitMix64, mutate_groupoid, random_cocycle,
                             random_function, random_groupoid)
from test_arrow_codes import dense_operator_norm, dense_regular_matrix
from test_measures import views
from test_modmap_entries import tensor_map


def checks_by_name(report):
    return {c.name: c for c in report.checks}


def test_criterion_01_groupoid_haar_axioms():
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        assert validate_groupoid(gpd).ok, name
        assert validate_haar(gpd, arrow_weights(gpd, w)).ok, name

    rng = SplitMix64(101)
    for t in range(50):
        gpd, w = random_groupoid(rng)
        assert len(gpd.objects) <= 4 and len(gpd.arrows) <= 12
        assert validate_groupoid(gpd).ok, t
        assert validate_haar(gpd, arrow_weights(gpd, w)).ok, t

    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        for t in range(20):
            mgpd, mw, kind = mutate_groupoid(rng, gpd, w)
            out = validate_groupoid(mgpd)
            if out.ok:
                out = validate_haar(mgpd, mw)
            assert not out.ok, (name, t, kind)
            assert any(c.witness is not None for c in out.failures()), \
                (name, t, kind)


def test_criterion_02_measure_identities():
    rng = SplitMix64(102)
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        fam = check_family_identities(gpd, w)
        assert fam.ok and fam.max_defect() == 0.0, f"{name}: {fam}"
        funcs = [{p: rng.cgauss() for p in gpd.composable_pairs()}
                 for _ in range(100)]
        ex = check_iterated_integrals(gpd, w, funcs)
        assert ex.ok, f"{name}: {ex}"


def test_criterion_03_canonical_isomorphisms():
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        out = check_gamma(gpd, w, tol=1e-12)
        assert out.ok and out.max_defect() <= 1e-12, f"{name}: {out}"


def test_criterion_04_regular_representation():
    def delta_agreement(gpd, w):
        reg = regular_representation(gpd, w)
        worst = 0.0
        for g in gpd.arrows:
            lit = integrate_rep(reg, delta_function(gpd, g)).matrix
            ref = dense_regular_matrix(gpd, w, delta_function(gpd, g)).matrix
            worst = max(worst, float(np.max(np.abs(lit - ref))))
        return reg, worst

    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        reg, worst = delta_agreement(gpd, w)
        out = check_representation(reg, tol=1e-10)
        assert out.ok and out.max_defect() < 1e-10, f"{name}: {out}"
        assert worst <= 1e-10, name

    rng = SplitMix64(104)
    for t in range(20):
        gpd, w = random_groupoid(rng)
        reg, worst = delta_agreement(gpd, w)
        out = check_representation(reg, tol=1e-10)
        assert out.ok and out.max_defect() < 1e-10, f"{t}: {out}"
        assert worst <= 1e-10, t


def test_criterion_05_integration_bounds():
    rng = SplitMix64(105)
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        rep = None
        for t in range(200):
            if t % 10 == 0:
                module, blocks = random_cocycle(rng, gpd, w)
                rep = from_cocycle(gpd, w, module, blocks)
            f = random_function(rng, gpd)
            norm = dense_operator_norm(integrate_rep(rep, f))
            bound = integration_bound(gpd, w, f)
            inorm = i_norm(gpd, w, f)
            assert bound - norm >= -1e-9, (name, t)
            assert inorm - bound >= -1e-9, (name, t)

    # equality case: the swap cocycle on the two element group
    gpd, w = fixture("Z2")
    module = module_from_dims(gpd.objects, ("w",), {("x", "w"): 2})
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    rep = from_cocycle(gpd, w, module, [np.eye(2, dtype=complex), swap])
    f = delta_function(gpd, 0) + delta_function(gpd, 1)
    norm = dense_operator_norm(integrate_rep(rep, f))
    bound = integration_bound(gpd, w, f)
    assert abs(norm - bound) <= 1e-9
    assert abs(bound - i_norm(gpd, w, f)) <= 1e-9
    assert abs(norm - 2.0) <= 1e-9
    assert abs(cstar_norm(gpd, w, f) - 2.0) <= 1e-9


def test_criterion_06_roundtrips():
    rng = SplitMix64(106)
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        for t in range(20):
            coeff = 1 + t % 2
            module, blocks = random_cocycle(rng, gpd, w, coeff_size=coeff)
            rep = from_cocycle(gpd, w, module, blocks)
            out = roundtrip_rep(rep, tol=1e-9)
            assert out.ok, f"{name} trial {t}: {out}"
            # integrating the disintegration gives back the operators:
            # its frame intertwines them (integrated-commutes)
            conv = conv_rep_of(rep)
            rep2, _ = disintegrate(conv, tol=1e-9)
            out = check_naturality(rep, conv, rep2, tol=1e-9)
            assert out.ok, f"{name} trial {t}: {out}"


def test_criterion_07_two_path_oracle():
    rng = SplitMix64(107)
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        for t in range(5):
            module, blocks = random_cocycle(rng, gpd, w,
                                            coeff_size=1 + t % 2)
            rep = from_cocycle(gpd, w, module, blocks)
            funcs = [delta_function(gpd, g) for g in gpd.arrows]
            funcs += [random_function(rng, gpd) for _ in range(10)]
            oracle = oracle_integrate(blockwise(rep), np.array(funcs))
            for f, ora in zip(funcs, oracle):
                lit = integrate_rep(rep, f).matrix
                d = float(np.max(np.abs(lit - ora))) if lit.size else 0.0
                assert d <= 1e-10, (name, t, d)


def test_criterion_08_etale_theorem():
    rng = SplitMix64(108)
    cases = []
    for name in ("Z2", "P2", "X2"):
        cases.append(fixture(name))
    for _ in range(10):
        gpd, _ = random_groupoid(rng, max_objects=3, max_arrows=8)
        cases.append((gpd, counting_weights(gpd)))

    for i, (gpd, w) in enumerate(cases):
        sgrp = bisection_semigroup(gpd)
        alg = CrossedProductAlgebra(sgrp)
        assert alg.dim == len(gpd.arrows), i
        module, blocks = random_cocycle(rng, gpd, w)
        rep = from_cocycle(gpd, w, module, blocks)
        out = etale_battery(gpd, w, sgrp=sgrp, rep=rep, tol=1e-10)
        assert out.ok, f"case {i}: {out}"


def test_criterion_09_transformation_theorem():
    out = transformation_theorem(2, {1: 2, 2: 1})
    assert out.ok, str(out)
    gpd, sgrp = group_action_semigroup(2, {1: 2, 2: 1})
    alg = CrossedProductAlgebra(sgrp)
    assert alg.dim == 4
    assert len(gpd.arrows) == 4

    # full 2x2 matrix algebra: the class of (a, x) acts as the matrix
    # unit E[x, preimage of x under a]
    pos = {1: 0, 2: 1}
    units = {}
    for i, (a, x) in enumerate(alg.basis):
        m = np.zeros((2, 2))
        # the preimage of x under a, off the action table
        row = sgrp.act[sgrp.elements.index(a)].tolist()
        m[pos[x], pos[sgrp.carrier[row.index(sgrp.carrier.index(x))]]] = 1.0
        units[i] = m
    for i in range(4):
        for j in range(4):
            got = units[i] @ units[j]
            k = alg.table[i, j]
            want = units[k] if k >= 0 else np.zeros((2, 2))
            assert np.array_equal(got, want), (i, j)

    out = transformation_theorem(3, {1: 2, 2: 3, 3: 1})
    assert out.ok, str(out)
    _, sgrp3 = group_action_semigroup(3, {1: 2, 2: 3, 3: 1})
    assert CrossedProductAlgebra(sgrp3).dim == 9

    # trivial action: the crossed product is the cyclic group algebra
    _, sgrp_triv = group_action_semigroup(4, {1: 1})
    triv = CrossedProductAlgebra(sgrp_triv)
    assert triv.dim == 4
    for i in range(4):
        for j in range(4):
            assert triv.table[i, j] == (i + j) % 4
        assert triv.star_table[i] == (-i) % 4


def test_criterion_10_space_groupoid_degeneracy():
    rng = SplitMix64(110)
    cases = [fixture("X2")]
    for _ in range(5):
        n = 1 + rng.randint(5)
        gpd = space_groupoid(tuple(range(1, n + 1)))
        weights = {x: 0.25 * (1 + rng.randint(15)) for x in gpd.objects}
        cases.append((gpd, weights))

    for i, (gpd, w) in enumerate(cases):
        for t in range(4):
            module, blocks = random_cocycle(rng, gpd, w,
                                            coeff_size=1 + t % 2)
            rep = from_cocycle(gpd, w, module, blocks)
            assert check_representation(rep).ok, (i, t)
            d = float(np.max(np.abs(rep.umap.matrix
                                    - np.eye(rep.umap.source.dim))))
            assert d <= 1e-12, (i, t, d)

    # a non identity block is not a valid representation here
    gpd, w = fixture("X2")
    module = module_from_dims(gpd.objects, ("w",),
                              {(x, "w"): 1 for x in gpd.objects})
    # X2 has the units 1 and 2 as its arrows, in that order
    bad = from_cocycle(gpd, w, module,
                       [-np.eye(1, dtype=complex), np.eye(1, dtype=complex)])
    assert not check_representation(bad).ok


def direct_sum_with_inclusion(gpd, w, rng):
    """A subrepresentation triple: rep1, its direct sum with another
    representation, and the inclusion isometry between the modules."""
    m1, b1 = random_cocycle(rng, gpd, w)
    mb, bb = random_cocycle(rng, gpd, w)
    d1 = {x: len(m1.left_fiber(x)) for x in gpd.objects}
    db = {x: len(mb.left_fiber(x)) for x in gpd.objects}
    m2 = module_from_dims(gpd.objects, (0,),
                          {(x, 0): d1[x] + db[x] for x in gpd.objects})
    blocks2 = [np.block([[u, np.zeros((u.shape[0], v.shape[1]))],
                         [np.zeros((v.shape[0], u.shape[1])), v]])
               for u, v in zip(b1.values(), bb.values())]
    rep1 = from_cocycle(gpd, w, m1, b1)
    rep2 = from_cocycle(gpd, w, m2, blocks2)
    mat = np.zeros((m2.dim, m1.dim), dtype=complex)
    for x in gpd.objects:
        for i in range(d1[x]):
            mat[views(m2).index[(x, 0, i)], views(m1).index[(x, 0, i)]] = 1.0
    return rep1, rep2, ModuleMap(m1, m2, mat)


def commutes_both_ways(rep1, rep2, vmap):
    out = checks_by_name(check_intertwiner(rep1, rep2, vmap))
    cocycle_level = out["commutes"].passed
    operator_level = check_integrated_intertwiner(
        conv_rep_of(rep1), conv_rep_of(rep2), vmap.matrix, tol=1e-9).ok
    return cocycle_level, operator_level


def test_criterion_11_naturality():
    rng = SplitMix64(111)
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        for t in range(20):
            rep1, rep2, vmap = direct_sum_with_inclusion(gpd, w, rng)
            # isometry onto the first summand
            gram = vmap.adjoint().compose(vmap).matrix
            assert np.max(np.abs(gram - np.eye(vmap.source.dim))) <= 1e-12

            lhs, rhs = commutes_both_ways(rep1, rep2, vmap)
            assert lhs and rhs, (name, t)

            mat = vmap.matrix.copy()
            x0 = gpd.objects[0]
            fib2 = [b for b in vmap.target.basis
                    if views(vmap.target).left[b] == x0]
            col = views(vmap.source).index[(x0, 0, 0)]
            mat[views(vmap.target).index[fib2[0]], col] += 0.3
            mat[views(vmap.target).index[fib2[-1]], col] += 0.2j
            bent = ModuleMap(vmap.source, vmap.target, mat)
            lhs, rhs = commutes_both_ways(rep1, rep2, bent)
            assert lhs == rhs, (name, t)

    # induction commutes with integration
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        module, blocks = random_cocycle(rng, gpd, w)
        rep = from_cocycle(gpd, w, module, blocks)
        labels = sorted(set(views(module).right.values()), key=str)
        for t in range(5):
            dims = {(lab, "e"): 1 + rng.randint(2) for lab in labels}
            ebasis = module_from_dims(labels, ("e",), dims)
            big = induce(rep, ebasis)
            f = random_function(rng, gpd)
            one = integrate_rep(big, f).matrix
            two = tensor_map(integrate_rep(rep, f), ebasis).matrix
            d = float(np.max(np.abs(one - two))) if one.size else 0.0
            assert d <= 1e-9, (name, t, d)
