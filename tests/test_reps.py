"""Representation tests.

The W2 block value 0.5 was computed by hand: the raw block of the
arrow (1, 2) carries sqrt(c(rng)/c(src)) = sqrt(1/4) = 1/2 times the
normalized unitary.
"""

import numpy as np
import pytest

from gcstar.fingroupoid import FIXTURE_NAMES, fixture
from gcstar.hilbmod import ModuleMap, is_unitary, module_from_dims, tensor
from gcstar.reps import (CocycleFamily, Representation, blockwise,
                         check_cocycle, check_intertwiner,
                         check_representation, face_transfer, from_cocycle,
                         induce, invariant_support, regular_representation)
from gcstar.sampling import SplitMix64, random_cocycle


def ones_cocycle(gpd, weights):
    dims = {(x, "w"): 1 for x in gpd.objects}
    module = module_from_dims(gpd.objects, ("w",), dims)
    unitaries = {g: np.eye(1, dtype=complex) for g in gpd.arrows}
    return from_cocycle(gpd, weights, module, unitaries)


def test_representation_refuses_a_unitary_on_another_module():
    gpd, w = fixture("P2")
    rep = ones_cocycle(gpd, w)
    fam = rep.families

    def zero_on(module):
        return ModuleMap(tensor(fam.alpha_r, module),
                         tensor(fam.alpha, module), entries=([], [], []))

    # the same fibre sizes, so the same factor positions, other labels
    other = module_from_dims(gpd.objects, ("v",),
                             {(x, "v"): 1 for x in gpd.objects})
    with pytest.raises(ValueError, match="unitary does not live on the "
                                         "expected spaces"):
        Representation(gpd, w, rep.module, zero_on(other))
    same = module_from_dims(gpd.objects, ("w",),
                            {(x, "w"): 1 for x in gpd.objects})
    umap = zero_on(same)
    assert Representation(gpd, w, rep.module, umap).umap is umap


def test_blockwise_normalization_w2():
    gpd, w = fixture("W2")
    rep = blockwise(ones_cocycle(gpd, w))
    assert rep.raw[(1, 2)][0, 0] == 0.5
    assert rep.raw[(2, 1)][0, 0] == 2.0
    assert rep.unitaries[(1, 2)][0, 0] == 1.0


def test_cocycle_family_default_raw():
    gpd, w = fixture("W2")
    module = module_from_dims(gpd.objects, ("w",),
                              {(x, "w"): 1 for x in gpd.objects})
    fam = CocycleFamily(gpd, w, module,
                        {g: np.eye(1, dtype=complex) for g in gpd.arrows})
    assert fam.raw[(1, 2)][0, 0] == 0.5


def test_regular_matrix_z2_frozen():
    gpd, w = fixture("Z2")
    rep = regular_representation(gpd, w)
    want = np.array([[1, 0, 0, 0],
                     [0, 1, 0, 0],
                     [0, 0, 0, 1],
                     [0, 0, 1, 0]], dtype=complex)
    assert np.array_equal(rep.umap.matrix, want)


def test_regular_representation_all_fixtures():
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        out = check_representation(regular_representation(gpd, w))
        assert out.ok, f"{name}: {out}"


def test_from_cocycle_roundtrip():
    rng = SplitMix64(21)
    for name in ("Z2", "P2", "W2", "T2"):
        gpd, w = fixture(name)
        module, blocks = random_cocycle(rng, gpd, w, coeff_size=2)
        rep = from_cocycle(gpd, w, module, blocks)
        back = blockwise(rep)
        for g in gpd.arrows:
            assert np.max(np.abs(back.unitaries[g] - blocks[g])) <= 1e-12


def test_random_cocycle_reps_check():
    rng = SplitMix64(22)
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        module, blocks = random_cocycle(rng, gpd, w)
        out = check_representation(from_cocycle(gpd, w, module, blocks))
        assert out.ok, f"{name}: {out}"


def test_check_cocycle_flags_broken_multiplicativity():
    gpd, w = fixture("P2")
    module = module_from_dims(gpd.objects, ("w",),
                              {(x, "w"): 1 for x in gpd.objects})
    blocks = {g: np.eye(1, dtype=complex) for g in gpd.arrows}
    blocks[(1, 2)] = -np.eye(1, dtype=complex)
    fam = CocycleFamily(gpd, w, module, blocks)
    out = check_cocycle(fam)
    names = {c.name: c.passed for c in out.checks}
    assert not names["multiplicative"]
    assert names["unit-blocks"]
    assert names["fiber-unitary"]


def test_check_cocycle_flags_bad_unit():
    gpd, w = fixture("Z2")
    module = module_from_dims(gpd.objects, ("w",), {("x", "w"): 1})
    blocks = {0: -np.eye(1, dtype=complex), 1: np.eye(1, dtype=complex)}
    out = check_cocycle(CocycleFamily(gpd, w, module, blocks))
    assert not out.ok
    assert any(c.name == "unit-blocks" and not c.passed
               for c in out.checks)


def test_face_transfers_unitary_and_cocycle():
    gpd, w = fixture("W2")
    rep = regular_representation(gpd, w)
    d0 = face_transfer(rep, 0)
    d1 = face_transfer(rep, 1)
    d2 = face_transfer(rep, 2)
    for d in (d0, d1, d2):
        assert is_unitary(d, tol=1e-12).ok
    assert np.max(np.abs(d1.matrix - d2.compose(d0).matrix)) <= 1e-12


def test_intertwiner_identity_commutes():
    gpd, w = fixture("P2")
    rng = SplitMix64(23)
    module, blocks = random_cocycle(rng, gpd, w)
    rep = from_cocycle(gpd, w, module, blocks)
    vmap = ModuleMap(module, module, np.eye(module.dim, dtype=complex))
    out = check_intertwiner(rep, rep, vmap)
    assert out.ok
    commutes = next(c for c in out.checks if c.name == "commutes")
    assert commutes.defect == 0.0


def test_intertwiner_random_map_fails():
    gpd, w = fixture("P2")
    rng = SplitMix64(24)
    module, blocks = random_cocycle(rng, gpd, w, max_dim=2)
    rep = from_cocycle(gpd, w, module, blocks)
    mat = np.array([[rng.cgauss() for _ in range(module.dim)]
                    for _ in range(module.dim)])
    # keep object grades intact so the commutation check actually runs
    for a in module.basis:
        for b in module.basis:
            if module.left[a] != module.left[b]:
                mat[module.index[a], module.index[b]] = 0.0
    vmap = ModuleMap(module, module, mat)
    out = check_intertwiner(rep, rep, vmap)
    commutes = next(c for c in out.checks if c.name == "commutes")
    assert not commutes.passed


def test_intertwiner_grade_mismatch_short_circuits():
    gpd, w = fixture("P2")
    rng = SplitMix64(25)
    module, blocks = random_cocycle(rng, gpd, w, max_dim=1)
    rep = from_cocycle(gpd, w, module, blocks)
    mat = np.zeros((module.dim, module.dim), dtype=complex)
    a, b = module.basis[0], module.basis[-1]
    assert module.left[a] != module.left[b]
    mat[module.index[a], module.index[b]] = 1.0
    out = check_intertwiner(rep, rep, ModuleMap(module, module, mat))
    commutes = next(c for c in out.checks if c.name == "commutes")
    assert not commutes.passed
    assert commutes.witness == "blocked by grade mismatch"


def test_induce_dimensions_and_check():
    gpd, w = fixture("Z2")
    rng = SplitMix64(26)
    module, blocks = random_cocycle(rng, gpd, w, coeff_size=2)
    rep = from_cocycle(gpd, w, module, blocks)
    labels = sorted({module.right[b] for b in module.basis}, key=str)
    ebasis = module_from_dims(labels, ("e",),
                              {(lab, "e"): 2 for lab in labels})
    big = induce(rep, ebasis)
    assert big.module.dim == 2 * module.dim
    out = check_representation(big)
    assert out.ok, str(out)


def test_invariant_support_space_groupoid():
    gpd, w = fixture("X2")
    module = module_from_dims(gpd.objects, ("w",), {(1, "w"): 2})
    unitaries = {1: np.eye(2, dtype=complex),
                 2: np.zeros((0, 0), dtype=complex)}
    rep = from_cocycle(gpd, w, module, unitaries)
    support, out = invariant_support(rep)
    assert support == (1,)
    assert out.ok


def test_invariant_support_flags_uneven_dims():
    gpd, w = fixture("P2")
    module = module_from_dims(gpd.objects, ("w",),
                              {(1, "w"): 1, (2, "w"): 0})
    unitaries = {g: np.zeros((len(module.left_fiber(gpd.rng[g])),
                              len(module.left_fiber(gpd.src[g]))),
                             dtype=complex) for g in gpd.arrows}
    unitaries[(1, 1)] = np.eye(1, dtype=complex)
    rep = from_cocycle(gpd, w, module, unitaries)
    support, out = invariant_support(rep)
    assert not out.ok


def test_check_cocycle_fails_on_nan_blocks():
    gpd, w = fixture("P2")
    module = module_from_dims(gpd.objects, ("w",),
                              {(x, "w"): 1 for x in gpd.objects})
    nan_blocks = {g: np.full((1, 1), np.nan, dtype=complex)
                  for g in gpd.arrows}
    out = check_cocycle(CocycleFamily(gpd, w, module, nan_blocks))
    first = {"unit-blocks": gpd.objects[0],
             "multiplicative": gpd.composable_pairs()[0],
             "fiber-unitary": gpd.arrows[0]}
    assert [c.name for c in out.checks] == list(first)
    for c in out.checks:
        assert not c.passed and np.isnan(c.defect), c.line()
        assert c.witness == first[c.name]


def test_from_cocycle_rejects_wrong_block_shape():
    gpd, w = fixture("P2")
    module = module_from_dims(gpd.objects, ("w",),
                              {(x, "w"): 1 for x in gpd.objects})
    blocks = {g: np.eye(1, dtype=complex) for g in gpd.arrows}
    blocks[(1, 2)] = np.eye(2, dtype=complex)
    with pytest.raises(ValueError) as err:
        from_cocycle(gpd, w, module, blocks)
    assert str(err.value) == ("block of arrow (1, 2) has shape (2, 2), "
                              "expected (1, 1) (range fibre, source fibre)")
