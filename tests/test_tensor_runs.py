"""Tensors from fibre runs and lifts by position, against the scans.

tensor reads the left-grade runs of its second factor
(GradedSpace.left_runs); lift and the regular representation find their
target points by one searchsorted in the keys ia |f| + ib of a tensor.
Both rely on a tensor listing its points in lexicographic order of its
factor positions.  The spaces of the batteries have sorted left codes
and share their grade tuples, so the general paths are checked here on
spaces built otherwise: the arrow correspondence along range, whose
left codes (sources) are unsorted, and copies of spaces whose grade
tuples are equal to the originals but other objects.  The references
are the scans of test_modmap_entries.py.
"""

import numpy as np
import pytest

from gcstar.cli import parse_preset
from gcstar.fingroupoid import FIXTURE_NAMES, fixture
from gcstar.hilbmod import (ModuleMap, check_gamma, grade_leak, tensor,
                            tensor_map_left)
from gcstar.measures import (GradedSpace, arrow_correspondence,
                             compose_families, groupoid_families)
from gcstar.reps import (check_representation, from_cocycle, induce,
                         regular_representation)
from gcstar.sampling import SplitMix64, random_cocycle

from test_modmap_entries import (dense, ref_grade_leak, ref_regular_matrix,
                                 ref_tensor, ref_tensor_map,
                                 ref_tensor_map_left, tensor_map)

# the fixtures and presets of test_modmap_entries.py
NAMES = FIXTURE_NAMES + ("pair:4", "pair:8", "group:8", "transformation:4",
                         "random")
GENERAL = ("pair:3", "random")


def groupoid(name):
    return fixture(name) if name in FIXTURE_NAMES \
        else parse_preset(name, seed=7)


def copied(space):
    """space with equal grade tuples that are other objects."""
    return GradedSpace.from_codes(
        space.basis, tuple(list(space.left_space)),
        tuple(list(space.right_space)), space.left_codes, space.right_codes,
        space.weight_array)


def same_space_fields(new, ref):
    assert new.basis == ref.basis
    assert new.left == ref.left and new.right == ref.right
    assert new.weight == ref.weight


def grade_blocks(space, side, perm, seed=3):
    """A map on space joining only points of one side grade: a
    permutation within each grade, or random complex entries there."""
    codes = getattr(space, side + "_codes")
    rng = np.random.default_rng(seed)
    if perm:
        rows = np.arange(space.dim)
        for c in np.unique(codes):
            at = np.flatnonzero(codes == c)
            rows[at] = at[::-1]
        return ModuleMap(space, space, entries=(
            rows, np.arange(space.dim),
            np.exp(1j * rng.normal(size=space.dim))))
    mat = rng.normal(size=(space.dim,) * 2) \
        + 1j * rng.normal(size=(space.dim,) * 2)
    return ModuleMap(space, space, mat * (codes[:, None] == codes[None, :]))


def general_spaces(name):
    gpd, w = groupoid(name)
    fam = groupoid_families(gpd, w)
    corr = [arrow_correspondence(gpd, w, leg) for leg in "sr"]
    return fam, corr


# ---------------------------------------------------------------------------
# the invariants

def _recorded(monkeypatch):
    """Every space from_codes builds, recorded while the test runs."""
    built = []
    real = GradedSpace.from_codes.__func__

    def record(cls, *args, **kwargs):
        built.append(real(cls, *args, **kwargs))
        return built[-1]
    monkeypatch.setattr(GradedSpace, "from_codes", classmethod(record))
    return built


def check_runs(space):
    order, starts, sizes = space.left_runs
    n = len(space.left_space)
    assert np.array_equal(order, np.argsort(space.left_codes, kind="stable"))
    assert np.array_equal(sizes, np.bincount(space.left_codes,
                                             minlength=n + 1))
    assert sizes[n] == 0
    assert np.array_equal(starts, np.cumsum(sizes) - sizes)


@pytest.mark.parametrize("name", NAMES)
def test_tensor_keys_increase_and_runs_are_a_stable_argsort(name,
                                                            monkeypatch):
    gpd, w = groupoid(name)
    module, blocks = random_cocycle(SplitMix64(5), gpd, w, coeff_size=2,
                                    max_dim=2)
    built = _recorded(monkeypatch)
    reps = [regular_representation(gpd, w),
            from_cocycle(gpd, w, module, blocks)]
    coeff = module.right_space
    ebasis = GradedSpace([(c, "e") for c in coeff],
                         {(c, "e"): c for c in coeff},
                         {(c, "e"): "e" for c in coeff},
                         {(c, "e"): 1.0 for c in coeff})
    for rep in reps:
        check_representation(rep)
        check_representation(induce(rep, ebasis))
    check_gamma(gpd, w)
    monkeypatch.undo()
    tensors = [s for s in built if s.factors is not None]
    assert tensors
    for space in tensors:
        (_, ia), (f, ib) = space.factors
        keys = ia.astype(np.int64) * f.dim + ib
        assert np.all(np.diff(keys) > 0)
    factors = {id(x): x for s in tensors for x, _ in s.factors}
    for space in [*built, *factors.values(), ebasis, module]:
        check_runs(space)


# ---------------------------------------------------------------------------
# the general paths

@pytest.mark.parametrize("name", GENERAL)
def test_tensors_over_unsorted_left_codes_match_the_scan(name):
    fam, corr = general_spaces(name)
    assert not np.all(np.diff(corr[1].left_codes) >= 0)
    spaces = [fam.alpha, fam.alpha_r, fam.lam0, *corr]
    for e in spaces:
        for f in corr:
            same_space_fields(tensor(e, f), ref_tensor(e, f))
            same_space_fields(tensor(copied(e), f), ref_tensor(e, f))
            same_space_fields(tensor(e, copied(f)), ref_tensor(e, f))


@pytest.mark.parametrize("perm", [True, False], ids=["perm", "dense"])
@pytest.mark.parametrize("name", GENERAL)
def test_lifts_over_unsorted_left_codes_match_the_scan(name, perm):
    fam, corr = general_spaces(name)
    for c in corr:
        # side 1: the moved factor has unsorted left codes
        m = grade_blocks(c, "left", perm)
        for e in (fam.alpha, fam.alpha_r, *corr):
            want = ref_tensor_map_left(e, dense(m)).matrix
            assert np.array_equal(tensor_map_left(e, m).matrix, want)
            assert np.array_equal(tensor_map_left(copied(e), m).matrix,
                                  want)
        # side 0: the fixed factor has them
        for e in (fam.alpha, fam.alpha_r, *corr):
            m = grade_blocks(e, "right", perm)
            for f in (c, copied(c)):
                assert np.array_equal(tensor_map(m, f).matrix,
                                      ref_tensor_map(dense(m), c).matrix)


@pytest.mark.parametrize("name", GENERAL)
def test_grade_leak_and_composites_through_copied_tuples(name):
    fam, corr = general_spaces(name)
    for c in corr:
        for side in ("left", "right"):
            mat = np.ones((c.dim, c.dim))
            for src, tgt in ((c, copied(c)), (copied(c), c)):
                m = ModuleMap(src, tgt, mat)
                assert grade_leak(m, side) == ref_grade_leak(m, side)
    for lam in (fam.lam0, fam.lam1, fam.lam2):
        for mu in (fam.alpha, fam.alpha_r):
            got = compose_families(lam, GradedSpace.from_codes(
                tuple(list(mu.basis)), mu.left_space, mu.right_space,
                mu.left_codes, mu.right_codes, mu.weight_array))
            want = compose_families(lam, mu)
            for field in ("right_codes", "weight_array"):
                assert np.array_equal(getattr(got, field),
                                      getattr(want, field))


@pytest.mark.parametrize("name", FIXTURE_NAMES + GENERAL)
def test_regular_unitary_is_the_label_reference(name):
    gpd, w = groupoid(name)
    assert np.array_equal(regular_representation(gpd, w).umap.matrix,
                          ref_regular_matrix(gpd, w))
