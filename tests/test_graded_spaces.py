"""Weighted graded sets against the classes and copies they replaced.

The reference below is the old code kept verbatim apart from names: a
measure family (points fibred over a target), a correspondence (points
with a left and a right leg), l2 (the function space of a
correspondence), the view of a family as a correspondence with identity
left leg, the point loop of the fibre product and the regular module.
Each test requires the GradedSpace the library builds to match its
reference field for field, weights bit for bit.
"""

import pytest

from gcstar.cli import parse_preset
from gcstar.fingroupoid import FIXTURE_NAMES, fixture
from gcstar.hilbmod import tensor
from gcstar.measures import (GradedSpace, arrow_correspondence,
                             groupoid_families, haar_system)
from gcstar.reps import regular_representation
from gcstar.sampling import SplitMix64, random_groupoid


# ---------------------------------------------------------------------------
# reference: the old classes

class RefMeasureFamily:
    def __init__(self, points, target, fmap, weight):
        self.points = tuple(points)
        self.target = tuple(target)
        self.fmap = dict(fmap)
        self.weight = {p: float(weight[p]) for p in self.points}


class RefCorrespondence:
    def __init__(self, left_space, right_space, points, bmap, fmap, weight):
        self.left_space = tuple(left_space)
        self.right_space = tuple(right_space)
        self.points = tuple(points)
        self.bmap = dict(bmap)
        self.fmap = dict(fmap)
        self.weight = {p: float(weight[p]) for p in self.points}


def ref_compose_families(lam, mu):
    fmap = {p: mu.fmap[lam.fmap[p]] for p in lam.points}
    weight = {p: lam.weight[p] * mu.weight[lam.fmap[p]] for p in lam.points}
    return RefMeasureFamily(lam.points, mu.target, fmap, weight)


def ref_families(gpd, weights):
    """The arrow, pair and vertex families by name."""
    c = {x: float(weights[x]) for x in gpd.objects}
    alpha = RefMeasureFamily(gpd.arrows, gpd.objects, dict(gpd.rng),
                             {g: c[gpd.src[g]] for g in gpd.arrows})
    alpha_r = RefMeasureFamily(gpd.arrows, gpd.objects, dict(gpd.src),
                               {g: c[gpd.rng[g]] for g in gpd.arrows})
    pairs = gpd.composable_pairs()
    lam0 = RefMeasureFamily(pairs, gpd.arrows, {p: p[1] for p in pairs},
                            {p: c[gpd.rng[p[0]]] for p in pairs})
    lam1 = RefMeasureFamily(pairs, gpd.arrows,
                            {p: gpd.comp[p] for p in pairs},
                            {p: c[gpd.rng[p[1]]] for p in pairs})
    lam2 = RefMeasureFamily(pairs, gpd.arrows, {p: p[0] for p in pairs},
                            {p: c[gpd.src[p[1]]] for p in pairs})
    return {"alpha": alpha, "alpha_r": alpha_r,
            "lam0": lam0, "lam1": lam1, "lam2": lam2,
            "mu0": ref_compose_families(lam1, alpha),
            "mu1": ref_compose_families(lam0, alpha),
            "mu2": ref_compose_families(lam0, alpha_r)}


def ref_family_correspondence(fam):
    return RefCorrespondence(fam.points, fam.target, fam.points,
                             {p: p for p in fam.points}, fam.fmap, fam.weight)


def ref_arrow_correspondence(gpd, weights, leg):
    if leg == "s":
        return RefCorrespondence(gpd.objects, gpd.objects, gpd.arrows,
                                 dict(gpd.rng), dict(gpd.src),
                                 {g: weights[gpd.rng[g]] for g in gpd.arrows})
    return RefCorrespondence(gpd.objects, gpd.objects, gpd.arrows,
                             dict(gpd.src), dict(gpd.rng),
                             {g: weights[gpd.src[g]] for g in gpd.arrows})


def ref_fibre_product(c1, c2):
    points = tuple((x, y) for x in c1.points for y in c2.points
                   if c1.fmap[x] == c2.bmap[y])
    return RefCorrespondence(
        c1.left_space, c2.right_space, points,
        {(x, y): c1.bmap[x] for (x, y) in points},
        {(x, y): c2.fmap[y] for (x, y) in points},
        {(x, y): c1.weight[x] * c2.weight[y] for (x, y) in points})


def ref_l2(corr):
    return GradedSpace(corr.points, corr.bmap, corr.fmap, corr.weight,
                       left_space=corr.left_space,
                       right_space=corr.right_space)


def ref_regular_module(gpd, weights):
    return GradedSpace(
        gpd.arrows, dict(gpd.rng), dict(gpd.src),
        {h: weights[gpd.rng[h]] for h in gpd.arrows},
        left_space=gpd.objects, right_space=gpd.objects)


# ---------------------------------------------------------------------------
# helpers

def fields(space):
    """Every field of a space; weights as the hex of their bits."""
    return (space.basis, space.left, space.right,
            [(b, space.weight[b].hex()) for b in space.basis],
            space.left_space, space.right_space)


def groupoid(name):
    if name in FIXTURE_NAMES:
        return fixture(name)
    if name == "random":
        return random_groupoid(SplitMix64(31))
    return parse_preset(name)


NAMES = FIXTURE_NAMES + ("pair:4", "transformation:4", "random")
FAMILIES = ("alpha", "alpha_r", "lam0", "lam1", "lam2", "mu0", "mu1", "mu2")


def both_sides(gpd, w):
    """Library spaces and their references, by name."""
    fam, ref = groupoid_families(gpd, w), ref_families(gpd, w)
    new = {k: getattr(fam, k) for k in FAMILIES}
    old = {k: ref_family_correspondence(ref[k]) for k in FAMILIES}
    for leg in ("s", "r"):
        new[leg] = arrow_correspondence(gpd, w, leg)
        old[leg] = ref_arrow_correspondence(gpd, w, leg)
    return new, old


# ---------------------------------------------------------------------------
# parity

@pytest.mark.parametrize("name", NAMES)
def test_families_match_old_classes(name):
    gpd, w = groupoid(name)
    new, old = both_sides(gpd, w)
    for k in FAMILIES:
        assert fields(new[k]) == fields(ref_l2(old[k])), k
        assert new[k].left == {p: p for p in new[k].basis}, k
    alpha, alpha_r = haar_system(gpd, w)
    assert fields(alpha) == fields(new["alpha"])
    assert fields(alpha_r) == fields(new["alpha_r"])


@pytest.mark.parametrize("name", NAMES)
def test_arrow_correspondences_match_old_classes(name):
    gpd, w = groupoid(name)
    new, old = both_sides(gpd, w)
    for leg in ("s", "r"):
        assert fields(new[leg]) == fields(ref_l2(old[leg])), leg
    assert fields(new["s"]) == fields(ref_regular_module(gpd, w))


@pytest.mark.parametrize("name", NAMES)
def test_tensor_is_the_fibre_product(name):
    gpd, w = groupoid(name)
    new, old = both_sides(gpd, w)
    arrow_spaces = ("alpha", "alpha_r", "s", "r")
    combos = [(a, b) for a in arrow_spaces for b in arrow_spaces]
    combos += [(lam, mu) for lam in ("lam0", "lam1", "lam2")
               for mu in ("alpha", "alpha_r")]
    for a, b in combos:
        assert fields(tensor(new[a], new[b])) \
            == fields(ref_l2(ref_fibre_product(old[a], old[b]))), (a, b)


@pytest.mark.parametrize("name", NAMES)
def test_regular_representation_spaces(name):
    gpd, w = groupoid(name)
    _, old = both_sides(gpd, w)
    rep = regular_representation(gpd, w)
    assert rep.source_leg is rep.families.alpha_r
    assert rep.target_leg is rep.families.alpha
    assert fields(rep.module) == fields(ref_regular_module(gpd, w))
    for space, leg in ((rep.source, "alpha_r"), (rep.target, "alpha")):
        assert fields(space) \
            == fields(ref_l2(ref_fibre_product(old[leg], old["s"])))
