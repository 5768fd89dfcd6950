"""Weighted graded sets against the classes and copies they replaced.

The reference below is the old code kept verbatim apart from names: a
measure family (points fibred over a target), a correspondence (points
with a left and a right leg), the graded space that stored its points
as label dicts, l2 (the function space of a correspondence) built on
it, the view of a family as a correspondence with identity left leg,
the balanced tensor that hashed labels into dicts, the point loop of
the fibre product, the module of dimensions and the regular module.
Each test requires the GradedSpace the library builds, stored as
codes and weight arrays, to match its reference field for field,
weights bit for bit.
"""

import pytest

from gcstar.cli import parse_preset
from gcstar.fingroupoid import FIXTURE_NAMES, fixture
from gcstar.hilbmod import tensor
from gcstar.measures import (GradedSpace, arrow_correspondence,
                             compose_families, groupoid_families,
                             haar_system)
from gcstar.reps import (check_representation, face_transfer, from_cocycle,
                         induce, regular_representation)
from gcstar.sampling import SplitMix64, random_cocycle, random_groupoid


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


class RefGradedSpace:
    def __init__(self, basis, left, right, weight,
                 left_space=None, right_space=None):
        self.basis = tuple(basis)
        self.left = dict(left)
        self.right = dict(right)
        self.weight = {b: float(weight[b]) for b in self.basis}
        for b, w in self.weight.items():
            if not (w > 0.0):
                raise ValueError(f"nonpositive weight at {b!r}")
        if left_space is None:
            left_space = sorted({self.left[b] for b in self.basis}, key=str)
        if right_space is None:
            right_space = sorted({self.right[b] for b in self.basis}, key=str)
        self.left_space = tuple(left_space)
        self.right_space = tuple(right_space)
        self.index = {b: i for i, b in enumerate(self.basis)}


def ref_tensor(e, f):
    by_grade = {}
    for b in f.basis:
        by_grade.setdefault(f.left[b], []).append(b)
    basis, left, right, weight = [], [], [], []
    for a in e.basis:
        left_a, weight_a = e.left[a], e.weight[a]
        for b in by_grade.get(e.right[a], ()):
            basis.append((a, b))
            left.append(left_a)
            right.append(f.right[b])
            weight.append(weight_a * f.weight[b])
    return RefGradedSpace(
        basis, dict(zip(basis, left)), dict(zip(basis, right)),
        dict(zip(basis, weight)),
        left_space=e.left_space, right_space=f.right_space)


def ref_module_from_dims(left_space, right_space, dims):
    basis = []
    for x in left_space:
        for w in right_space:
            for i in range(int(dims.get((x, w), 0))):
                basis.append((x, w, i))
    return RefGradedSpace(basis,
                          {(x, w, i): x for (x, w, i) in basis},
                          {(x, w, i): w for (x, w, i) in basis},
                          {b: 1.0 for b in basis},
                          left_space=left_space, right_space=right_space)


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
    return RefGradedSpace(corr.points, corr.bmap, corr.fmap, corr.weight,
                          left_space=corr.left_space,
                          right_space=corr.right_space)


def ref_regular_module(gpd, weights):
    return RefGradedSpace(
        gpd.arrows, dict(gpd.rng), dict(gpd.src),
        {h: weights[gpd.rng[h]] for h in gpd.arrows},
        left_space=gpd.objects, right_space=gpd.objects)


# ---------------------------------------------------------------------------
# helpers

def fields(space):
    """Every field of a space as plain dicts; weights as the hex of
    their bits."""
    return (space.basis, dict(space.left), dict(space.right),
            dict(space.index),
            {b: w.hex() for b, w in space.weight.items()},
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


# ---------------------------------------------------------------------------
# nested tensors: the spaces face_transfer, the associator and induce build

def _cocycle_module(gpd, w):
    """A random cocycle module, its blocks and its dims by grade."""
    module, blocks = random_cocycle(SplitMix64(5), gpd, w, coeff_size=2,
                                    max_dim=2)
    dims = {}
    for (x, c, _) in module.basis:
        dims[(x, c)] = dims.get((x, c), 0) + 1
    return module, blocks, dims


def base_spaces(gpd, w):
    """Library spaces and their dict-stored references, by name: the
    families, the arrow correspondences, the compositions lam.alpha
    and lam.alpha_r, a cocycle module and a coefficient space."""
    new, old = both_sides(gpd, w)
    old = {k: ref_l2(v) for k, v in old.items()}
    ref = ref_families(gpd, w)
    for lam in ("lam0", "lam1", "lam2"):
        for leg in ("alpha", "alpha_r"):
            new[f"{lam}.{leg}"] = compose_families(new[lam], new[leg])
            old[f"{lam}.{leg}"] = ref_l2(ref_family_correspondence(
                ref_compose_families(ref[lam], ref[leg])))
    module, _, dims = _cocycle_module(gpd, w)
    new["module"] = module
    old["module"] = ref_module_from_dims(module.left_space,
                                         module.right_space, dims)
    coeff = module.right_space
    args = ([(c, "e") for c in coeff], {(c, "e"): c for c in coeff},
            {(c, "e"): "e" for c in coeff},
            {(c, "e"): 0.5 + c for c in coeff})
    new["ebasis"], old["ebasis"] = GradedSpace(*args), RefGradedSpace(*args)
    return new, old


def build(tree, spaces, tensor_fn):
    if isinstance(tree, str):
        return spaces[tree]
    a, b = tree
    return tensor_fn(build(a, spaces, tensor_fn), build(b, spaces, tensor_fn))


def _trees():
    trees = []
    for module in ("module", "s"):
        for lam in ("lam0", "lam1", "lam2"):
            for leg in ("alpha", "alpha_r"):
                trees += [((lam, leg), module), (lam, (leg, module)),
                          (f"{lam}.{leg}", module)]
        for leg in ("alpha", "alpha_r"):
            trees += [((leg, module), "ebasis"), (leg, (module, "ebasis"))]
    trees += [("module", "ebasis")]
    e, f = "alpha", "alpha_r"
    for a, b, c in ((e, f, e), (f, e, f), (e, e, f)):
        trees += [((a, b), c), (a, (b, c))]
    return trees


@pytest.mark.parametrize("name", NAMES)
def test_nested_tensors_match_dict_reference(name):
    gpd, w = groupoid(name)
    new, old = base_spaces(gpd, w)
    for key in ("module", "ebasis") + tuple(k for k in new if "." in k):
        assert fields(new[key]) == fields(old[key]), key
    for tree in _trees():
        assert fields(build(tree, new, tensor)) \
            == fields(build(tree, old, ref_tensor)), tree


@pytest.mark.parametrize("name", NAMES)
def test_transfer_and_induced_spaces_match_dict_reference(name):
    gpd, w = groupoid(name)
    new, old = base_spaces(gpd, w)
    module, blocks, _ = _cocycle_module(gpd, w)
    rep = from_cocycle(gpd, w, module, blocks)
    for i in range(3):
        d = face_transfer(rep, i)
        for space, leg in ((d.source, "alpha_r"), (d.target, "alpha")):
            assert fields(space) == fields(build(
                (f"lam{i}.{leg}", "module"), old, ref_tensor)), (i, leg)
    big = induce(rep, new["ebasis"])
    assert fields(big.module) \
        == fields(build(("module", "ebasis"), old, ref_tensor))
    for space, leg in ((big.source, "alpha_r"), (big.target, "alpha")):
        assert fields(space) == fields(build(
            (leg, ("module", "ebasis")), old, ref_tensor)), leg


# ---------------------------------------------------------------------------
# lazy bases: a tensor builds its label basis only when a caller reads it

def _built(space):
    """Whether a tensor among space and its factors holds its basis."""
    return space.factors is not None and (
        "basis" in vars(space) or any(_built(f) for f, _ in space.factors))


@pytest.mark.parametrize("name", ("T2", "W2", "pair:3", "random"))
def test_lazy_tensor_bases_match_dict_reference(name):
    gpd, w = groupoid(name)
    new, old = base_spaces(gpd, w)
    module, blocks, _ = _cocycle_module(gpd, w)
    rep = from_cocycle(gpd, w, module, blocks)
    assert check_representation(rep).ok
    fam = rep.families
    pairs = [(tensor(lam, rep.source), tensor(lam, rep.target))
             for lam in (fam.lam0, fam.lam1, fam.lam2)]
    transfers = [face_transfer(rep, i) for i in range(3)]
    big = induce(rep, new["ebasis"])
    spaces = [rep.source, rep.target, big.module, big.source, big.target]
    spaces += [s for p in pairs for s in p]
    spaces += [s for d in transfers for s in (d.source, d.target)]
    assert not any(_built(s) for s in spaces)
    # as in face_transfer: a pair family tensored with a representation leg
    for i, (pair_s, pair_t) in enumerate(pairs):
        for space, leg in ((pair_s, "alpha_r"), (pair_t, "alpha")):
            assert fields(space) == fields(build(
                (f"lam{i}", (leg, "module")), old, ref_tensor)), (i, leg)
    # as in induce: a leg tensored with the tensor of two modules
    assert fields(big.module) \
        == fields(build(("module", "ebasis"), old, ref_tensor))
    for space, leg in ((big.source, "alpha_r"), (big.target, "alpha")):
        assert fields(space) == fields(build(
            (leg, ("module", "ebasis")), old, ref_tensor)), leg


def test_views_are_read_only():
    gpd, w = fixture("W2")
    cs = arrow_correspondence(gpd, w, "s")
    t = tensor(cs, cs)
    assert t.dim
    for view in (t.left, t.right, t.weight, t.index):
        with pytest.raises(TypeError):
            view[t.basis[0]] = None
    for arr in (t.left_codes, t.right_codes, t.gram_diagonal()):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_tensor_weight_underflow_raises():
    e = GradedSpace(("a",), {"a": "x"}, {"a": "x"}, {"a": 1e-200})
    with pytest.raises(ValueError, match="nonpositive weight at"):
        tensor(e, e)
    ref = RefGradedSpace(("a",), {"a": "x"}, {"a": "x"}, {"a": 1e-200})
    with pytest.raises(ValueError, match="nonpositive weight at"):
        ref_tensor(ref, ref)


def test_infinite_weight_raises():
    with pytest.raises(ValueError, match="non-finite weight at 'b'"):
        GradedSpace(("a", "b"), {"a": "x", "b": "x"}, {"a": "x", "b": "x"},
                    {"a": 1.0, "b": float("inf")})


def test_grade_outside_a_given_space_is_appended():
    s = GradedSpace(("a", "b"), {"a": "x", "b": "z"}, {"a": 0, "b": 0},
                    {"a": 1.0, "b": 2.0}, left_space=("y", "x"))
    assert s.left_space == ("y", "x", "z")
    assert list(s.left_codes) == [1, 2]
    assert dict(s.left) == {"a": "x", "b": "z"}
    assert s.left_fiber("y") == () and s.left_fiber("z") == ("b",)
    assert s.left_lookup == {"y": 0, "x": 1, "z": 2}
    assert s.left_positions("z").tolist() == [1]
    assert s.left_positions("w").tolist() == []
