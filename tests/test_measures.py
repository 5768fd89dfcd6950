"""Measure family tests.

The W2 weight tables below were computed by hand from the fixture
weights c(1)=1, c(2)=4 before the library existed; the pair (g, h) of
the pair groupoid is written through its three points (i, j, k) with
g = (i, j), h = (j, k).
"""

import functools
import itertools
import math
import re
from types import MappingProxyType, SimpleNamespace

import numpy as np
import pytest

from gcstar.fingroupoid import FIXTURE_NAMES, FiniteGroupoid, fixture
from gcstar.hilbmod import induced_unitary, tensor
from gcstar.measures import (GradedSpace, GroupoidFamilies,
                             arrow_correspondence,
                             check_corr_isomorphism, check_family_identities,
                             check_iterated_integrals, compare_integrals,
                             compose_families, haar_system)
from gcstar.report import Report
from gcstar.sampling import SplitMix64


@functools.lru_cache(maxsize=32)
def views(space):
    """The label dicts of a space, read-only and read off its codes:
    left, right, weight and index map each point to its left grade,
    right grade, weight and position."""
    grades = (
        ("left", map(space.left_space.__getitem__, space.left_codes.tolist())),
        ("right", map(space.right_space.__getitem__,
                      space.right_codes.tolist())),
        ("weight", space.weight_array.tolist()),
        ("index", range(space.dim)))
    return SimpleNamespace(**{name: MappingProxyType(dict(zip(
        space.basis, values))) for name, values in grades})


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
    assert {g for g in alpha.basis if views(alpha).right[g] == 1} \
        == {(1, 1), (1, 2)}
    assert all(views(alpha).left[g] == g for g in alpha.basis)
    assert views(alpha).weight[(1, 2)] == 4.0   # c(src) = c(2)
    assert views(alpha_r).weight[(1, 2)] == 1.0  # c(rng) = c(1)


def test_lambda_weights_w2():
    gpd, w = fixture("W2")
    fam = GroupoidFamilies(gpd, w)
    p = pair_key(1, 2, 1)
    assert views(fam.lam0).weight[p] == 1.0   # c(rng g) = c(1)
    assert views(fam.lam1).weight[p] == 4.0   # c(rng h) = c(2)
    assert views(fam.lam2).weight[p] == 1.0   # c(src h) = c(1)


def test_mu_tables_w2_frozen():
    gpd, w = fixture("W2")
    fam = GroupoidFamilies(gpd, w)
    assert len(fam.mu0.basis) == 8
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                p = pair_key(i, j, k)
                assert views(fam.mu0).weight[p] == W2_MU0[(i, j, k)]
                assert views(fam.mu1).weight[p] == W2_MU1[(i, j, k)]
                assert views(fam.mu2).weight[p] == W2_MU2[(i, j, k)]


def test_family_identities_all_fixtures():
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        rep = check_family_identities(gpd, w)
        assert rep.ok, str(rep)
        assert rep.max_defect() == 0.0


def test_families_reject_composite_with_wrong_range():
    gpd, w = fixture("P2")
    comp = dict(gpd.comp)
    # (1, 2)(2, 1) should be (1, 1); (2, 1) has the right source only
    comp[((1, 2), (2, 1))] = (2, 1)
    broken = FiniteGroupoid(gpd.objects, gpd.arrows, gpd.src, gpd.rng,
                            comp, gpd.inv, gpd.unit)
    with pytest.raises(ValueError, match=re.escape(
            "inconsistent nerve data at pair ((1, 2), (2, 1))")):
        GroupoidFamilies(broken, w)


def ref_nerve_error(gpd):
    """The six vertex routes of the removed Nerve class, verbatim.

    Returns the message it raised at the first inconsistent pair, or
    None for consistent data.
    """
    pairs = gpd.composable_pairs()
    d0 = {p: p[1] for p in pairs}
    d2 = {p: p[0] for p in pairs}
    d1 = {p: gpd.comp[p] for p in pairs}
    v0 = {p: gpd.rng[p[0]] for p in pairs}
    v1 = {p: gpd.src[p[0]] for p in pairs}
    v2 = {p: gpd.src[p[1]] for p in pairs}
    for p in pairs:
        ok = (gpd.rng[d1[p]] == v0[p]
              and gpd.rng[d2[p]] == v0[p]
              and gpd.rng[d0[p]] == v1[p]
              and gpd.src[d2[p]] == v1[p]
              and gpd.src[d0[p]] == v2[p]
              and gpd.src[d1[p]] == v2[p])
        if not ok:
            return f"inconsistent nerve data at pair {p!r}"
    return None


@pytest.mark.parametrize("name", ["P2", "T2"])
def test_families_guard_matches_old_nerve(name):
    # every way of overwriting two composites with arbitrary arrows
    gpd, w = fixture(name)
    raised = 0
    for p, q in itertools.combinations(gpd.composable_pairs(), 2):
        for a, b in itertools.product(gpd.arrows, repeat=2):
            comp = dict(gpd.comp)
            comp[p], comp[q] = a, b
            broken = FiniteGroupoid(gpd.objects, gpd.arrows, gpd.src,
                                    gpd.rng, comp, gpd.inv, gpd.unit)
            want = ref_nerve_error(broken)
            try:
                GroupoidFamilies(broken, w)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == want, (p, a, q, b)
            raised += want is not None
    assert raised > 0


def test_compose_families_weight_is_product():
    gpd, w = fixture("W2")
    fam = GroupoidFamilies(gpd, w)
    comp = compose_families(fam.lam0, fam.alpha_r)
    p = pair_key(2, 1, 2)
    # lam0 carries c(rng g) = c(2) = 4; the face lands on h = (1, 2)
    # whose alpha_r weight is c(rng h) = c(1) = 1
    assert views(comp).weight[p] == 4.0


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
    assert views(cs).left[(1, 2)] == 1 and views(cs).right[(1, 2)] == 2
    assert views(cs).weight[(1, 2)] == 1.0
    assert views(cs).weight[(2, 1)] == 4.0
    cr = arrow_correspondence(gpd, w, "r")
    assert views(cr).left[(1, 2)] == 2 and views(cr).right[(1, 2)] == 1
    assert views(cr).weight[(1, 2)] == 4.0


def test_fibre_product_matches_mu2():
    gpd, w = fixture("W2")
    cs = arrow_correspondence(gpd, w, "s")
    fp = tensor(cs, cs)
    fam = GroupoidFamilies(gpd, w)
    assert set(fp.basis) == set(fam.mu2.basis)
    for p in fp.basis:
        assert views(fp).weight[p] == views(fam.mu2).weight[p]


# ---------------------------------------------------------------------------
# correspondence isomorphisms: the label code they replaced

def ref_corr_ratio(c1, c2, phi):
    """Weight ratio of c1 against c2 pushed along the label map phi, per
    base point, in the order the base points are first hit."""
    out = {}
    for x in c1.basis:
        y = phi[x]
        base = views(c2).right[y]
        val = views(c1).weight[x] / views(c2).weight[y]
        if base in out and out[base] != val:
            raise ValueError(f"ratio not constant over base {base!r}")
        out[base] = val
    return out


def ref_check_corr_isomorphism(c1, c2, phi, delta, tol=0.0):
    rep = Report("correspondence isomorphism")
    image = [phi.get(x) for x in c1.basis]
    targets = set(c2.basis)
    ok = (len(c1.basis) == len(c2.basis)
          and all(y is not None for y in image)
          and set(image) == targets)
    bad = next((x for x, y in zip(c1.basis, image) if y not in targets),
               None)
    rep.add("bijection", ok, witness=bad)
    if not ok:
        return rep
    v1, v2 = views(c1), views(c2)
    bad = next((x for x in c1.basis if v2.left[phi[x]] != v1.left[x]), None)
    rep.add("left-grading", bad is None, witness=bad)
    bad = next((x for x in c1.basis if v2.right[phi[x]] != v1.right[x]),
               None)
    rep.add("right-grading", bad is None, witness=bad)

    def ratio_gap(x):
        want = delta[v2.right[phi[x]]] * v2.weight[phi[x]]
        return abs(v1.weight[x] - want) / max(abs(v1.weight[x]), 1.0)
    rep.add_worst_at("weight-ratio", [ratio_gap(x) for x in c1.basis], tol,
                     lambda k: c1.basis[k])
    try:
        forced = ref_corr_ratio(c1, c2, phi)
    except ValueError as exc:
        rep.add("ratio-determined", False, witness=str(exc))
        return rep
    bases = list(forced)
    rep.add_worst_at("ratio-determined",
                     [abs(delta[base] - forced[base]) for base in bases], tol,
                     lambda k: bases[k])
    return rep


def labels(c1, c2, phi, delta):
    """The position arguments as the label mappings of the reference."""
    phi = {x: c2.basis[y] for x, y in zip(c1.basis, phi.tolist())
           if 0 <= y < c2.dim}
    return phi, dict(zip(c2.right_space, delta.tolist()))


def positions(c1, c2, phi, delta):
    """The label mappings as position arguments, the inverse of labels:
    the c2 position of each c1 point (-1 for none) and delta over
    c2.right_space (NaN for none)."""
    phi = [views(c2).index.get(phi.get(x), -1) for x in c1.basis]
    return (np.array(phi, dtype=np.intp),
            np.array([delta.get(y, math.nan) for y in c2.right_space]))


def same_checks(c1, c2, phi, delta):
    """check_corr_isomorphism on positions and the label reference give
    the same names, verdicts, defects and witnesses; returns the first."""
    got = check_corr_isomorphism(c1, c2, phi, delta)
    want = ref_check_corr_isomorphism(c1, c2, *labels(c1, c2, phi, delta))
    assert [(c.name, c.passed, c.defect, c.witness) for c in got.checks] \
        == [(c.name, c.passed, c.defect, c.witness) for c in want.checks]
    return got


def scaled(c, factor, at=None):
    """c with every weight times factor, or only the weight at position
    at, as a space built from labels."""
    weights = dict(views(c).weight)
    for k, p in enumerate(c.basis):
        if at is None or k == at:
            weights[p] *= factor
    return GradedSpace(c.basis, views(c).left, views(c).right, weights,
                       left_space=c.left_space, right_space=c.right_space)


def w2_alpha():
    gpd, w = fixture("W2")
    return gpd, haar_system(gpd, w)[0]


def test_corr_isomorphism_positive():
    gpd, c1 = w2_alpha()
    c2 = scaled(c1, 2.0)
    phi, delta = np.arange(c1.dim), np.full(len(c2.right_space), 0.5)
    rep = same_checks(c1, c2, phi, delta)
    assert rep.ok, str(rep)
    assert ref_corr_ratio(c1, c2, labels(c1, c2, phi, delta)[0]) \
        == {x: 0.5 for x in gpd.objects}


def test_corr_isomorphism_wrong_delta():
    gpd, alpha = w2_alpha()
    rep = same_checks(alpha, alpha, np.arange(alpha.dim),
                      np.full(len(gpd.objects), 2.0))
    assert not rep.ok


def test_corr_isomorphism_detects_nonbijection():
    gpd, alpha = w2_alpha()
    rep = same_checks(alpha, alpha, np.zeros(alpha.dim, dtype=int),
                      np.ones(len(gpd.objects)))
    assert not rep.ok


def test_corr_isomorphism_names_first_point_leaving_the_target():
    gpd, alpha = w2_alpha()
    phi, delta = np.arange(alpha.dim), np.ones(len(gpd.objects))
    # the third point leaves the target, the fourth has no image
    phi[2], phi[3] = alpha.dim, -1
    rep = same_checks(alpha, alpha, phi, delta)
    assert [(c.name, c.passed, c.witness) for c in rep.checks] \
        == [("bijection", False, alpha.basis[2])]
    phi[2] = 2
    rep = same_checks(alpha, alpha, phi, delta)
    assert rep.checks[0].witness == alpha.basis[3]


def test_corr_ratio_inconsistent_raises():
    gpd, alpha = w2_alpha()
    # break constancy over the fiber of object 1
    c2 = scaled(alpha, 3.0, at=alpha.basis.index((1, 1)))
    phi = np.arange(alpha.dim)
    with pytest.raises(ValueError, match="^ratio not constant over base 1$"):
        ref_corr_ratio(alpha, c2, labels(alpha, c2, phi, phi)[0])
    rep = same_checks(alpha, c2, phi, np.ones(len(gpd.objects)))
    assert rep.checks[-1].name == "ratio-determined"
    assert rep.checks[-1].witness == "ratio not constant over base 1"


def _swap(c, i, j, side):
    """c with the side grades of points i and j exchanged."""
    v = views(c)
    grade = dict(getattr(v, side))
    grade[c.basis[i]], grade[c.basis[j]] = \
        grade[c.basis[j]], grade[c.basis[i]]
    left, right = (grade, v.right) if side == "left" else (v.left, grade)
    return GradedSpace(c.basis, left, right, v.weight,
                       left_space=c.left_space, right_space=c.right_space)


def _mutants():
    """(name, c1, c2, phi, delta, failing check, its witness) on the
    arrow correspondence of W2: at least one mutant per check, which may
    fail later checks too."""
    gpd, w = fixture("W2")
    c = arrow_correspondence(gpd, w, "s")
    ident, ones = np.arange(c.dim), np.ones(len(c.right_space))
    swap = ident.copy()
    swap[[1, 2]] = swap[[2, 1]]
    # points 1 and 2, (1, 2) and (2, 1), lie over different objects on
    # both sides: phi exchanging them moves both gradings
    return [
        ("bijection", c, c, np.where(ident == 3, 0, ident), ones,
         "bijection", None),
        ("out of range", c, c, np.where(ident == 1, 9, ident), ones,
         "bijection", c.basis[1]),
        ("left", c, _swap(c, 1, 2, "left"), ident, ones,
         "left-grading", c.basis[1]),
        ("right", c, _swap(c, 1, 2, "right"), ident, ones,
         "right-grading", c.basis[1]),
        ("both", c, c, swap, ones, "left-grading", c.basis[1]),
        ("weight", c, scaled(c, 2.0), ident, ones, "weight-ratio",
         c.basis[0]),
        ("weight at one point", c, scaled(c, 2.0, at=3), ident, ones,
         "weight-ratio", c.basis[3]),
        ("ratio", c, c, ident, np.array([1.0, 1.0 + 1e-9]),
         "ratio-determined", 2),
        ("ratio clash", c, scaled(c, 4.0, at=2), ident, ones,
         "ratio-determined", "ratio not constant over base 1"),
    ]


@pytest.mark.parametrize("name, c1, c2, phi, delta, check, witness",
                         _mutants(), ids=[m[0] for m in _mutants()])
def test_corr_isomorphism_mutants_keep_their_witnesses(
        name, c1, c2, phi, delta, check, witness):
    rep = same_checks(c1, c2, phi, delta)
    assert (check, False, witness) in [(c.name, c.passed, c.witness)
                                       for c in rep.checks]


def test_induced_unitary_reads_labels_as_positions():
    gpd, c1 = w2_alpha()
    c2 = scaled(c1, 4.0)
    phi = np.arange(c1.dim)[::-1].copy()
    delta = np.array([0.25, 0.5])
    # positions inverts labels, and the unitary is the label loop's
    by_label, ratio = labels(c1, c2, phi, delta)
    back = positions(c1, c2, by_label, ratio)
    assert np.array_equal(back[0], phi) and np.array_equal(back[1], delta)
    want = np.zeros((c2.dim, c1.dim), dtype=complex)
    v1, v2 = views(c1), views(c2)
    for x, y in by_label.items():
        want[v2.index[y], v1.index[x]] = np.sqrt(ratio[v2.right[y]])
    got = induced_unitary(c1, c2, phi, delta)
    assert np.array_equal(got.matrix, want)
    assert np.array_equal(got.rows, phi)


def test_measure_family_rejects_nonpositive():
    gpd, w = fixture("P2")
    alpha, _ = haar_system(gpd, w)
    bad = dict(views(alpha).weight)
    bad[(1, 1)] = 0.0
    with pytest.raises(ValueError):
        GradedSpace(alpha.basis, views(alpha).left, views(alpha).right, bad)


def test_iterated_integrals_match_the_object_loop():
    # the defect of each object by Python's abs() and max(), reduced to
    # the first largest
    rng = SplitMix64(5)
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        pairs = gpd.composable_pairs()
        funcs = [{p: rng.cgauss() for p in pairs} for _ in range(3)]
        out = check_iterated_integrals(gpd, w, funcs)
        for psi, check in zip(funcs, out.checks):
            left, right = compare_integrals(gpd, w, psi)
            defects = [abs(left[x] - right[x])
                       / max(abs(left[x]), abs(right[x]), 1.0)
                       for x in gpd.objects]
            d = max(defects, default=0.0)
            witness = gpd.objects[defects.index(d)] if d else None
            assert (check.defect, check.witness) == (d, witness), name


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
