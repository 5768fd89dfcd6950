"""Weight systems on a groupoid and the fibred spaces they measure.

A measure family assigns a positive weight to every point of a finite
set fibred over a target set; integration sums weights fibrewise.  For
a groupoid with invariant object weights c this module builds the two
arrow families (along range and along source), the three families on
composable pairs, and the three induced families obtained by composing
them.  The composed families agree bit for bit with each other where
two routes exist, and the tests insist on that.
"""

from __future__ import annotations

import math

from .report import Report, worst
from .fingroupoid import nerve


class MeasureFamily:
    """Positive weights on a finite set fibred over a target set.

    points : iterable of point labels
    target : iterable of target labels
    fmap   : dict point -> target
    weight : dict point -> positive float
    """

    def __init__(self, points, target, fmap, weight):
        self.points = tuple(points)
        self.target = tuple(target)
        self.fmap = dict(fmap)
        self.weight = {p: float(weight[p]) for p in self.points}
        for p in self.points:
            if not (self.weight[p] > 0.0):
                raise ValueError(f"nonpositive weight at {p!r}")
        self._fibers = {y: [] for y in self.target}
        for p in self.points:
            self._fibers[self.fmap[p]].append(p)
        self._fibers = {y: tuple(v) for y, v in self._fibers.items()}

    def fiber(self, y):
        return self._fibers[y]

    def integrate(self, func):
        """Fibrewise weighted sum of a point function; a dict on target."""
        out = {y: 0.0 for y in self.target}
        for p in self.points:
            out[self.fmap[p]] += func[p] * self.weight[p]
        return out


def compose_families(lam, mu):
    """Family for the two-step fibration: weight(x) = lam(x) * mu(f(x)).

    lam fibres X over Y and mu fibres Y over Z; the result fibres X
    over Z along the composite map.
    """
    fmap = {p: mu.fmap[lam.fmap[p]] for p in lam.points}
    weight = {p: lam.weight[p] * mu.weight[lam.fmap[p]] for p in lam.points}
    return MeasureFamily(lam.points, mu.target, fmap, weight)


def haar_system(gpd, weights):
    """The two invariant arrow families for object weights c.

    Returns (alpha, alpha_r): alpha fibres arrows over their range with
    weight c(src(g)); alpha_r fibres them over their source with weight
    c(rng(g)).  Inversion exchanges the two.
    """
    alpha = MeasureFamily(
        gpd.arrows, gpd.objects, dict(gpd.rng),
        {g: weights[gpd.src[g]] for g in gpd.arrows})
    alpha_r = MeasureFamily(
        gpd.arrows, gpd.objects, dict(gpd.src),
        {g: weights[gpd.rng[g]] for g in gpd.arrows})
    return alpha, alpha_r


class GroupoidFamilies:
    """All weight families a groupoid with object weights carries.

    lam0, lam1, lam2 fibre the composable pairs over arrows along the
    three face maps; mu0, mu1, mu2 are defined as the compositions
    alpha . lam1, alpha . lam0 and alpha_r . lam0 and fibre the pairs
    over objects along the three vertex maps.
    """

    def __init__(self, gpd, weights):
        self.groupoid = gpd
        self.weights = {x: float(weights[x]) for x in gpd.objects}
        self.nerve = nerve(gpd)
        self.alpha, self.alpha_r = haar_system(gpd, self.weights)
        c = self.weights
        pairs = self.nerve.pairs
        self.lam0 = MeasureFamily(
            pairs, gpd.arrows, self.nerve.d0,
            {p: c[gpd.rng[p[0]]] for p in pairs})
        self.lam1 = MeasureFamily(
            pairs, gpd.arrows, self.nerve.d1,
            {p: c[gpd.rng[p[1]]] for p in pairs})
        self.lam2 = MeasureFamily(
            pairs, gpd.arrows, self.nerve.d2,
            {p: c[gpd.src[p[1]]] for p in pairs})
        self.mu0 = compose_families(self.lam1, self.alpha)
        self.mu1 = compose_families(self.lam0, self.alpha)
        self.mu2 = compose_families(self.lam0, self.alpha_r)


def groupoid_families(gpd, weights):
    return GroupoidFamilies(gpd, weights)


def _family_equal(fam1, fam2):
    """Worst absolute weight difference; inf on a map or point mismatch."""
    if set(fam1.points) != set(fam2.points):
        return math.inf
    for p in fam1.points:
        if fam1.fmap[p] != fam2.fmap[p]:
            return math.inf
    return worst((abs(fam1.weight[p] - fam2.weight[p]), None)
                 for p in fam1.points)[0]


def check_family_identities(gpd, weights):
    """mu0, mu1 and mu2, defined through lam1, lam0 and lam0, agree
    exactly with their compositions through lam2, lam2 and lam1."""
    fam = groupoid_families(gpd, weights)
    rep = Report("vertex family identities")
    routes = (
        ("mu0-via-lam2", fam.mu0, compose_families(fam.lam2, fam.alpha)),
        ("mu1-via-lam2", fam.mu1, compose_families(fam.lam2, fam.alpha_r)),
        ("mu2-via-lam1", fam.mu2, compose_families(fam.lam1, fam.alpha_r)),
    )
    for name, a, b in routes:
        d = _family_equal(a, b)
        rep.add(name, d == 0.0, defect=d)
    return rep


def compare_integrals(gpd, weights, psi):
    """Both sides of the substitution identity for a pair function.

    The left side integrates psi(g, inverse(g) k) over arrows g into
    rng(k) and then over arrows k out of each object; the right side
    integrates psi directly with the third vertex family.  Returns the
    two dicts on objects.
    """
    fam = groupoid_families(gpd, weights)
    c = fam.weights
    left = {x: 0.0 for x in gpd.objects}
    for k in gpd.arrows:
        x = gpd.src[k]
        outer = c[gpd.rng[k]]
        for g in gpd.arrows_into(gpd.rng[k]):
            h = gpd.comp[(gpd.inv[g], k)]
            left[x] += psi[(g, h)] * c[gpd.src[g]] * outer
    right = fam.mu2.integrate(psi)
    return left, right


def check_iterated_integrals(gpd, weights, functions):
    """Substitution identity for a batch of pair functions."""
    rep = Report("iterated integrals")
    for i, psi in enumerate(functions):
        left, right = compare_integrals(gpd, weights, psi)
        defects = []
        for x in gpd.objects:
            scale = max(abs(left[x]), abs(right[x]), 1.0)
            defects.append((abs(left[x] - right[x]) / scale, x))
        rep.add_worst(f"exchange-{i}", defects, 1e-12)
    return rep


# ---------------------------------------------------------------------------
# correspondences

class Correspondence:
    """A finite set fibred two ways with a weight along the right leg.

    points carry a left label under bmap into left_space and a right
    label under fmap into right_space; weight is positive and feeds the
    inner product of the function space built on the points.
    """

    def __init__(self, left_space, right_space, points, bmap, fmap, weight):
        self.left_space = tuple(left_space)
        self.right_space = tuple(right_space)
        self.points = tuple(points)
        self.bmap = dict(bmap)
        self.fmap = dict(fmap)
        self.weight = {p: float(weight[p]) for p in self.points}
        for p in self.points:
            if not (self.weight[p] > 0.0):
                raise ValueError(f"nonpositive weight at {p!r}")


def arrow_correspondence(gpd, weights, leg):
    """The arrow set as a correspondence over the objects.

    leg "s": graded by range on the left, fibred over source with
    weight c(rng(g)).  leg "r": graded by source on the left, fibred
    over range with weight c(src(g)).
    """
    if leg == "s":
        return Correspondence(gpd.objects, gpd.objects, gpd.arrows,
                              dict(gpd.rng), dict(gpd.src),
                              {g: weights[gpd.rng[g]] for g in gpd.arrows})
    if leg == "r":
        return Correspondence(gpd.objects, gpd.objects, gpd.arrows,
                              dict(gpd.src), dict(gpd.rng),
                              {g: weights[gpd.src[g]] for g in gpd.arrows})
    raise ValueError(f"leg must be 's' or 'r', got {leg!r}")


def family_correspondence(fam):
    """View a measure family as a correspondence with identity left leg."""
    return Correspondence(fam.points, fam.target, fam.points,
                          {p: p for p in fam.points}, fam.fmap, fam.weight)


def fibre_product(c1, c2):
    """Pairs (x, y) with f1(x) == b2(y); weights multiply.

    Left data comes from c1, right data from c2.
    """
    points = tuple((x, y) for x in c1.points for y in c2.points
                   if c1.fmap[x] == c2.bmap[y])
    return Correspondence(
        c1.left_space, c2.right_space, points,
        {(x, y): c1.bmap[x] for (x, y) in points},
        {(x, y): c2.fmap[y] for (x, y) in points},
        {(x, y): c1.weight[x] * c2.weight[y] for (x, y) in points})


def corr_ratio(c1, c2, phi):
    """Weight ratio of c1 against c2 pushed along phi, per base point.

    Returns a dict on the right space of c2; base points not hit by any
    image are omitted.  Raises if two points over the same base force
    different ratios.
    """
    out = {}
    for x in c1.points:
        y = phi[x]
        base = c2.fmap[y]
        val = c1.weight[x] / c2.weight[y]
        if base in out and out[base] != val:
            raise ValueError(f"ratio not constant over base {base!r}")
        out[base] = val
    return out


def check_corr_isomorphism(c1, c2, phi, delta, tol=0.0):
    """phi carries c1 onto c2 with weight ratio delta.

    phi maps points of c1 bijectively to points of c2 preserving both
    gradings; delta is a positive function on the right space of c2 and
    the weight condition reads weight1(x) == delta(base) * weight2(phi x)
    at base = f2(phi x).  Over every base point that is hit, delta is
    forced by the weights; the ratio-determined check confirms the given
    delta matches the forced one.
    """
    rep = Report("correspondence isomorphism")
    image = [phi.get(x) for x in c1.points]
    ok = (len(c1.points) == len(c2.points)
          and all(y is not None for y in image)
          and set(image) == set(c2.points))
    bad = next((x for x, y in zip(c1.points, image)
                if y not in set(c2.points)), None)
    rep.add("bijection", ok, witness=bad)
    if not ok:
        return rep

    bad = next((x for x in c1.points
                if c2.bmap[phi[x]] != c1.bmap[x]), None)
    rep.add("left-grading", bad is None, witness=bad)
    bad = next((x for x in c1.points
                if c2.fmap[phi[x]] != c1.fmap[x]), None)
    rep.add("right-grading", bad is None, witness=bad)

    defects = []
    for x in c1.points:
        y = phi[x]
        want = delta[c2.fmap[y]] * c2.weight[y]
        d = abs(c1.weight[x] - want) / max(abs(c1.weight[x]), 1.0)
        defects.append((d, x))
    rep.add_worst("weight-ratio", defects, tol)

    try:
        forced = corr_ratio(c1, c2, phi)
    except ValueError as exc:
        rep.add("ratio-determined", False, witness=str(exc))
        return rep
    rep.add_worst("ratio-determined",
                  ((abs(delta[base] - val), base)
                   for base, val in forced.items()), tol)
    return rep
