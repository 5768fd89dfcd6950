"""Weighted graded sets: measure families, correspondences, modules.

A GradedSpace is a finite set whose points carry a left grade, a right
grade and a positive weight.  The one class serves three readings: a
measure family fibres its points over the right grades (its left
grading is the identity) and integrates fibrewise; a correspondence
reads the two gradings as its two legs; a module reads the points as
an orthogonal basis whose weights are squared lengths.  A space stores
its points by position: an int code per point into each grade set and
a float64 weight array; the label dicts left, right, weight and index
are read-only views built on first use.  For a groupoid with invariant
object weights c this module builds the two arrow families (along range
and along source), the three families on composable pairs, and the
three induced families obtained by composing them.  The composed
families agree bit for bit with each other where two routes exist, and
the tests insist on that.
"""

from __future__ import annotations

import math
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .report import Report, worst


def _codes(grades, space):
    """Codes of grades in the tuple space, and that space followed by
    the grades outside it, in the order they first appear."""
    index = {y: i for i, y in enumerate(space)}
    extra = tuple(y for y in dict.fromkeys(grades) if y not in index)
    index.update((y, len(space) + k) for k, y in enumerate(extra))
    return np.array([index[y] for y in grades], dtype=np.intp), space + extra


def _frozen(arr):
    arr.flags.writeable = False
    return arr


class GradedSpace:
    """A finite set graded on two sides, with a positive weight per point.

    basis       : the points, in a fixed order
    left_space, right_space : the grade sets, by default the grades in
                  use sorted by str; a grade in use outside a given set
                  is appended to it
    left_codes, right_codes : int arrays, the position of each point's
                  grade in left_space and right_space
    weight_array : float64 array, the weight of each point
    left, right, weight, index : read-only dicts point -> left grade,
                  right grade, weight and position, built on first use
    factors     : for a balanced tensor e x f, ((e, ia), (f, ib)) with
                  ia, ib the factor positions of each point; else None

    The constructor takes the label dicts; from_codes takes the arrays.
    As a module the points are an orthogonal basis, each weight the
    squared length of its vector, and the inner product takes values in
    functions on the right space.
    """

    def __init__(self, basis, left, right, weight,
                 left_space=None, right_space=None):
        basis = tuple(basis)
        lgrades = [left[b] for b in basis]
        rgrades = [right[b] for b in basis]
        if left_space is None:
            left_space = sorted(set(lgrades), key=str)
        if right_space is None:
            right_space = sorted(set(rgrades), key=str)
        left_codes, left_space = _codes(lgrades, tuple(left_space))
        right_codes, right_space = _codes(rgrades, tuple(right_space))
        self._init(basis, left_space, right_space, left_codes, right_codes,
                   [float(weight[b]) for b in basis], None)

    @classmethod
    def from_codes(cls, basis, left_space, right_space, left_codes,
                   right_codes, weights, factors=None):
        """A space from its arrays; the codes must index the grade sets."""
        space = cls.__new__(cls)
        space._init(tuple(basis), tuple(left_space), tuple(right_space),
                    left_codes, right_codes, weights, factors)
        return space

    def _init(self, basis, left_space, right_space, left_codes,
              right_codes, weights, factors):
        self.basis = basis
        self.left_space = left_space
        self.right_space = right_space
        self.left_codes = _frozen(np.asarray(left_codes, dtype=np.intp))
        self.right_codes = _frozen(np.asarray(right_codes, dtype=np.intp))
        self.weight_array = _frozen(np.asarray(weights, dtype=float))
        w = self.weight_array
        bad = np.flatnonzero(~(w > 0.0) | (w == np.inf))
        if bad.size:
            kind = "non-finite" if w[bad[0]] > 0.0 else "nonpositive"
            raise ValueError(f"{kind} weight at {basis[bad[0]]!r}")
        self.factors = factors

    @cached_property
    def left(self):
        labels = self.left_space
        return MappingProxyType({b: labels[i] for b, i in
                                 zip(self.basis, self.left_codes.tolist())})

    @cached_property
    def right(self):
        labels = self.right_space
        return MappingProxyType({b: labels[i] for b, i in
                                 zip(self.basis, self.right_codes.tolist())})

    @cached_property
    def weight(self):
        return MappingProxyType(
            dict(zip(self.basis, self.weight_array.tolist())))

    @cached_property
    def index(self):
        """Position of each point in the basis, built on first use."""
        return MappingProxyType({b: i for i, b in enumerate(self.basis)})

    @property
    def dim(self):
        return len(self.basis)

    def gram_diagonal(self):
        """The weights as a read-only float64 array."""
        return self.weight_array

    def left_fiber(self, x):
        code = {y: i for i, y in enumerate(self.left_space)}.get(x)
        if code is None:
            return ()
        return tuple(self.basis[i]
                     for i in np.flatnonzero(self.left_codes == code))

    def integrate(self, func):
        """Weighted sum of a point function along the right grading."""
        out = {y: 0.0 for y in self.right_space}
        for b in self.basis:
            out[self.right[b]] += func[b] * self.weight[b]
        return out

    def inner(self, v, w):
        """Inner product valued in functions on the right space."""
        out = {y: 0.0 + 0.0j for y in self.right_space}
        for b in self.basis:
            i = self.index[b]
            out[self.right[b]] += np.conj(v[i]) * w[i] * self.weight[b]
        return out

    def scalar_inner(self, v, w):
        return complex(np.vdot(v, w * self.gram_diagonal()))

    def norm(self, v):
        return float(np.sqrt(max(self.scalar_inner(v, v).real, 0.0)))

    def __repr__(self):
        return f"GradedSpace(dim={self.dim})"


def _family(points, target, grades, weights):
    """Measure family: points fibred over target, one grade and one
    weight per point; the left grading is the identity."""
    points = tuple(points)
    codes, target = _codes(grades, tuple(target))
    return GradedSpace.from_codes(points, points, target,
                                  np.arange(len(points)), codes, weights)


def compose_families(lam, mu):
    """Family for the two-step fibration: weight(x) = lam(x) * mu(f(x)).

    lam fibres X over Y and mu fibres Y over Z; the result fibres X
    over Z along the composite map.
    """
    pos = np.array([mu.index[y] for y in lam.right_space],
                   dtype=np.intp)[lam.right_codes]
    return GradedSpace.from_codes(
        lam.basis, lam.basis, mu.right_space, np.arange(lam.dim),
        mu.right_codes[pos], lam.weight_array * mu.weight_array[pos])


def haar_system(gpd, weights):
    """The two invariant arrow families for object weights c.

    Returns (alpha, alpha_r): alpha fibres arrows over their range with
    weight c(src(g)); alpha_r fibres them over their source with weight
    c(rng(g)).  Inversion exchanges the two.
    """
    arrows = gpd.arrows
    alpha = _family(arrows, gpd.objects, [gpd.rng[g] for g in arrows],
                    [weights[gpd.src[g]] for g in arrows])
    alpha_r = _family(arrows, gpd.objects, [gpd.src[g] for g in arrows],
                      [weights[gpd.rng[g]] for g in arrows])
    return alpha, alpha_r


class GroupoidFamilies:
    """All weight families a groupoid with object weights carries.

    lam0, lam1, lam2 fibre the composable pairs (g, h) over arrows along
    the three face maps h, gh and g; mu0, mu1, mu2 are defined as the
    compositions alpha . lam1, alpha . lam0 and alpha_r . lam0 and fibre
    the pairs over objects along the three vertex maps.  Raises
    ValueError at the first pair whose gh does not run src(h) -> rng(g).
    """

    def __init__(self, gpd, weights):
        self.groupoid = gpd
        self.weights = c = {x: float(weights[x]) for x in gpd.objects}
        pairs = gpd.composable_pairs()
        gh = [gpd.comp[p] for p in pairs]
        bad = next((p for p, k in zip(pairs, gh)
                    if gpd.rng[k] != gpd.rng[p[0]]
                    or gpd.src[k] != gpd.src[p[1]]), None)
        if bad is not None:
            raise ValueError(f"inconsistent nerve data at pair {bad!r}")
        self.alpha, self.alpha_r = haar_system(gpd, c)
        self.lam0 = _family(pairs, gpd.arrows, [h for _, h in pairs],
                            [c[gpd.rng[g]] for g, _ in pairs])
        self.lam1 = _family(pairs, gpd.arrows, gh,
                            [c[gpd.rng[h]] for _, h in pairs])
        self.lam2 = _family(pairs, gpd.arrows, [g for g, _ in pairs],
                            [c[gpd.src[h]] for _, h in pairs])
        self.mu0 = compose_families(self.lam1, self.alpha)
        self.mu1 = compose_families(self.lam0, self.alpha)
        self.mu2 = compose_families(self.lam0, self.alpha_r)


def groupoid_families(gpd, weights):
    return GroupoidFamilies(gpd, weights)


def _family_equal(fam1, fam2):
    """Worst absolute weight difference; inf on a map or point mismatch."""
    if set(fam1.basis) != set(fam2.basis):
        return math.inf
    for p in fam1.basis:
        if fam1.right[p] != fam2.right[p]:
            return math.inf
    return worst((abs(fam1.weight[p] - fam2.weight[p]), None)
                 for p in fam1.basis)[0]


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

def arrow_correspondence(gpd, weights, leg):
    """The arrow set as a correspondence over the objects.

    leg "s": graded by range on the left, fibred over source with
    weight c(rng(g)).  leg "r": graded by source on the left, fibred
    over range with weight c(src(g)).
    """
    if leg == "s":
        return GradedSpace(gpd.arrows, gpd.rng, gpd.src,
                           {g: weights[gpd.rng[g]] for g in gpd.arrows},
                           left_space=gpd.objects, right_space=gpd.objects)
    if leg == "r":
        return GradedSpace(gpd.arrows, gpd.src, gpd.rng,
                           {g: weights[gpd.src[g]] for g in gpd.arrows},
                           left_space=gpd.objects, right_space=gpd.objects)
    raise ValueError(f"leg must be 's' or 'r', got {leg!r}")


def corr_ratio(c1, c2, phi):
    """Weight ratio of c1 against c2 pushed along phi, per base point.

    Returns a dict on the right space of c2; base points not hit by any
    image are omitted.  Raises if two points over the same base force
    different ratios.
    """
    out = {}
    for x in c1.basis:
        y = phi[x]
        base = c2.right[y]
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
    at base = right2(phi x).  Over every base point that is hit, delta
    is forced by the weights; the ratio-determined check confirms the
    given delta matches the forced one.
    """
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

    bad = next((x for x in c1.basis
                if c2.left[phi[x]] != c1.left[x]), None)
    rep.add("left-grading", bad is None, witness=bad)
    bad = next((x for x in c1.basis
                if c2.right[phi[x]] != c1.right[x]), None)
    rep.add("right-grading", bad is None, witness=bad)

    defects = []
    for x in c1.basis:
        y = phi[x]
        want = delta[c2.right[y]] * c2.weight[y]
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
