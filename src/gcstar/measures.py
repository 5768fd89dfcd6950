"""Weighted graded sets: measure families, correspondences, modules.

A GradedSpace is a finite set whose points carry a left grade, a right
grade and a positive weight.  The one class serves three readings: a
measure family fibres its points over the right grades (its left grading
is the identity) and integrates fibrewise; a correspondence reads the
two gradings as its two legs; a module reads the points as an orthogonal
basis whose weights are squared lengths.  A space stores its points by
position: an int code per point into each grade set and a float64 weight
array; labels enter through the constructor, and a tensor builds its
basis from its factor positions on first use.  For a groupoid with
invariant object weights c this module builds the two arrow families
(along range and along source), the three families on composable pairs,
and the three induced families obtained by composing them.  The composed
families agree bit for bit with each other where two routes exist, and
the tests insist on that.
"""

from __future__ import annotations

import math
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .report import Report


def _codes(grades, space):
    """Codes of grades in the tuple space, and that space followed by
    the grades outside it, in the order they first appear."""
    index = {y: i for i, y in enumerate(space)}
    extra = tuple(y for y in dict.fromkeys(grades) if y not in index)
    index.update((y, len(space) + k) for k, y in enumerate(extra))
    return np.array([index[y] for y in grades], dtype=np.intp), space + extra


def _recode(codes, space, onto):
    """codes into the tuple space as codes into the tuple onto, -1 for a
    grade onto lacks; codes itself when space is onto."""
    if space is onto:
        return codes
    at = {y: i for i, y in enumerate(onto)}
    return np.array([at.get(y, -1) for y in space], dtype=np.intp)[codes]


def _frozen(arr):
    arr.flags.writeable = False
    return arr


class GradedSpace:
    """A finite set graded on two sides, with a positive weight per point.

    basis       : the points, in a fixed order; built on first use
    left_space, right_space : the grade sets, by default the grades in
                  use sorted by str; a grade in use outside a given set
                  is appended to it
    left_codes, right_codes : int arrays, the position of each point's
                  grade in left_space and right_space
    weight_array : float64 array, the weight of each point
    left_lookup : read-only dict left grade -> code, built on first use
    left_runs   : the points grouped by left grade, built on first use
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
        """A space from its arrays; the codes must index the grade sets.
        With factors given, basis may be None, to be built on first use."""
        space = cls.__new__(cls)
        space._init(basis, tuple(left_space), tuple(right_space),
                    left_codes, right_codes, weights, factors)
        return space

    def _init(self, basis, left_space, right_space, left_codes,
              right_codes, weights, factors):
        if basis is not None:
            self.basis = tuple(basis)
        self.factors = factors
        self.left_space = left_space
        self.right_space = right_space
        self.left_codes = _frozen(np.asarray(left_codes, dtype=np.intp))
        self.right_codes = _frozen(np.asarray(right_codes, dtype=np.intp))
        self.weight_array = _frozen(np.asarray(weights, dtype=float))
        w = self.weight_array
        bad = np.flatnonzero(~(w > 0.0) | (w == np.inf))
        if bad.size:
            kind = "non-finite" if w[bad[0]] > 0.0 else "nonpositive"
            raise ValueError(f"{kind} weight at {self.basis[bad[0]]!r}")

    @cached_property
    def basis(self):
        """A tensor's points (a, b), zipped from its factor positions."""
        (e, ia), (f, ib) = self.factors
        return tuple(zip(map(e.basis.__getitem__, ia.tolist()),
                         map(f.basis.__getitem__, ib.tolist())))

    @cached_property
    def left_lookup(self):
        return MappingProxyType({y: i for i, y in enumerate(self.left_space)})

    @cached_property
    def left_runs(self):
        """(order, starts, sizes): the points of left code c are
        order[starts[c]:starts[c] + sizes[c]], in point order; one empty
        run follows the last code, so that code -1 reads no points."""
        sizes = np.bincount(self.left_codes,
                            minlength=len(self.left_space) + 1)
        return (_frozen(np.argsort(self.left_codes, kind="stable")),
                _frozen(np.cumsum(sizes) - sizes), _frozen(sizes))

    @property
    def dim(self):
        return len(self.weight_array)

    def gram_diagonal(self):
        """The weights as a read-only float64 array."""
        return self.weight_array

    def left_positions(self, x):
        """Positions of the points over the left grade x, in order."""
        return np.flatnonzero(self.left_codes == self.left_lookup.get(x, -1))

    def left_fiber(self, x):
        return tuple(self.basis[i] for i in self.left_positions(x).tolist())

    def integrate(self, func):
        """Weighted sum of a point function along the right grading; func
        is a dict on the points or an array of values in basis order."""
        vals = func if isinstance(func, np.ndarray) \
            else np.array([func[b] for b in self.basis], dtype=complex)
        return dict(zip(self.right_space, fibre_sums(
            self.right_codes, vals * self.weight_array,
            len(self.right_space)).tolist()))

    def inner(self, v, w):
        """Inner product valued in functions on the right space."""
        return dict(zip(self.right_space, fibre_sums(
            self.right_codes, np.conj(v) * w * self.weight_array,
            len(self.right_space)).tolist()))

    def scalar_inner(self, v, w):
        return complex(np.vdot(v, w * self.gram_diagonal()))

    def norm(self, v):
        return float(np.sqrt(max(self.scalar_inner(v, v).real, 0.0)))

    def __repr__(self):
        return f"GradedSpace(dim={self.dim})"


def _family(points, target, codes, weights):
    """Measure family: points fibred over the tuple target, codes the
    position of each point's grade in it, one weight per point; the
    left grading is the identity."""
    points = tuple(points)
    return GradedSpace.from_codes(points, points, target,
                                  np.arange(len(points)), codes, weights)


def object_weights(gpd, weights):
    """The object weights as a float64 array in object order."""
    return np.array([weights[x] for x in gpd.objects], dtype=float)


def pair_values(gpd, psi, g, h):
    """A function on arrow pairs at the positions (g[i], h[i])."""
    a = gpd.arrows
    return np.array([psi[(a[i], a[j])] for i, j in
                     zip(g.tolist(), h.tolist())], dtype=complex)


def fibre_sums(codes, values, n):
    """Sums of the complex values over equal codes below n, each
    accumulated in input order."""
    out = np.empty(n, dtype=complex)
    out.real = np.bincount(codes, values.real, n)
    out.imag = np.bincount(codes, values.imag, n)
    return out


def _relative_gaps(lhs, rhs):
    """|lhs - rhs| / max(|lhs|, |rhs|, 1) entrywise for two complex
    arrays; np.hypot rounds as abs() does on one value, where np.abs
    may differ by an ulp."""
    gap, a, b = (np.hypot(z.real, z.imag) for z in (lhs - rhs, lhs, rhs))
    with np.errstate(invalid="ignore"):  # inf / inf is NaN, as in Python
        return gap / np.maximum(np.maximum(a, b), 1.0)


def compose_families(lam, mu):
    """Family for the two-step fibration: weight(x) = lam(x) * mu(f(x)).

    lam fibres X over Y and mu fibres Y over Z; the result fibres X
    over Z along the composite map.
    """
    pos = _recode(lam.right_codes, lam.right_space, mu.basis)
    if pos.size and pos.min() < 0:
        raise KeyError(lam.right_space[lam.right_codes[np.argmin(pos)]])
    return GradedSpace.from_codes(
        lam.basis, lam.basis, mu.right_space, np.arange(lam.dim),
        mu.right_codes[pos], lam.weight_array * mu.weight_array[pos])


def haar_system(gpd, weights):
    """The two invariant arrow families for object weights c.

    Returns (alpha, alpha_r): alpha fibres arrows over their range with
    weight c(src(g)); alpha_r fibres them over their source with weight
    c(rng(g)).  Inversion exchanges the two.
    """
    t, c = gpd.codes, object_weights(gpd, weights)
    return (_family(gpd.arrows, gpd.objects, t.rng, c[t.src]),
            _family(gpd.arrows, gpd.objects, t.src, c[t.rng]))


class GroupoidFamilies:
    """All weight families a groupoid with object weights carries.

    lam0, lam1, lam2 fibre the composable pairs (g, h) over arrows along
    the three face maps h, gh and g; mu0, mu1, mu2 are defined as the
    compositions alpha . lam1, alpha . lam0 and alpha_r . lam0 and fibre
    the pairs over objects along the three vertex maps.  haar, when
    given, is the pair (alpha, alpha_r) of haar_system(gpd, weights) to
    use.  Raises ValueError at the first pair whose gh does not run
    src(h) -> rng(g).
    """

    def __init__(self, gpd, weights, haar=None):
        self.groupoid = gpd
        self.weights = {x: float(weights[x]) for x in gpd.objects}
        t = gpd.codes
        g, h = t.pairs
        gh = t.comp[g, h]
        pairs = gpd.composable_pairs()
        bad = np.flatnonzero((t.rng[gh] != t.rng[g])
                             | (t.src[gh] != t.src[h]))
        if bad.size:
            raise ValueError(
                f"inconsistent nerve data at pair {pairs[bad[0]]!r}")
        self.alpha, self.alpha_r = haar_system(gpd, self.weights) \
            if haar is None else haar
        c = object_weights(gpd, weights)
        self.lam0 = _family(pairs, gpd.arrows, h, c[t.rng[g]])
        self.lam1 = _family(pairs, gpd.arrows, gh, c[t.rng[h]])
        self.lam2 = _family(pairs, gpd.arrows, g, c[t.src[h]])
        self.mu0 = compose_families(self.lam1, self.alpha)
        self.mu1 = compose_families(self.lam0, self.alpha)
        self.mu2 = compose_families(self.lam0, self.alpha_r)


def _family_equal(fam1, fam2):
    """Absolute weight differences; inf on a map or point mismatch."""
    if not (fam1.basis == fam2.basis and fam1.right_space == fam2.right_space
            and np.array_equal(fam1.right_codes, fam2.right_codes)):
        return math.inf
    return abs(fam1.weight_array - fam2.weight_array)


def check_family_identities(gpd, weights):
    """mu0, mu1 and mu2, defined through lam1, lam0 and lam0, agree
    exactly with their compositions through lam2, lam2 and lam1."""
    fam = GroupoidFamilies(gpd, weights)
    rep = Report("vertex family identities")
    routes = (
        ("mu0-via-lam2", fam.mu0, compose_families(fam.lam2, fam.alpha)),
        ("mu1-via-lam2", fam.mu1, compose_families(fam.lam2, fam.alpha_r)),
        ("mu2-via-lam1", fam.mu2, compose_families(fam.lam1, fam.alpha_r)),
    )
    for name, a, b in routes:
        rep.add_worst_at(name, _family_equal(a, b), 0.0)
    return rep


def compare_integrals(gpd, weights, psi, fam=None):
    """Both sides of the substitution identity for a pair function.

    The left side integrates psi(g, inverse(g) k) over arrows g into
    rng(k) and then over arrows k out of each object; the right side
    integrates psi directly with the third vertex family.  psi is read
    once, at the composable pairs; fam is GroupoidFamilies(gpd,
    weights), built here when None.  Returns the two dicts on objects.
    """
    if fam is None:
        fam = GroupoidFamilies(gpd, weights)
    t, c = gpd.codes, object_weights(gpd, weights)
    g, h = t.pairs
    vals = pair_values(gpd, psi, g, h)
    k = t.comp[g, h]
    # summed at src(k) over k in arrow order, then g in arrow order
    order = np.lexsort((g, k))
    g, k = g[order], k[order]
    terms = vals[order] * c[t.src[g]] * c[t.rng[k]]
    left = dict(zip(gpd.objects,
                    fibre_sums(t.src[k], terms, len(c)).tolist()))
    return left, fam.mu2.integrate(vals)


def check_iterated_integrals(gpd, weights, functions):
    """Substitution identity for a batch of pair functions; the families
    are built once and each function is read once."""
    rep = Report("iterated integrals")
    fam = GroupoidFamilies(gpd, weights)
    for i, psi in enumerate(functions):
        left, right = (np.array([side[x] for x in gpd.objects])
                       for side in compare_integrals(gpd, weights, psi, fam))
        rep.add_worst_at(f"exchange-{i}", _relative_gaps(left, right),
                         1e-12, lambda k: gpd.objects[k])
    return rep


# ---------------------------------------------------------------------------
# correspondences

def arrow_correspondence(gpd, weights, leg):
    """The arrow set as a correspondence over the objects.

    leg "s": graded by range on the left, fibred over source with
    weight c(rng(g)).  leg "r": graded by source on the left, fibred
    over range with weight c(src(g)).
    """
    if leg not in ("s", "r"):
        raise ValueError(f"leg must be 's' or 'r', got {leg!r}")
    t = gpd.codes
    left, right = (t.rng, t.src) if leg == "s" else (t.src, t.rng)
    return GradedSpace.from_codes(gpd.arrows, gpd.objects, gpd.objects,
                                  left, right,
                                  object_weights(gpd, weights)[left])


def check_corr_isomorphism(c1, c2, phi, delta, tol=0.0):
    """phi carries c1 onto c2 with weight ratio delta.

    phi, the c2 position of the image of each c1 point (-1 for none),
    must be a bijection preserving both gradings; delta is a positive
    array over the right space of c2, and the weight condition reads
    weight1(x) == delta(base) * weight2(phi x) at base = right2(phi x).
    Over every base point that is hit, delta is forced by the weights;
    the ratio-determined check confirms the given delta matches the
    forced one, base points in the order they are first hit.  Witnesses
    are labels.
    """
    phi, delta = np.asarray(phi, dtype=np.intp), np.asarray(delta, float)
    rep = Report("correspondence isomorphism")
    inside = (phi >= 0) & (phi < c2.dim)
    ok = bool(c1.dim == c2.dim and inside.all()
              and (np.bincount(phi, minlength=c2.dim) == 1).all())
    bad = np.flatnonzero(~inside)
    rep.add("bijection", ok, witness=c1.basis[bad[0]] if bad.size else None)
    if not ok:
        return rep

    for side in ("left", "right"):
        bad = np.flatnonzero(getattr(c2, side + "_codes")[phi] != _recode(
            getattr(c1, side + "_codes"), getattr(c1, side + "_space"),
            getattr(c2, side + "_space")))
        rep.add(side + "-grading", not bad.size,
                witness=c1.basis[bad[0]] if bad.size else None)

    w1, w2, base = c1.weight_array, c2.weight_array[phi], c2.right_codes[phi]
    rep.add_worst_at("weight-ratio", abs(w1 - delta[base] * w2)
                     / np.maximum(abs(w1), 1.0), tol, lambda k: c1.basis[k])

    ratio = w1 / w2
    first = np.sort(np.unique(base, return_index=True)[1])
    forced = np.empty(len(c2.right_space))
    forced[base[first]] = ratio[first]
    clash = np.flatnonzero(ratio != forced[base])
    if clash.size:
        rep.add("ratio-determined", False, witness="ratio not constant over "
                f"base {c2.right_space[base[clash[0]]]!r}")
        return rep
    hit = base[first]
    rep.add_worst_at("ratio-determined", abs(delta[hit] - forced[hit]), tol,
                     lambda k: c2.right_space[hit[k]])
    return rep
