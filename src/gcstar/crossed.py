"""Inverse semigroups of bisections, germs, and crossed products.

A bisection of a groupoid is a set of arrows hitting every object at
most once on each end; it induces a partial bijection of the objects.
Distinct bisections can induce the same partial bijection, so every
element here is a tagged bisection: a partial bijection carrying its
arrow set as a tag, and equality respects the tag.  Closing a
set of bisections under composition and inversion gives an inverse
semigroup acting on the objects; its germs reconstruct the groupoid,
and the crossed product of the action is compared against the
convolution algebra of the germ groupoid with counting weights.

Inside, elements are numbered 0..n-1 and carrier points 0..m-1, and
every structure is one integer table over those numbers: the product,
the involution, the action (-1 off the domain), the order as a boolean
matrix, the germ classes of (element, point) pairs, and the product
and involution of the crossed product (-1 for a zero product).  The
element and point labels appear only in witnesses, error messages and
the label views, theta and basis.
"""

from __future__ import annotations

import numpy as np

from .report import Report, VerificationError, max_abs, worst
from .fingroupoid import transformation_groupoid
from .convalg import delta_function
from .reps import blockwise, check_cocycle, from_cocycle
from .hilbmod import module_from_dims
from .intdis import integrate_rep

_MAX_ARROWS, _MAX_ELEMENTS = 16, 4096  # bisection and semigroup guards


class PartialBijection:
    """Injective partial map of a finite set, tagged by a bisection.

    The tag is the arrow set of a bisection inducing the map; two
    bisections with equal maps but different arrows stay distinct.
    """

    def __init__(self, mapping, tag):
        self.mapping = dict(mapping)
        if len(set(self.mapping.values())) != len(self.mapping):
            raise ValueError("mapping is not injective")
        self.tag = frozenset(tag)
        self._key = (frozenset(self.mapping.items()), self.tag)

    def __call__(self, x):
        return self.mapping[x]

    def __eq__(self, other):
        return isinstance(other, PartialBijection) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Bisection({sorted(self.tag, key=str)!r})"


def _sort_key(pb):
    return (len(pb.mapping), sorted(map(str, pb.mapping.items())),
            sorted(map(str, pb.tag)))


def bisection_from_arrows(gpd, arrows):
    arrows = frozenset(arrows)
    srcs = [gpd.src[g] for g in arrows]
    rngs = [gpd.rng[g] for g in arrows]
    if len(set(srcs)) != len(srcs) or len(set(rngs)) != len(rngs):
        raise ValueError(f"arrow set {sorted(arrows, key=str)!r} "
                         "is not a bisection")
    return PartialBijection({gpd.src[g]: gpd.rng[g] for g in arrows},
                            tag=arrows)


def compose_bisections(gpd, a, b):
    """Pointwise composites of the two arrow sets; again a bisection."""
    tag = frozenset(gpd.comp[(g, h)]
                    for g in a.tag for h in b.tag
                    if gpd.src[g] == gpd.rng[h])
    return bisection_from_arrows(gpd, tag)


def invert_bisection(gpd, a):
    return bisection_from_arrows(gpd, frozenset(gpd.inv[g] for g in a.tag))


def all_bisections(gpd):
    """Every bisection, the empty one included; guarded by size."""
    if len(gpd.arrows) > _MAX_ARROWS:
        raise ValueError(
            f"refusing to enumerate bisections of {len(gpd.arrows)} arrows "
            f"(limit {_MAX_ARROWS})")
    arrows = sorted(gpd.arrows, key=str)
    found = []

    def grow(i, chosen, used_s, used_r):
        if i == len(arrows):
            found.append(bisection_from_arrows(gpd, frozenset(chosen)))
            return
        grow(i + 1, chosen, used_s, used_r)
        g = arrows[i]
        if gpd.src[g] not in used_s and gpd.rng[g] not in used_r:
            grow(i + 1, chosen + [g],
                 used_s | {gpd.src[g]}, used_r | {gpd.rng[g]})

    grow(0, [], set(), set())
    return sorted(found, key=_sort_key)


# ---------------------------------------------------------------------------
# table scans

def _first(mask):
    """Row-major index of the first True entry (an int for a vector), or
    None; the order is that of nested loops over the axes."""
    hit = np.argwhere(mask)
    if not len(hit):
        return None
    return int(hit[0, 0]) if hit.shape[1] == 1 else tuple(map(int, hit[0]))


def _scan(n, mask_of):
    """First (a, ...) of _first(mask_of(a)) over a = 0..n-1, or None."""
    for a in range(n):
        rest = _first(mask_of(a))
        if rest is not None:
            return (a,) + (rest if isinstance(rest, tuple) else (rest,))
    return None


def _block_range(vals, bounds):
    """Least and largest entry of vals per column block i, the columns
    bounds[i]:bounds[i + 1]."""
    vals = np.atleast_2d(vals)
    return (np.minimum.reduceat(vals.min(axis=0), bounds[:-1]),
            np.maximum.reduceat(vals.max(axis=0), bounds[:-1]))


def _inverse_action(act):
    """Table of the inverse partial bijections: out[a, act[a, x]] = x."""
    out = np.full_like(act, -1)
    a, x = np.nonzero(act >= 0)
    out[a, act[a, x]] = x
    return out


def _outside(table, n):
    return (table < 0) | (table >= n)


class InverseSemigroup:
    """Finite inverse semigroup with an action on a carrier set.

    Elements and carrier points are numbered by their places in the
    two tuples.  mul[a, b] is the product ab, star[a] the inverse and
    act[a, x] the image of x under a, -1 off its domain.  The
    constructor derives the order once, le[a, b] for a <= b (a = b a* a),
    and the idempotent flags idem; theta is the label view of act.
    Validation is exhaustive.
    """

    def __init__(self, elements, mul, star, act, carrier):
        self.elements = tuple(elements)
        self.carrier = tuple(carrier)
        n, m = len(self.elements), len(self.carrier)
        self.mul = np.asarray(mul, dtype=np.intp).reshape(n, n)
        self.star = np.asarray(star, dtype=np.intp).reshape(n)
        self.act = np.asarray(act, dtype=np.intp).reshape(n, m)
        ids = np.arange(n)
        self.idem = (self.mul[ids, ids] == ids) & (self.star == ids)
        self.le = np.zeros((n, n), dtype=bool)
        # an entry naming no element fails validate's closure instead
        if not (_outside(self.mul, n).any() or _outside(self.star, n).any()):
            self.le = self.mul[:, self.mul[self.star, ids]].T == ids[:, None]
        self.theta = {a: {self.carrier[x]: self.carrier[y]
                          for x, y in enumerate(row) if y >= 0}
                      for a, row in zip(self.elements, self.act.tolist())}

    def leq(self, a, b):
        """The order on element labels."""
        return bool(self.le[self.elements.index(a), self.elements.index(b)])

    def label(self, idx):
        """Element label of an index or a tuple of indices; None stays."""
        if isinstance(idx, tuple):
            return tuple(self.elements[i] for i in idx)
        return None if idx is None else self.elements[idx]

    def validate(self):
        rep = Report("inverse semigroup")
        mul, star, act, idem = self.mul, self.star, self.act, self.idem
        n, m = act.shape
        ids = np.arange(n)
        bad = _first(_outside(mul, n))
        if bad is None:
            bad = _first(_outside(star, n))
        rep.add("closure", bad is None, witness=self.label(bad))
        if bad is not None:
            return rep

        checks = (
            ("associativity", _scan(n, lambda a: mul[mul[a]] != mul[a][mul])),
            ("involution", _first(star[star] != ids)),
            ("involution-antimultiplicative",
             _first(star[mul] != mul[np.ix_(star, star)].T)),
            ("regularity", _first(mul[mul[ids, star], ids] != ids)),
            ("idempotents-commute",
             _first(np.outer(idem, idem) & (mul != mul.T))))
        for name, bad in checks:
            rep.add(name, bad is None, witness=self.label(bad))

        ordered = np.sort(act, axis=1)
        repeated = (ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)
        bad = _first(np.hstack([repeated, act < -1, act >= m]).any(axis=1))
        rep.add("action-partial-bijections", bad is None,
                witness=self.label(bad))
        if bad is not None:
            return rep

        moved = (act >= 0) & (act != np.arange(m))
        checks = (
            ("action-involution",
             _first((act[star] != _inverse_action(act)).any(axis=1))),
            # row b of the composite: a after b, -1 where it is undefined
            ("action-multiplicative", _scan(n, lambda a: (act[mul[a]] != (
                np.where(act >= 0, act[a][act], -1))).any(axis=1))),
            ("action-idempotent-identity", _first(idem & moved.any(axis=1))))
        for name, bad in checks:
            rep.add(name, bad is None, witness=self.label(bad))
        return rep


def semigroup_from_bisections(gpd, generators):
    """Close tagged bisections under composition and inversion.

    Every ordered pair of elements is composed once, when the later of
    the two is found, and the table is read from those products.
    Elements are listed in _sort_key order, and act on the objects
    through their own partial bijections.
    """
    found, position, prod = [], {}, {}

    def place(c, limit=_MAX_ELEMENTS):
        if c not in position:
            if len(found) >= limit:
                raise ValueError(
                    f"semigroup closure exceeded {_MAX_ELEMENTS} elements")
            position[c] = len(found)
            found.append(c)
        return position[c]

    for a in generators:
        place(a, np.inf)
        place(invert_bisection(gpd, a), np.inf)
    # found grows while it is scanned
    for i, a in enumerate(found):
        for j in range(i):
            prod[i, j] = place(compose_bisections(gpd, a, found[j]))
            prod[j, i] = place(compose_bisections(gpd, found[j], a))
        prod[i, i] = place(compose_bisections(gpd, a, a))

    order = sorted(range(len(found)), key=lambda k: _sort_key(found[k]))
    rank = np.argsort(order)
    elements = [found[k] for k in order]
    carrier = gpd.objects
    point = {x: i for i, x in enumerate(carrier)}
    act = [[point[a.mapping[x]] if x in a.mapping else -1 for x in carrier]
           for a in elements]
    return InverseSemigroup(
        elements, rank[[[prod[i, j] for j in order] for i in order]],
        rank[[position[invert_bisection(gpd, a)] for a in elements]], act,
        carrier)


def bisection_semigroup(gpd):
    """The inverse semigroup of every bisection of the groupoid."""
    return semigroup_from_bisections(gpd, all_bisections(gpd))


def is_wide(gpd, sgrp):
    """Tags cover all arrows and meets of tags are unions of tags."""
    rep = Report("wide semigroup")
    els = sgrp.elements
    covered = frozenset().union(*(a.tag for a in els))
    rep.add("covers-arrows", covered == frozenset(gpd.arrows),
            witness=sorted(frozenset(gpd.arrows) - covered, key=str) or None)

    arrows = sorted(covered, key=str)
    tags = np.array([[g in a.tag for g in arrows] for a in els], dtype=float)
    # row b: the union of the tags below a and b, against their meet
    le = sgrp.le
    bad = _scan(len(els), lambda a: (((le[:, a] & le.T) @ tags) > 0)
                != (tags[a] * tags > 0))
    witness = None
    if bad is not None:
        a, b = bad[:2]
        meet = els[a].tag & els[b].tag
        union = frozenset().union(
            *(els[v].tag for v in np.flatnonzero(le[:, a] & le[:, b])))
        witness = ((els[a], els[b]), sorted(meet - union, key=str))
    rep.add("meets-realized", bad is None, witness=witness)
    return rep


# ---------------------------------------------------------------------------
# germs

def _covering(sgrp, x, missing):
    """Idempotents acting at point x; raises with missing if none."""
    covering = np.flatnonzero(sgrp.idem & (sgrp.act[:, x] >= 0))
    if not covering.size:
        raise VerificationError(
            f"no idempotent acts at {sgrp.carrier[x]!r}{missing}")
    return covering


def germ_classes(sgrp, side="dom"):
    """Equivalence classes of (element, point) pairs at the given side.

    Two pairs at the same point x are identified when some common
    lower element still carries x: one boolean product of the order
    rows of the elements carrying x, closed transitively.  Returns
    (reps, cls): cls[a, x] is the class of (a, x), -1 where a does not
    carry x, and reps[i] = (a, x) is the canonical representative of
    class i, its pair with the least element.  Classes are ordered by
    the str of their point label, then by that element.
    """
    carries = (sgrp.act if side == "dom" else _inverse_action(sgrp.act)) >= 0
    least = np.full(carries.shape, -1)
    for x in np.flatnonzero(carries.any(axis=0)):
        members = np.flatnonzero(carries[:, x])
        below = sgrp.le[np.ix_(members, members)].astype(float)
        joined = (below.T @ below > 0) | np.eye(len(members), dtype=bool)
        while True:
            grown = joined.astype(float) @ joined > 0
            if (grown == joined).all():
                break
            joined = grown
        # each pair's class is named by its least element
        least[members, x] = members[joined.argmax(axis=1)]
    a, x = np.nonzero(least >= 0)
    reps = sorted(set(zip(least[a, x].tolist(), x.tolist())),
                  key=lambda r: (str(sgrp.carrier[r[1]]), r))
    cls = np.full(carries.shape, -1)
    for i, (a, x) in enumerate(reps):
        cls[least[:, x] == a, x] = i
    return np.array(reps, dtype=np.intp).reshape(len(reps), 2), cls


def _members(cls, count):
    """The pairs (a, x) of a class table sorted by class, then element,
    and the bounds of each class: class i is bounds[i]:bounds[i + 1]."""
    a, x = np.nonzero(cls >= 0)
    order = np.argsort(cls[a, x], kind="stable")
    a, x = a[order], x[order]
    return a, x, np.searchsorted(cls[a, x], np.arange(count + 1))


def _germ_label(sgrp, rep):
    return (sgrp.elements[rep[0]], sgrp.carrier[rep[1]])


def _germ_tables(sgrp):
    """The source side germ groupoid as index tables.

    Returns (reps, cls, src, rng, comp, inv, unit): the germ classes,
    each class's source and range point, the class of each composable
    product (-1 elsewhere), each class's inverse and each point's unit.
    Ranges and products are verified to be independent of members, and
    units need an idempotent through every point.
    """
    reps, cls = germ_classes(sgrp, side="dom")
    k = len(reps)
    a, x, bounds = _members(cls, k)
    ends = sgrp.act[a, x]
    src, rng = reps[:, 1], ends[bounds[:-1]]
    bad = _first(ends != rng[cls[a, x]])
    if bad is not None:
        label = _germ_label(sgrp, reps[cls[a[bad], x[bad]]])
        raise VerificationError(f"germ class {label!r} has inconsistent range")

    comp = np.full((k, k), -1)
    for i in range(k):
        first = a[bounds[i]:bounds[i + 1]]
        # the class of (a' b, y) for each member a' of i and pair (b, y)
        vals = cls[sgrp.mul[np.ix_(first, a)], x]
        low = _block_range(np.where(vals >= 0, vals, k), bounds)[0]
        composable = rng == src[i]
        j = _first(composable & (low != _block_range(vals, bounds)[1]))
        if j is not None:
            got = sorted(set(vals[:, bounds[j]:bounds[j + 1]].ravel().tolist())
                         - {-1})
            raise VerificationError(
                f"germ composition of {_germ_label(sgrp, reps[i])!r} and "
                f"{_germ_label(sgrp, reps[j])!r} is not "
                f"representative independent: {got!r}")
        comp[i, composable] = low[composable]

    inv = cls[sgrp.star[reps[:, 0]], sgrp.act[reps[:, 0], reps[:, 1]]]
    unit = np.array([cls[_covering(sgrp, x, "; units are missing")[0], x]
                     for x in range(len(sgrp.carrier))], dtype=np.intp)
    return reps, cls, src, rng, comp, inv, unit


def germ_reconstruction(gpd, sgrp):
    """The germ groupoid of a wide tagged semigroup matches the groupoid.

    Maps the germ of a bisection at a point to its unique arrow there
    and checks the map is a bijection respecting all structure.
    """
    rep = Report("germ reconstruction")
    reps, cls, src, rng, comp, inv, unit = _germ_tables(sgrp)
    els, pts, arrows = sgrp.elements, sgrp.carrier, gpd.arrows
    k = len(reps)
    a, x, bounds = _members(cls, k)

    def label(c):
        return _germ_label(sgrp, reps[c])

    # the arrow of each member at its point, -1 unless there is just one
    number = {g: i for i, g in enumerate(arrows)}
    hit = [[g for g in els[i].tag if gpd.src[g] == pts[p]]
           for i, p in zip(a, x)]
    hit = np.array([number[h[0]] if len(h) == 1 else -1 for h in hit],
                   dtype=np.intp)
    low, high = _block_range(hit, bounds)
    c = _first((low != high) | (low < 0))
    bad = None if c is None else label(c)
    if c is not None and low[c] < 0:
        e = bounds[c] + int(np.argmin(hit[bounds[c]:bounds[c + 1]]))
        bad = (els[a[e]], pts[x[e]])
    rep.add("well-defined", bad is None, witness=bad)
    if bad is not None:
        return rep

    arrow_of = hit[bounds[:-1]]
    onto = np.array_equal(np.sort(arrow_of), np.arange(len(arrows)))
    rep.add("bijective", onto,
            witness=None if onto else f"{k} germs for {len(arrows)} arrows")
    if not onto:
        return rep

    g = [arrows[i] for i in arrow_of]
    bad = next((label(c) for c in range(k)
                if gpd.src[g[c]] != pts[src[c]]
                or gpd.rng[g[c]] != pts[rng[c]]), None)
    rep.add("ends-match", bad is None, witness=bad)

    bad = next(((label(i), label(j)) for i, j in np.argwhere(comp >= 0)
                if gpd.comp[(g[i], g[j])] != g[comp[i, j]]), None)
    rep.add("composition-match", bad is None, witness=bad)

    bad = next((label(c) for c in range(k) if gpd.inv[g[c]] != g[inv[c]]),
               None)
    rep.add("inverse-match", bad is None, witness=bad)

    point = {p: i for i, p in enumerate(pts)}
    bad = next((y for y in gpd.objects
                if g[unit[point[y]]] != gpd.unit[y]), None)
    rep.add("unit-match", bad is None, witness=bad)
    return rep


# ---------------------------------------------------------------------------
# crossed product

class CrossedProductAlgebra:
    """Linear span of range side germs with the convolution product.

    Basis index i is the range side germ class i (class_of and members
    as in germ_classes and _members), labeled in basis by its canonical
    (element, point) pair.  table[i, j] is the class of the product,
    -1 for zero; star_table is the involution and unit_indices the
    classes summing to the unit.  Product and involution are verified
    to be independent of representatives.
    """

    def __init__(self, sgrp):
        self.semigroup = sgrp
        reps, cls = germ_classes(sgrp, side="img")
        self.class_of = cls
        self.basis = tuple(_germ_label(sgrp, r) for r in reps)
        k = len(reps)
        a, x, bounds = self.members = _members(cls, k)
        # the preimage under a of x, for each member (a, x)
        pre = _inverse_action(sgrp.act)[a, x]

        self.table = np.full((k, k), -1)
        for i in range(k):
            first = slice(bounds[i], bounds[i + 1])
            # (a', x')(b, y) is the class of (a' b, x') if a' maps y to x'
            vals = np.where(pre[first, None] == x,
                            cls[sgrp.mul[np.ix_(a[first], a)], x[first, None]],
                            -1)
            low, high = _block_range(vals, bounds)
            j = _first(low != high)
            if j is not None:
                got = set(vals[:, bounds[j]:bounds[j + 1]].ravel().tolist())
                got = sorted(str(None if v < 0 else v) for v in got)
                raise VerificationError(
                    f"crossed product of classes {i} and {j} is not "
                    f"representative independent: {got!r}")
            self.table[i] = low

        stars = cls[sgrp.star[a], pre]
        self.star_table, high = _block_range(stars, bounds)
        i = _first(self.star_table != high)
        if i is not None:
            raise VerificationError(
                f"involution of class {i} is not representative "
                f"independent")

        self.unit_indices = [
            int(cls[_covering(sgrp, x, "; the algebra has no unit")[0], x])
            for x in range(len(sgrp.carrier))]
        if len(set(self.unit_indices)) != len(self.unit_indices):
            raise VerificationError("unit summands collide")

    @property
    def dim(self):
        return len(self.basis)

    def check(self):
        rep = Report("crossed product algebra")
        d, table = self.dim, self.table
        # a last row and column of -1 make the zero product absorbing
        pad = np.full((d + 1, d + 1), -1)
        pad[:d, :d] = table
        bad = _scan(d, lambda i: pad[pad[i, :d], :d] != pad[i][table])
        rep.add("associativity", bad is None, witness=bad)

        star = np.append(self.star_table, -1)
        bad = _first(star[table]
                     != table[np.ix_(self.star_table, self.star_table)].T)
        rep.add("star-antimultiplicative", bad is None, witness=bad)

        # the unit times basis element i, on either side, is i itself:
        # exactly one unit summand gives i and the others give zero
        units = sorted(set(self.unit_indices))
        ids = np.arange(d)
        bad = _first(~(_exactly_once(table[units], ids)
                       & _exactly_once(table[:, units].T, ids)))
        rep.add("unital", bad is None, witness=bad)
        return rep


def _exactly_once(products, ids):
    """Columns i of products holding i once and -1 everywhere else."""
    hit = products == ids
    return (hit.sum(axis=0) == 1) & (hit | (products < 0)).all(axis=0)


def _spread(mats):
    """Largest entrywise distance of the matrices from the first one."""
    return worst((max_abs(m - mats[0]), None) for m in mats[1:])[0]


def crossed_product(sgrp):
    if len(sgrp.elements) > _MAX_ELEMENTS:
        raise ValueError(
            f"semigroup of {len(sgrp.elements)} elements exceeds the "
            f"crossed product guard {_MAX_ELEMENTS}")
    return CrossedProductAlgebra(sgrp)


def canonical_iso_cstar(sgrp):
    """Crossed product and germ groupoid convolution are the same algebra.

    Sends the range side class of (a, x) to the source side germ of a
    at the preimage of x and compares structure constants against
    counting weight convolution on the germ groupoid, star included.
    """
    rep = Report("canonical isomorphism")
    alg = crossed_product(sgrp)
    reps, cls, _, _, comp, inv, unit = _germ_tables(sgrp)
    k = len(reps)
    rep.add("dimensions", alg.dim == k, witness=(alg.dim, k))

    a, x, bounds = alg.members
    image = cls[a, _inverse_action(sgrp.act)[a, x]]
    arrow_of, high = _block_range(image, bounds)
    bad = _first(arrow_of != high)
    rep.add("translation-well-defined", bad is None, witness=bad)
    if bad is not None:
        return rep

    onto = np.array_equal(np.sort(arrow_of), np.arange(k))
    rep.add("translation-bijective", onto)
    if not onto:
        return rep

    got = np.append(arrow_of, -1)[alg.table]
    bad = _first(got != comp[np.ix_(arrow_of, arrow_of)])
    rep.add("products-match", bad is None, witness=bad)

    bad = _first(arrow_of[alg.star_table] != inv[arrow_of])
    rep.add("stars-match", bad is None, witness=bad)

    diff = set(arrow_of[alg.unit_indices].tolist()) ^ set(unit.tolist())
    rep.add("units-match", not diff,
            witness=sorted((_germ_label(sgrp, reps[c]) for c in diff),
                           key=str) or None)
    return rep


# ---------------------------------------------------------------------------
# covariant representations

class CovariantRep:
    """Projections over the carrier plus one partial isometry per element.

    All operators act on one unweighted space of the stated dimension;
    isometries are stored zero extended to the full space.
    """

    def __init__(self, sgrp, dim, projections, isometries):
        self.semigroup = sgrp
        self.dim = int(dim)
        self.projections = {x: np.asarray(projections[x], dtype=complex)
                            for x in sgrp.carrier}
        self.isometries = {a: np.asarray(isometries[a], dtype=complex)
                           for a in sgrp.elements}


def _side_projections(cov, table):
    """Per element, the sum of the point projections where its row of
    the action table is defined."""
    pts = [cov.projections[x] for x in cov.semigroup.carrier]
    zero = np.zeros((cov.dim, cov.dim), dtype=complex)
    return [sum((pts[x] for x in np.flatnonzero(row >= 0)), zero)
            for row in table]


def check_covariant_rep(cov, tol=1e-10):
    """Projection axioms, partial isometry axioms, covariance."""
    sgrp = cov.semigroup
    rep = Report("covariant representation")
    eye = np.eye(cov.dim)
    els, act = sgrp.elements, sgrp.act
    iso = [cov.isometries[a] for a in els]
    pts = [cov.projections[x] for x in sgrp.carrier]
    dom = _side_projections(cov, act)
    img = _side_projections(cov, _inverse_action(act))

    rep.add_worst("projections",
                  ((d, None) for p in pts
                   for d in (max_abs(p @ p - p), max_abs(p - p.conj().T))),
                  tol)

    total = sum(cov.projections.values()) if sgrp.carrier else eye * 0
    d = max_abs(total - eye)
    rep.add("projections-sum", d <= tol, defect=d)

    rep.add_worst("partial-isometries",
                  ((d, els[a]) for a, u in enumerate(iso)
                   for d in (max_abs(u.conj().T @ u - dom[a]),
                             max_abs(u @ u.conj().T - img[a]))), tol)
    rep.add_worst("involution",
                  ((max_abs(iso[sgrp.star[a]] - u.conj().T), els[a])
                   for a, u in enumerate(iso)), tol)
    rep.add_worst("restriction",
                  ((max_abs(iso[a] - iso[b] @ dom[a]), (els[a], els[b]))
                   for a, b in np.argwhere(sgrp.le)), tol)
    rep.add_worst("covariance",
                  ((max_abs(iso[a] @ pts[x] @ iso[a].conj().T
                            - pts[act[a, x]]), (els[a], sgrp.carrier[x]))
                   for a, x in np.argwhere(act >= 0)), tol)
    return rep


def partial_isometry_form(cov, tol=1e-10):
    """Full multiplicativity of the zero extended isometries."""
    sgrp = cov.semigroup
    rep = Report("partial isometry form")
    iso = [cov.isometries[a] for a in sgrp.elements]
    rep.add_worst("multiplicative",
                  ((max_abs(iso[a] @ iso[b] - iso[ab]), sgrp.label((a, b)))
                   for (a, b), ab in np.ndenumerate(sgrp.mul)), tol)
    return rep


def check_crossed_rep(alg, rho, tol=1e-10):
    """rho is a unital star homomorphism out of the crossed product."""
    rep = Report("crossed product representation")
    dim = next(iter(rho.values())).shape[0] if rho else 0
    zero = np.zeros((dim, dim), dtype=complex)
    rep.add_worst("multiplicative",
                  ((max_abs(rho[i] @ rho[j] - (rho[k] if k >= 0 else zero)),
                    (i, j)) for (i, j), k in np.ndenumerate(alg.table)), tol)
    rep.add_worst("star",
                  ((max_abs(rho[alg.star_table[i]] - rho[i].conj().T), i)
                   for i in range(alg.dim)), tol)

    total = sum(rho[i] for i in alg.unit_indices)
    d = max_abs(total - np.eye(dim))
    rep.add("unital", d <= tol, defect=d)
    return rep


def rep_of_crossed_to_covariant(alg, rho, tol=1e-10):
    """Split a crossed product representation into projections and
    partial isometries; returns (covariant rep, report)."""
    sgrp = alg.semigroup
    out = Report("crossed to covariant")
    out.extend(check_crossed_rep(alg, rho, tol))
    dim = next(iter(rho.values())).shape[0] if rho else 0

    mats = {label: [rho[alg.class_of[e, x]] for e in _covering(sgrp, x, "")]
            for x, label in enumerate(sgrp.carrier)}
    out.add_worst("projection-well-defined",
                  ((_spread(m), x) for x, m in mats.items()), tol)
    projections = {x: m[0] for x, m in mats.items()}

    zero = np.zeros((dim, dim), dtype=complex)
    isometries = {a: sum((rho[c] for c in row[row >= 0]), zero)
                  for a, row in zip(sgrp.elements, alg.class_of)}
    cov = CovariantRep(sgrp, dim, projections, isometries)
    out.extend(check_covariant_rep(cov, tol))
    return cov, out


def integrate_covariant(alg, cov, tol=1e-10):
    """Compress a covariant representation to the crossed product basis.

    The class of (a, x) acts as the x projection composed with the
    isometry of a; the result is checked to be independent of the
    representative and to be a star homomorphism.
    """
    out = Report("covariant to crossed")
    sgrp = alg.semigroup
    a, x, bounds = alg.members
    mats = [cov.projections[sgrp.carrier[p]] @ cov.isometries[sgrp.elements[e]]
            for e, p in zip(a, x)]
    classes = [mats[bounds[i]:bounds[i + 1]] for i in range(alg.dim)]
    rho = {i: m[0] for i, m in enumerate(classes)}
    out.add_worst("representative-independent",
                  ((_spread(m), i) for i, m in enumerate(classes)), tol)
    out.extend(check_crossed_rep(alg, rho, tol))
    return rho, out


# ---------------------------------------------------------------------------
# translation to groupoid representations

def _require_counting(weights):
    bad = next((x for x, v in weights.items() if float(v) != 1.0), None)
    if bad is not None:
        raise ValueError(
            f"translation requires counting weights; object {bad!r} "
            f"has weight {weights[bad]!r}")


def groupoid_rep_to_covariant(rep, sgrp):
    """Sum the fiber blocks of a representation over each tag.

    Only for counting weights, where raw and normalized blocks agree
    and the module inner product is unweighted.
    """
    _require_counting(rep.weights)
    gpd = rep.groupoid
    module = rep.module
    fam = blockwise(rep)
    dim = module.dim
    fibers = {x: [module.index[m] for m in module.left_fiber(x)]
              for x in gpd.objects}
    projections = {x: np.diag(np.isin(np.arange(dim), fibers[x]))
                   .astype(complex) for x in gpd.objects}
    isometries = {}
    for a in sgrp.elements:
        u = np.zeros((dim, dim), dtype=complex)
        for g in a.tag:
            rows = fibers[gpd.rng[g]]
            cols = fibers[gpd.src[g]]
            u[np.ix_(rows, cols)] += fam.unitaries[g]
        isometries[a] = u
    return CovariantRep(sgrp, dim, projections, isometries)


def covariant_to_groupoid_rep(gpd, weights, cov, tol=1e-10):
    """Cut one fiber block per arrow out of the covariant isometries.

    Every arrow must lie in some tag; blocks cut from different
    elements through the same arrow must agree, and products through
    composed elements must match block products.  Returns the
    representation and the report.
    """
    _require_counting(weights)
    sgrp = cov.semigroup
    out = Report("covariant to groupoid")
    els = sgrp.elements
    cover = {g: [i for i, a in enumerate(els) if g in a.tag]
             for g in gpd.arrows}
    missing = sorted((g for g in gpd.arrows if not cover[g]), key=str)
    out.add("arrows-covered", not missing, witness=missing or None)
    if missing:
        raise VerificationError(
            f"arrows not covered by any tag: {missing!r}")

    hat = {}
    frames = {}
    for x in gpd.objects:
        p = cov.projections[x]
        size = int(round(float(np.trace(p).real)))
        off = p - np.diag(np.diag(p))
        offmass = max_abs(off)
        if offmass <= tol:
            # indicator projection: keep the standard basis and its order
            keep = [i for i in range(cov.dim) if p[i, i].real > 0.5]
            frames[x] = np.eye(cov.dim, dtype=complex)[:, keep]
        else:
            vals, vecs = np.linalg.eigh(p)
            frames[x] = vecs[:, vals > 0.5]
        hat[x] = frames[x].shape[1]
        if hat[x] != size:
            raise VerificationError(f"projection at {x!r} has fuzzy rank")

    mats = {g: [frames[gpd.rng[g]].conj().T @ cov.isometries[els[a]]
                @ frames[gpd.src[g]] for a in cover[g]] for g in gpd.arrows}
    out.add_worst("blocks-agree",
                  ((_spread(m), g) for g, m in mats.items()), tol)
    blocks = {g: m[0] for g, m in mats.items()}

    defects = []
    for (g, h) in gpd.composable_pairs():
        ab = els[sgrp.mul[cover[g][0], cover[h][0]]]
        gh = gpd.comp[(g, h)]
        if gh not in ab.tag:
            continue
        through = frames[gpd.rng[gh]].conj().T @ cov.isometries[ab] \
            @ frames[gpd.src[gh]]
        defects.append((max_abs(blocks[g] @ blocks[h] - through), (g, h)))
    out.add_worst("trisection", defects, tol)

    coeff = ("w",)
    dims = {(x, "w"): hat[x] for x in gpd.objects}
    module = module_from_dims(gpd.objects, coeff, dims)
    rep = from_cocycle(gpd, weights, module, blocks)
    out.extend(check_cocycle(blockwise(rep), tol), prefix="block-")
    return rep, out


def etale_battery(gpd, weights, sgrp=None, rep=None, tol=1e-10):
    """Full counting weight battery for a groupoid and a semigroup.

    Validates the semigroup (all bisections unless one is given),
    reconstructs the groupoid from germs, sizes the crossed product
    against the arrow count, runs the canonical isomorphism, and when
    a representation is supplied pushes it through the covariant form
    and back.
    """
    _require_counting(weights)
    out = Report("etale battery")
    if sgrp is None:
        sgrp = bisection_semigroup(gpd)
    out.extend(sgrp.validate(), prefix="semigroup-")
    out.extend(is_wide(gpd, sgrp), prefix="wide-")
    out.extend(germ_reconstruction(gpd, sgrp), prefix="germ-")
    alg = crossed_product(sgrp)
    out.add("crossed-dimension", alg.dim == len(gpd.arrows),
            witness=(alg.dim, len(gpd.arrows)))
    out.extend(alg.check(), prefix="algebra-")
    out.extend(canonical_iso_cstar(sgrp), prefix="iso-")

    if rep is not None:
        cov = groupoid_rep_to_covariant(rep, sgrp)
        out.extend(check_covariant_rep(cov, tol), prefix="covariant-")
        out.extend(partial_isometry_form(cov, tol), prefix="covariant-")
        rho, rho_rep = integrate_covariant(alg, cov, tol)
        out.extend(rho_rep, prefix="integrated-")
        cov2, cov2_rep = rep_of_crossed_to_covariant(alg, rho, tol)
        out.extend(cov2_rep, prefix="split-")
        out.add_worst("split-roundtrip",
                      ((max_abs(cov2.isometries[a] - cov.isometries[a]), None)
                       for a in sgrp.elements), tol)
        back, back_rep = covariant_to_groupoid_rep(
            gpd, rep.weights, cov, tol)
        out.extend(back_rep, prefix="back-")
        d = max_abs(back.umap.matrix - rep.umap.matrix)
        out.add("translation-roundtrip", d <= tol, defect=d)
    return out


# ---------------------------------------------------------------------------
# transformation groupoids

def group_action_semigroup(order, action):
    """The acting cyclic group as a tagged inverse semigroup.

    Element k is the global bisection of the transformation groupoid
    made of all arrows with exponent k.
    """
    gpd = transformation_groupoid(order, action)
    els = []
    for k in range(int(order)):
        tag = frozenset((k, x) for x in gpd.objects)
        els.append(bisection_from_arrows(gpd, tag))
    return gpd, semigroup_from_bisections(gpd, els)


def transformation_theorem(order, action, rep=None, tol=1e-10):
    """Group crossed product versus transformation groupoid algebra.

    Builds the transformation groupoid, the crossed product of the
    acting group, and checks the canonical translation is a unital
    star isomorphism onto counting weight convolution.  Given a
    representation, it is also translated to a covariant pair and
    back again.
    """
    gpd, sgrp = group_action_semigroup(order, action)
    out = Report("transformation theorem")
    out.extend(sgrp.validate(), prefix="semigroup-")
    alg = crossed_product(sgrp)
    out.add("dimension", alg.dim == int(order) * len(gpd.objects),
            witness=(alg.dim, int(order) * len(gpd.objects)))
    out.extend(germ_reconstruction(gpd, sgrp), prefix="germ-")
    out.extend(canonical_iso_cstar(sgrp), prefix="iso-")

    if rep is not None:
        cov = groupoid_rep_to_covariant(rep, sgrp)
        out.extend(check_covariant_rep(cov, tol), prefix="covariant-")
        out.extend(partial_isometry_form(cov, tol), prefix="covariant-")

        defects = []
        for k in range(int(order)):
            a = next(el for el in sgrp.elements
                     if (k, gpd.objects[0]) in el.tag)
            w = cov.isometries[a]
            for x in gpd.objects:
                g = (k, x)
                lit = integrate_rep(rep, delta_function(gpd, g)).matrix
                want = cov.projections[gpd.rng[g]] @ w
                defects.append((max_abs(lit - want), g))
        out.add_worst("integrated-agreement", defects, tol)

        back, back_rep = covariant_to_groupoid_rep(
            gpd, rep.weights, cov, tol)
        out.extend(back_rep, prefix="back-")
        d = max_abs(back.umap.matrix - rep.umap.matrix)
        out.add("translation-roundtrip", d <= tol, defect=d)
    return out
