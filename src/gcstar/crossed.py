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

The closure holds a bisection as an int vector over the objects, the
arrow leaving each object (-1 where none does), composes vectors by
gathers from gpd.codes and finds products among the known vectors by a
binary search of their sorted keys.  The covariant checks stack the
operators along the element axis and multiply one row of pairs at a
time; the translation back to blocks reads the element x arrow tag
matrix and cuts every block it compares in one gather per block shape.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .report import (Report, VerificationError, max_abs, max_abs_each,
                     worst_at)
from .fingroupoid import transformation_groupoid
from .reps import blockwise, check_cocycle, from_cocycle
from .hilbmod import module_from_dims
from .intdis import conv_rep_of

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


def _freeze(*arrays):
    """Make the arrays read-only; returns them as a tuple."""
    for v in arrays:
        v.flags.writeable = False
    return arrays


class InverseSemigroup:
    """Finite inverse semigroup with an action on a carrier set.

    Elements and carrier points are numbered by their places in the
    two tuples.  mul[a, b] is the product ab, star[a] the inverse and
    act[a, x] the image of x under a, -1 off its domain.  The
    constructor derives the order once, le[a, b] for a <= b (a = b a* a),
    and the idempotent flags idem; theta is the label view of act.
    Validation is exhaustive.

    The tables are read-only copies, so what is derived from them is
    derived once and cannot go stale: the source side germ tables
    (germs, see _germ_tables) and the element x arrow tag matrices
    (tag_matrix).  The crossed product is not kept here: it holds its
    semigroup, and the reference cycle would outlive the semigroup
    until a full garbage collection.
    """

    def __init__(self, elements, mul, star, act, carrier):
        self.elements = tuple(elements)
        self.carrier = tuple(carrier)
        n, m = len(self.elements), len(self.carrier)
        self.mul = np.array(mul, dtype=np.intp).reshape(n, n)
        self.star = np.array(star, dtype=np.intp).reshape(n)
        self.act = np.array(act, dtype=np.intp).reshape(n, m)
        ids = np.arange(n)
        self.idem = (self.mul[ids, ids] == ids) & (self.star == ids)
        self.le = np.zeros((n, n), dtype=bool)
        # an entry naming no element fails validate's closure instead
        if not (_outside(self.mul, n).any() or _outside(self.star, n).any()):
            self.le = self.mul[:, self.mul[self.star, ids]].T == ids[:, None]
        _freeze(self.mul, self.star, self.act, self.idem, self.le)
        self.theta = {a: {self.carrier[x]: self.carrier[y]
                          for x, y in enumerate(row) if y >= 0}
                      for a, row in zip(self.elements, self.act.tolist())}
        self._tags = {}

    @cached_property
    def germs(self):
        """The source side germ groupoid, _germ_tables(self)."""
        return _germ_tables(self)

    def tag_matrix(self, arrows):
        """Boolean (element, arrow) matrix: [a, k] iff arrows[k] lies in
        the tag of element a; built once per arrow tuple."""
        arrows = tuple(arrows)
        if arrows not in self._tags:
            number = {g: k for k, g in enumerate(arrows)}
            tags = np.zeros((len(self.elements), len(arrows)), dtype=bool)
            for a, el in enumerate(self.elements):
                tags[a, [number[g] for g in el.tag if g in number]] = True
            self._tags[arrows] = _freeze(tags)[0]
        return self._tags[arrows]

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

    Each element found is composed with itself and every earlier
    element, in both orders, as one batch of vectors, so every ordered
    pair is composed once and the table is filled as the set grows.
    The products of a batch join the set in the order (i, 0), (0, i),
    (i, 1), (1, i), ..., (i, i).  A batch is searched in the sorted keys
    of the known vectors, and only the keys it adds are inserted.
    Elements are listed in _sort_key order, and act on the objects
    through their own partial bijections.
    """
    codes, objs, arrows = gpd.codes, gpd.objects, gpd.arrows
    m = len(objs)
    # a trailing -1 entry on each table and vector, so that the index -1
    # (no arrow, no object) reads -1 back
    rng, inv = np.append(codes.rng, -1), np.append(codes.inv, -1)
    comp = np.pad(codes.comp, (0, 1), constant_values=-1)

    def after(a, b):
        """Vectors a after vectors b, one side a single vector."""
        return comp[a[..., rng[b]], b]

    def inverse(vecs):
        return inv[np.take_along_axis(vecs, _inverse_action(rng[vecs]), 1)]

    gens = np.full((len(generators), m + 1), -1, dtype=np.intp)
    for k, a in enumerate(generators):
        tag = [arrows.index(g) for g in a.tag]
        gens[k, codes.src[tag]] = tag
    vecs = np.empty((0, m + 1), dtype=np.intp)

    # a vector's key: its entries + 1 as the digits of one int64 in radix
    # |A| + 1 when that fits, else as the bytes of a fixed-width record
    width = len(arrows) + 1
    if width ** m <= 2 ** 63:
        radix = width ** np.arange(m, dtype=np.int64)

        def keys(batch):
            return (batch[:, :m] + 1) @ radix
    else:
        digit = np.min_scalar_type(len(arrows))

        def keys(batch):
            return np.ascontiguousarray(batch[:, :m] + 1, dtype=digit).view(
                np.dtype((np.void, m * digit.itemsize))).ravel()

    # the keys of vecs in sorted order, and the number of each
    known, numbers = keys(vecs), np.empty(0, dtype=np.intp)

    def place(batch, limit):
        """Numbers of the batch; new vectors join in the order found."""
        nonlocal vecs, known, numbers
        key = keys(batch)
        at = np.searchsorted(known, key)
        new = at == len(known)
        new[~new] = known[at[~new]] != key[~new]
        got = np.empty(len(batch), dtype=np.intp)
        got[~new] = numbers[at[~new]]
        if not new.any():
            return got
        found, first, back = np.unique(key[new], return_index=True,
                                       return_inverse=True)
        count = len(vecs)
        if count + len(found) > limit:
            raise ValueError(
                f"semigroup closure exceeded {_MAX_ELEMENTS} elements")
        rank = np.empty(len(found), dtype=np.intp)
        rank[np.argsort(first)] = count + np.arange(len(found))
        got[new] = rank[back.ravel()]
        vecs = np.concatenate([vecs, batch[new][np.sort(first)]])
        spot = np.searchsorted(known, found)
        known = np.insert(known, spot, found)
        numbers = np.insert(numbers, spot, rank)
        return got

    place(np.stack([gens, inverse(gens)], axis=1).reshape(-1, m + 1), np.inf)
    rows = []
    # vecs grows while it is scanned
    while len(rows) < len(vecs):
        i = len(rows)
        batch = np.empty((2 * i + 1, m + 1), dtype=np.intp)
        batch[0::2] = after(vecs[i], vecs[:i + 1])
        batch[1::2] = after(vecs[:i], vecs[i])
        rows.append(place(batch, _MAX_ELEMENTS))

    n = len(rows)
    prod = np.empty((n, n), dtype=np.intp)
    for i, got in enumerate(rows):
        prod[i, :i + 1], prod[:i, i] = got[0::2], got[1::2]
    labels = [bisection_from_arrows(gpd, [arrows[g] for g in v if g >= 0])
              for v in vecs.tolist()]
    order = np.array(sorted(range(n), key=lambda k: _sort_key(labels[k])),
                     dtype=np.intp)
    rank = np.argsort(order)
    return InverseSemigroup(
        [labels[k] for k in order], rank[prod[np.ix_(order, order)]],
        rank[place(inverse(vecs), n)[order]], rng[vecs[order, :m]], objs)


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

    tags = sgrp.tag_matrix(gpd.arrows).astype(float)
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
    return _freeze(reps, cls, src, rng, comp, inv, unit)


def germ_reconstruction(gpd, sgrp):
    """The germ groupoid of a wide tagged semigroup matches the groupoid.

    Maps the germ of a bisection at a point to its unique arrow there
    and checks the map is a bijection respecting all structure.
    """
    rep = Report("germ reconstruction")
    reps, cls, src, rng, comp, inv, unit = sgrp.germs
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
    to be independent of representatives.  The tables are read-only.
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
        _freeze(cls, *self.members, self.table, self.star_table)

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
    mats = np.asarray(mats)
    return worst_at(abs(mats[1:] - mats[0]))[0]


def crossed_product(sgrp):
    if len(sgrp.elements) > _MAX_ELEMENTS:
        raise ValueError(
            f"semigroup of {len(sgrp.elements)} elements exceeds the "
            f"crossed product guard {_MAX_ELEMENTS}")
    return CrossedProductAlgebra(sgrp)


def canonical_iso_cstar(sgrp, alg=None):
    """Crossed product and germ groupoid convolution are the same algebra.

    Sends the range side class of (a, x) to the source side germ of a
    at the preimage of x and compares structure constants against
    counting weight convolution on the germ groupoid, star included.
    alg is crossed_product(sgrp) when the caller has built it already.
    """
    rep = Report("canonical isomorphism")
    alg = crossed_product(sgrp) if alg is None else alg
    reps, cls, _, _, comp, inv, unit = sgrp.germs
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
    isometries are stored zero extended to the full space.  points and
    iso stack the projections in carrier order and the isometries in
    element order; the label dicts are views into them.
    """

    def __init__(self, sgrp, dim, projections, isometries):
        self.semigroup = sgrp
        self.dim = int(dim)
        self.points, self.iso = (
            np.array([ops[x] for x in labels], dtype=complex)
            .reshape(len(labels), self.dim, self.dim) for ops, labels in
            ((projections, sgrp.carrier), (isometries, sgrp.elements)))
        self.projections = dict(zip(sgrp.carrier, self.points))
        self.isometries = dict(zip(sgrp.elements, self.iso))


def _rows(n, row):
    """The defect arrays row(a), a = 0..n-1, joined in row-major order."""
    return np.concatenate([np.empty(0)] + [row(a) for a in range(n)])


def check_covariant_rep(cov, tol=1e-10):
    """Projection axioms, partial isometry axioms, covariance."""
    sgrp = cov.semigroup
    rep = Report("covariant representation")
    els, act, le = sgrp.elements, sgrp.act, sgrp.le
    iso, pts = cov.iso, cov.points
    adj, pre = iso.conj().transpose(0, 2, 1), _inverse_action(act)
    # per element, the point projections summed over its domain and image
    dom, img = np.zeros((2,) + iso.shape, dtype=complex)
    for x, p in enumerate(pts):
        dom[act[:, x] >= 0] += p
        img[pre[:, x] >= 0] += p

    rep.add_worst_at("projections", np.stack(
        [max_abs_each(pts @ pts - pts),
         max_abs_each(pts - pts.conj().transpose(0, 2, 1))], axis=1), tol)

    rep.add_worst_at("projections-sum", abs(pts.sum(axis=0) - np.eye(cov.dim)),
                     tol)

    rep.add_worst_at("partial-isometries",
                     np.stack([max_abs_each(adj @ iso - dom),
                               max_abs_each(iso @ adj - img)], axis=1),
                     tol, lambda k: els[k // 2])
    rep.add_worst_at("involution", max_abs_each(iso[sgrp.star] - adj), tol,
                     lambda k: els[k])
    pairs = np.argwhere(le)
    rep.add_worst_at("restriction", _rows(len(els), lambda a: max_abs_each(
                         iso[a] - iso[le[a]] @ dom[a])),
                     tol, lambda k: sgrp.label(tuple(pairs[k])))

    def covariance(a):
        on = act[a] >= 0
        return max_abs_each(iso[a] @ pts[on] @ adj[a] - pts[act[a, on]])

    b, x = np.nonzero(act >= 0)
    rep.add_worst_at("covariance", _rows(len(els), covariance), tol,
                     lambda k: (els[b[k]], sgrp.carrier[x[k]]))
    return rep


def partial_isometry_form(cov, tol=1e-10):
    """Full multiplicativity of the zero extended isometries."""
    sgrp = cov.semigroup
    rep = Report("partial isometry form")
    n, iso = len(sgrp.elements), cov.iso
    rep.add_worst_at("multiplicative", _rows(n, lambda a: max_abs_each(
                         iso[a] @ iso - iso[sgrp.mul[a]])),
                     tol, lambda k: sgrp.label(divmod(k, n)))
    return rep


def check_crossed_rep(alg, rho, tol=1e-10):
    """rho is a unital star homomorphism out of the crossed product."""
    rep = Report("crossed product representation")
    dim = next(iter(rho.values())).shape[0] if rho else 0
    n = alg.dim
    # the operators in basis order, then zero for the product -1
    ops = np.array([rho[i] for i in range(n)] + [np.zeros((dim, dim))])
    rep.add_worst_at("multiplicative", _rows(n, lambda i: max_abs_each(
                         ops[i] @ ops[:n] - ops[alg.table[i]])),
                     tol, lambda k: divmod(k, n))
    adj = ops[:n].conj().transpose(0, 2, 1)
    rep.add_worst_at("star", max_abs_each(ops[alg.star_table] - adj), tol,
                     lambda k: k)
    rep.add_worst_at("unital", abs(ops[alg.unit_indices].sum(axis=0)
                                   - np.eye(dim)), tol)
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
    out.add_worst_at("projection-well-defined",
                     [_spread(m) for m in mats.values()], tol,
                     lambda k: sgrp.carrier[k])
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
    mats = cov.points[x] @ cov.iso[a]
    classes = [mats[bounds[i]:bounds[i + 1]] for i in range(alg.dim)]
    rho = {i: m[0] for i, m in enumerate(classes)}
    out.add_worst_at("representative-independent",
                     [_spread(m) for m in classes], tol, lambda k: k)
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
    fibers = {x: module.left_positions(x) for x in gpd.objects}
    projections = {x: np.diag(np.isin(np.arange(dim), fibers[x]))
                   .astype(complex) for x in gpd.objects}
    tags = sgrp.tag_matrix(gpd.arrows)
    iso = np.zeros((len(sgrp.elements), dim, dim), dtype=complex)
    for k, g in enumerate(gpd.arrows):
        rows, cols = fibers[gpd.rng[g]], fibers[gpd.src[g]]
        iso[np.ix_(tags[:, k], rows, cols)] += fam.unitaries[g]
    return CovariantRep(sgrp, dim, projections, dict(zip(sgrp.elements, iso)))


def _per_shape(shapes, defects_of):
    """Defects of rows grouped by shape: defects_of(p, *shape) for the
    boolean row mask p of each distinct row of shapes, in row order."""
    out = np.zeros(len(shapes))
    if not len(shapes):
        return out
    key = np.ravel_multi_index(shapes.T, shapes.max(axis=0) + 1)
    for k in set(key.tolist()):
        p = key == k
        out[p] = defects_of(p, *shapes[np.argmax(p)].tolist())
    return out


def covariant_to_groupoid_rep(gpd, weights, cov, tol=1e-10):
    """Cut one fiber block per arrow out of the covariant isometries.

    Every arrow must lie in some tag; blocks cut from different
    elements through the same arrow must agree, and products through
    composed elements must match block products.  Returns the
    representation and the report.

    The isometries are compressed to the frames of the projections in
    one stacked product, and each check cuts its blocks from it in one
    gather per block shape, reading the tags from sgrp.tag_matrix.
    """
    _require_counting(weights)
    sgrp = cov.semigroup
    out = Report("covariant to groupoid")
    arrows, codes = gpd.arrows, gpd.codes
    tags = sgrp.tag_matrix(arrows)
    missing = sorted((arrows[k] for k in np.flatnonzero(~tags.any(axis=0))),
                     key=str)
    out.add("arrows-covered", not missing, witness=missing or None)
    if missing:
        raise VerificationError(
            f"arrows not covered by any tag: {missing!r}")

    frames = []
    for x in gpd.objects:
        p = cov.projections[x]
        size = int(round(float(np.trace(p).real)))
        off = p - np.diag(np.diag(p))
        offmass = max_abs(off)
        if offmass <= tol:
            # indicator projection: keep the standard basis and its order
            keep = [i for i in range(cov.dim) if p[i, i].real > 0.5]
            frames.append(np.eye(cov.dim, dtype=complex)[:, keep])
        else:
            vals, vecs = np.linalg.eigh(p)
            frames.append(vecs[:, vals > 0.5])
        if frames[-1].shape[1] != size:
            raise VerificationError(f"projection at {x!r} has fuzzy rank")
    hat = np.array([f.shape[1] for f in frames], dtype=np.intp)
    start = np.concatenate([[0], np.cumsum(hat)])
    frame = np.hstack([np.empty((cov.dim, 0))] + frames)
    # element a in the frames: the block of arrow g is rows start[rng g]
    # and columns start[src g], hat[rng g] x hat[src g] of them
    framed = frame.conj().T @ cov.iso @ frame

    def cut(a, x, y, hx, hy):
        """Blocks of the elements a between the fibres x and y."""
        rows = start[x][:, None] + np.arange(hx)
        cols = start[y][:, None] + np.arange(hy)
        return framed[a[:, None, None], rows[:, :, None], cols[:, None, :]]

    # each arrow's block is cut from its first covering element
    first = tags.argmax(axis=0)
    g, a = np.nonzero(tags.T)
    g, a = g[a != first[g]], a[a != first[g]]
    x, y = codes.rng[g], codes.src[g]
    out.add_worst_at("blocks-agree", _per_shape(
        np.stack([hat[x], hat[y]], axis=1), lambda p, hx, hy: max_abs_each(
            cut(a[p], x[p], y[p], hx, hy)
            - cut(first[g[p]], x[p], y[p], hx, hy))),
        tol, lambda k: arrows[g[k]])
    blocks = {g: framed[first[k], start[x]:start[x + 1], start[y]:start[y + 1]]
              for k, (g, x, y) in enumerate(zip(arrows, codes.rng.tolist(),
                                                codes.src.tolist()))}

    g, h = codes.pairs
    ab, gh = sgrp.mul[first[g], first[h]], codes.comp[g, h]
    on = tags[ab, gh]
    g, h, ab = g[on], h[on], ab[on]
    x, y, z = codes.rng[g], codes.src[g], codes.src[h]
    out.add_worst_at("trisection", _per_shape(
        np.stack([hat[x], hat[y], hat[z]], axis=1),
        lambda p, hx, hy, hz: max_abs_each(
            cut(first[g[p]], x[p], y[p], hx, hy)
            @ cut(first[h[p]], y[p], z[p], hy, hz)
            - cut(ab[p], x[p], z[p], hx, hz))),
        tol, lambda k: (arrows[g[k]], arrows[h[k]]))

    coeff = ("w",)
    dims = {(x, "w"): int(d) for x, d in zip(gpd.objects, hat)}
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
    out.extend(canonical_iso_cstar(sgrp, alg), prefix="iso-")

    if rep is not None:
        cov = groupoid_rep_to_covariant(rep, sgrp)
        out.extend(check_covariant_rep(cov, tol), prefix="covariant-")
        out.extend(partial_isometry_form(cov, tol), prefix="covariant-")
        rho, rho_rep = integrate_covariant(alg, cov, tol)
        out.extend(rho_rep, prefix="integrated-")
        cov2, cov2_rep = rep_of_crossed_to_covariant(alg, rho, tol)
        out.extend(cov2_rep, prefix="split-")
        out.add_worst_at("split-roundtrip", max_abs_each(cov2.iso - cov.iso),
                         tol)
        back, back_rep = covariant_to_groupoid_rep(
            gpd, rep.weights, cov, tol)
        out.extend(back_rep, prefix="back-")
        out.add_worst_at("translation-roundtrip",
                         abs(back.umap.matrix - rep.umap.matrix), tol)
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
    out.extend(canonical_iso_cstar(sgrp, alg), prefix="iso-")

    if rep is not None:
        cov = groupoid_rep_to_covariant(rep, sgrp)
        out.extend(check_covariant_rep(cov, tol), prefix="covariant-")
        out.extend(partial_isometry_form(cov, tol), prefix="covariant-")

        lits = dict(zip(rep.groupoid.arrows, conv_rep_of(rep).ops))
        arrows, gaps = [], []
        for k in range(int(order)):
            a = next(el for el in sgrp.elements
                     if (k, gpd.objects[0]) in el.tag)
            w = cov.isometries[a]
            for x in gpd.objects:
                g = (k, x)
                arrows.append(g)
                gaps.append(lits[g] - cov.projections[gpd.rng[g]] @ w)
        out.add_worst_at("integrated-agreement", max_abs_each(np.array(gaps)),
                         tol, lambda i: arrows[i])

        back, back_rep = covariant_to_groupoid_rep(
            gpd, rep.weights, cov, tol)
        out.extend(back_rep, prefix="back-")
        out.add_worst_at("translation-roundtrip",
                         abs(back.umap.matrix - rep.umap.matrix), tol)
    return out
