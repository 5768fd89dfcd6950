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
carrier points are the objects of the groupoid of the bisections, and
the tags, the covariant and the crossed product representations are
arrays over those numbers; element and point labels appear only in
witnesses, error messages and basis.

The closure holds a bisection as an int vector over the objects, the
arrow leaving each object (-1 where none does), composes vectors in
rounds by gathers from gpd.codes and finds products among the known
vectors by a binary search of their sorted keys; one bound on the bytes
of the |S| x |S| tables (_guard) limits it and the enumeration of all
bisections.  The semigroup keeps those vectors, and quadratic
certificates stand in for the scans where their lemmas hold: the
vectors embed S in the bisections of the groupoid (associativity,
action-multiplicative; see InverseSemigroup), a least element below
every element through each arrow realizes all meets (meets-realized;
see _meets_realized) and names the germ class of each arrow
(germ_classes), and the blocks of a groupoid representation multiply
as its isometries do (partial_isometry_form).  Where a premise fails,
the scan decides.  The certificate products, the germ and crossed
product tables (reduced by class with reduceat) and the restriction
and covariance checks (stacked over the pairs of the order and of the
action) run in chunks of 2^16 or, for the operator stacks, 2^14
entries; the translation back to blocks reads the element x arrow tags
and cuts every block it compares in one gather per block shape.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .report import (Report, VerificationError, max_abs, max_abs_each,
                     worst_at)
from .fingroupoid import _first_nonassociative, transformation_groupoid
from .reps import blockwise, check_cocycle, from_cocycle
from .hilbmod import module_from_dims
from .intdis import conv_rep_of

# the bound on the |S| x |S| tables of a semigroup: mul, the closure's
# product numbers (8 bytes a pair each) and the order le (1 byte)
_TABLE_BYTES, _PAIR_BYTES = 2 ** 28, 17


def _guard(count, what):
    """Refuse count elements whose |S| x |S| tables pass _TABLE_BYTES."""
    need = count * count * _PAIR_BYTES
    if need > _TABLE_BYTES:
        raise ValueError(
            f"{what} has at least {count:,} elements, whose |S| x |S| tables "
            f"need at least {need / 1e6:,.1f} MB, over the bound of "
            f"{_TABLE_BYTES / 1e6:,.1f} MB")


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
    """Every bisection, the empty one included; held to the memory bound
    of _guard as they are found."""
    arrows = sorted(gpd.arrows, key=str)
    found, what = [], f"the bisection semigroup of {len(arrows)} arrows"

    def grow(i, chosen, used_s, used_r):
        if i == len(arrows):
            found.append(bisection_from_arrows(gpd, frozenset(chosen)))
            _guard(len(found), what)
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
    """Finite inverse semigroup acting on the objects of a groupoid.

    Elements are numbered by their places in the element tuple, and
    carrier points by theirs in carrier, the objects of the groupoid of
    the bisections.  mul[a, b] is the product ab, star[a] the inverse
    and act[a, x] the image of x under a, -1 off its domain.  The
    constructor derives the order once, le[a, b] for a <= b (a = b a* a),
    and the idempotent flags idem.

    Validation is exhaustive apart from two scans cubic in |S|, which a
    certificate may stand in for where a lemma makes it imply the
    verdict; where the certificate fails, the scan runs and decides, so
    verdicts and witnesses are those of the scans.  Every semigroup
    carries bisections = (groupoid, vectors), vectors[a] the arrow
    leaving each object under element a, -1 where none does, as
    semigroup_from_bisections builds them; tables that do not match
    their vectors fail the certificate and keep the scans.

    Lemma (Wagner-Preston; Lawson, Inverse Semigroups, 1998).  Suppose
    the vectors are pairwise distinct; each entry vectors[a, x] is -1 or
    an arrow with source x; vectors[mul[a, b]] is vectors[a]
    after vectors[b] for every pair, the arrow at x being g h for h the
    arrow of b at x and g that of a at rng(h), -1 where either is
    missing; act is rng of the vectors; and the groupoid's composition is
    defined exactly on composable pairs, keeps the outer ends and is
    associative.  Then composing vectors is associative, a -> vectors[a]
    embeds S in it, so associativity holds, and act[ab] is act[a] after
    act[b], so action-multiplicative holds.  The certificate checks the
    products in row chunks of about 2^16 entries, |S|^2 |objects| in all,
    and the groupoid's composition on its composable triples.

    The tables are read-only copies, so what is derived from them is
    derived once and cannot go stale: the verdicts of two certificates
    (embedded and germ_lemma), the source side germ tables (germs, see
    _germ_tables) and the element x arrow matrix tags, read off the
    vectors.  The crossed product is not kept here: it holds its
    semigroup, and the reference cycle would outlive the semigroup until
    a full garbage collection.
    """

    def __init__(self, elements, mul, star, act, bisections):
        gpd, vectors = bisections
        self.elements, self.carrier = tuple(elements), gpd.objects
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
        self.bisections = gpd, np.array(vectors, dtype=np.intp).reshape(n, m)
        _freeze(self.mul, self.star, self.act, self.idem, self.le,
                self.bisections[1])

    @cached_property
    def embedded(self):
        """Whether the vectors certify the lemma above, _embedded(self)."""
        return _embedded(self)

    @cached_property
    def germ_lemma(self):
        """Whether the premises of the lemma of germ_classes hold."""
        return _germ_lemma(self)

    @cached_property
    def germs(self):
        """The source side germ groupoid, _germ_tables(self)."""
        return _germ_tables(self)

    @cached_property
    def tags(self):
        """Boolean (element, arrow) matrix: [a, g] iff the vector of a
        holds arrow g; ValueError if an entry is not -1 or an arrow."""
        gpd, vecs = self.bisections
        if ((vecs < -1) | (vecs >= len(gpd.arrows))).any():
            raise ValueError("a bisection vector names no arrow")
        tags = np.zeros((len(vecs), len(gpd.arrows) + 1), dtype=bool)
        tags[np.arange(len(vecs))[:, None], vecs] = True
        return _freeze(tags[:, :-1])[0]

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

        embedded = self.embedded
        checks = (
            ("associativity", None if embedded else
             _scan(n, lambda a: mul[mul[a]] != mul[a][mul])),
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
            ("action-multiplicative", None if embedded else
             _scan(n, lambda a: (act[mul[a]] != (
                 np.where(act >= 0, act[a][act], -1))).any(axis=1))),
            ("action-idempotent-identity", _first(idem & moved.any(axis=1))))
        for name, bad in checks:
            rep.add(name, bad is None, witness=self.label(bad))
        return rep


def _embedded(sgrp, size=2 ** 16):
    """Whether the bisection vectors certify associativity and
    action-multiplicative, by the lemma of InverseSemigroup."""
    gpd, vecs = sgrp.bisections
    t = gpd.codes
    n, m = vecs.shape
    g, h = t.pairs
    gh = t.comp[g, h]
    # a trailing -1 entry on each table, so that the index -1 reads -1
    rng = np.append(t.rng, -1)
    comp = np.pad(t.comp, (0, 1), constant_values=-1)
    ordered = vecs[np.lexsort(vecs.T)] if m else vecs
    distinct = not (ordered[1:] == ordered[:-1]).all(axis=1).any()
    if not (_filed(sgrp) and distinct
            and np.array_equal(t.comp >= 0, t.src[:, None] == t.rng)
            and np.array_equal(t.src[gh], t.src[h])
            and np.array_equal(t.rng[gh], t.rng[g])
            and _first_nonassociative(t.comp) is None):
        return False
    left = np.pad(vecs, ((0, 0), (0, 1)), constant_values=-1)
    step = max(1, size // max(n * m, 1))
    for a in range(0, n, step):
        # row a: vectors[a] after vectors[b] for every b
        after = comp[left[a:a + step][:, rng[vecs]], vecs]
        if not np.array_equal(vecs[sgrp.mul[a:a + step]], after):
            return False
    return True


def _filed(sgrp):
    """Whether every vector entry is -1 or an arrow leaving its object,
    and act is rng of the vectors."""
    gpd, vecs = sgrp.bisections
    t = gpd.codes
    return bool(((vecs >= -1) & (vecs < len(t.src))).all()
                and ((vecs < 0) | (t.src[vecs] == np.arange(vecs.shape[1])))
                .all() and np.array_equal(sgrp.act,
                                          np.append(t.rng, -1)[vecs]))


def semigroup_from_bisections(gpd, generators):
    """Close tagged bisections under composition and inversion.

    Elements are listed in _sort_key order, and act on the objects
    through their own partial bijections; see _close.
    """
    number = {g: k for k, g in enumerate(gpd.arrows)}
    gens = np.full((len(generators), len(gpd.objects)), -1, dtype=np.intp)
    for k, a in enumerate(generators):
        tag = [number[g] for g in a.tag]
        gens[k, gpd.codes.src[tag]] = tag
    return _close(gpd, gens)


def _close(gpd, gens, size=2 ** 16):
    """The semigroup generated by the bisection vectors gens and their
    inverses, in rounds.

    Each round composes the elements that the last round found with
    every element known when it starts, in both orders, as stacked
    gathers of about size vectors, so every ordered pair is composed
    once and the number of rounds is the depth of the closure.  Each
    product is searched in the sorted keys of the known vectors, and
    only the keys it adds are inserted.  The elements that products add
    are held to the memory bound of _guard; the generators are not.
    """
    codes, arrows, m = gpd.codes, gpd.arrows, len(gpd.objects)
    # a trailing -1 entry on each table and vector, so that the index -1
    # (no arrow, no object) reads -1 back
    rng, inv = np.append(codes.rng, -1), np.append(codes.inv, -1)
    comp = np.pad(codes.comp, (0, 1), constant_values=-1)

    def inverse(vecs):
        return inv[np.take_along_axis(vecs, _inverse_action(rng[vecs]), 1)]

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

    def place(batch, guard=True):
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
        if guard:
            _guard(count + len(found), "the semigroup closure")
        rank = np.empty(len(found), dtype=np.intp)
        rank[np.argsort(first)] = count + np.arange(len(found))
        got[new] = rank[back.ravel()]
        vecs = np.concatenate([vecs, batch[new][np.sort(first)]])
        spot = np.searchsorted(known, found)
        known = np.insert(known, spot, found)
        numbers = np.insert(numbers, spot, rank)
        return got

    def products(left, right):
        """Numbers of left[i] after right[j], a len(left) x len(right)
        table."""
        out = np.empty((len(left), len(right)), dtype=np.intp)
        if not out.size:
            return out
        step = max(1, size // max(len(right), 1))
        for r in range(0, len(left), step):
            batch = comp[left[r:r + step][:, rng[right]], right]
            out[r:r + step] = place(batch.reshape(-1, m + 1)).reshape(
                -1, len(right))
        return out

    gens = np.pad(gens, ((0, 0), (0, 1)), constant_values=-1)
    place(np.stack([gens, inverse(gens)], axis=1).reshape(-1, m + 1), False)
    rounds, start = [], 0
    while start < len(vecs):
        stop = len(vecs)
        rounds.append((start, stop, products(vecs[start:stop], vecs[:stop]),
                       products(vecs[:start], vecs[start:stop])))
        start = stop

    n = len(vecs)
    labels = [bisection_from_arrows(gpd, [arrows[g] for g in v if g >= 0])
              for v in vecs.tolist()]
    order = np.array(sorted(range(n), key=lambda k: _sort_key(labels[k])),
                     dtype=np.intp)
    rank = np.argsort(order)
    mul = np.empty((n, n), dtype=np.intp)
    while rounds:
        start, stop, new, old = rounds.pop()
        mul[rank[start:stop, None], rank[:stop]] = rank[new]
        mul[rank[:start, None], rank[start:stop]] = rank[old]
    return InverseSemigroup(
        [labels[k] for k in order], mul, rank[place(inverse(vecs))[order]],
        rng[vecs[order, :m]], (gpd, vecs[order, :m]))


def bisection_semigroup(gpd):
    """The inverse semigroup of every bisection of the groupoid."""
    return semigroup_from_bisections(gpd, all_bisections(gpd))


def _meets_realized(le, tags):
    """Whether the order and the tags certify meets-realized.

    Lemma (after Exel 2008, on wide semigroups of bisections).  Suppose
    v <= a implies tag(v) within tag(a), and for every arrow g the first
    element of least tag size whose tag holds g lies below every element
    whose tag holds g.  Then for every pair (a, b), the union of the
    tags below both a and b is the meet of their tags: it lies in the
    meet by the first part, and each arrow of the meet lies in the tag
    of its least element, which lies below a and b.  The first part is
    one |S| x |S| product, tags against their complements.
    """
    if not len(tags):
        return True
    t = tags.astype(np.float32)
    return not (le & (t @ (1 - t).T > 0)).any() and _least_below(le, tags)


def _least_below(le, tags):
    """Whether the first element of least tag size through each arrow
    lies below every element through it."""
    size = np.where(tags, tags.sum(axis=1)[:, None], tags.shape[1] + 1)
    least = size.argmin(axis=0)
    return not (tags & ~le[least].T).any()


def _germ_lemma(sgrp):
    """The premises of the lemma of germ_classes, on the vectors."""
    vecs = sgrp.bisections[1]
    if not len(vecs):
        # no element, so no class: the float closure returns just that
        return False
    ordered = np.sort(sgrp.act, axis=1)
    v, a = np.nonzero(sgrp.le)
    return bool(_filed(sgrp)
                and not ((ordered[:, 1:] == ordered[:, :-1])
                         & (ordered[:, 1:] >= 0)).any()
                and ((vecs[v] < 0) | (vecs[v] == vecs[a])).all()
                and _least_below(sgrp.le, sgrp.tags))


def _tags_over(gpd, sgrp):
    """sgrp.tags, once gpd is checked to be the groupoid of the
    semigroup's bisections by its objects and arrows; ValueError if not."""
    own = sgrp.bisections[0]
    if (gpd.objects, gpd.arrows) != (own.objects, own.arrows):
        raise ValueError("the groupoid is not the one of the semigroup's "
                         "bisections")
    return sgrp.tags


def _arrows_at(gpd, mask):
    """The labels of the arrows in a boolean mask, sorted by str."""
    return sorted((gpd.arrows[g] for g in np.flatnonzero(mask)), key=str)


def is_wide(gpd, sgrp):
    """Tags cover all arrows and meets of tags are unions of tags.

    meets-realized scans every pair against the whole order, |S|^3 in
    all, unless the certificate of _meets_realized holds.
    """
    rep = Report("wide semigroup")
    tags = _tags_over(gpd, sgrp)
    missing = _arrows_at(gpd, ~tags.any(axis=0))
    rep.add("covers-arrows", not missing, witness=missing or None)

    le, bad = sgrp.le, None
    if not _meets_realized(le, tags):
        t = tags.astype(float)
        # row b: the union of the tags below a and b, against their meet
        bad = _scan(len(t), lambda a: (((le[:, a] & le.T) @ t) > 0)
                    != (t[a] * t > 0))
    witness = None
    if bad is not None:
        a, b = bad[:2]
        below = tags[le[:, a] & le[:, b]].any(axis=0)
        witness = (sgrp.label((a, b)),
                   _arrows_at(gpd, tags[a] & tags[b] & ~below))
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
    lower element still carries x, closed transitively.  Returns
    (reps, cls): cls[a, x] is the class of (a, x), -1 where a does not
    carry x, and reps[i] = (a, x) is the canonical representative of
    class i, its pair with the least element.  Classes are ordered by
    the str of their point label, then by that element.

    Lemma.  Suppose every vector entry is -1 or an arrow leaving its
    object and act is rng of the vectors, one to one on each domain, so
    a carries x on either side iff just one of its arrows leaves (dom)
    or reaches (img) x; v <= a implies that the arrows of v are arrows
    of a; and for every arrow g the first element of least tag size
    through g lies below every element through g.  Then (a, x) and
    (b, x) share a class exactly when a and b have the same arrow at x:
    a common lower element carrying x has its arrow at x in both, and
    the least element through a shared arrow is a common lower element
    carrying x.  So the class of (a, x) is its arrow at x, named by the
    first element through it, O(|S| |objects|) in all.  Where a premise
    fails, each point's order block is closed by products (_joined).
    """
    act = sgrp.act if side == "dom" else _inverse_action(sgrp.act)
    n, m = act.shape
    if sgrp.germ_lemma:
        vecs = np.pad(sgrp.bisections[1], ((0, 0), (0, 1)),
                      constant_values=-1)
        # the arrow of a at x, -1 where a does not carry x
        arrow = vecs[:, :m] if side == "dom" else np.take_along_axis(
            vecs, act, 1)
        least = np.append(sgrp.tags.argmax(axis=0), -1)[arrow]
    else:
        least = _joined(sgrp, act >= 0)
    # the classes as codes least * m + x, then in their order
    a, x = np.nonzero(least >= 0)
    code = np.unique(least[a, x] * m + x)
    reps = sorted(zip(*(code // max(m, 1), code % max(m, 1))),
                  key=lambda r: (str(sgrp.carrier[r[1]]), r))
    reps = np.array(reps, dtype=np.intp).reshape(len(reps), 2)
    number = np.zeros(n * m, dtype=np.intp)
    number[reps[:, 0] * m + reps[:, 1]] = np.arange(len(reps))
    cls = np.full((n, m), -1, dtype=np.intp)
    cls[a, x] = number[least[a, x] * m + x]
    return reps, cls


def _joined(sgrp, carries):
    """The least element of the class of each pair (a, x) carried, -1
    elsewhere: the order block of each point's members, closed
    transitively by repeated boolean products."""
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
        least[members, x] = members[joined.argmax(axis=1)]
    return least


def _members(cls, count):
    """The pairs (a, x) of a class table sorted by class, then element,
    and the bounds of each class: class i is bounds[i]:bounds[i + 1]."""
    a, x = np.nonzero(cls >= 0)
    order = np.argsort(cls[a, x], kind="stable")
    a, x = a[order], x[order]
    return a, x, np.searchsorted(cls[a, x], np.arange(count + 1))


def _class_ranges(bounds, rows, owner, entries, size=2 ** 16):
    """Least and largest entry of a member x member table per pair of
    classes, class i being the members bounds[i]:bounds[i + 1] on either
    axis, as k x k tables (low, high).

    Member p reads row owner[p] of a table with the given number of
    rows: entries(r) gives the rows in the slice r against every member,
    twice, once to take the least and once the largest entry.  The rows
    are taken in chunks of about size entries, each reduced over the
    column classes by reduceat, and the reduced rows of the members over
    the row classes.
    """
    k = len(bounds) - 1
    if not k:
        return np.empty((2, 0, 0), dtype=np.intp)
    cut = bounds[:-1]
    low, high = (np.empty((rows, k), dtype=np.intp) for _ in range(2))
    step = max(1, size // int(bounds[-1]))
    for r in range(0, rows, step):
        lows, highs = entries(slice(r, r + step))
        low[r:r + step] = np.minimum.reduceat(lows, cut, axis=1)
        high[r:r + step] = np.maximum.reduceat(highs, cut, axis=1)
    return (np.minimum.reduceat(low[owner], cut, axis=0),
            np.maximum.reduceat(high[owner], cut, axis=0))


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

    # the class of (a' b, y) for a member (a', x') and a pair (b, y)
    # depends on the element a' alone, so the table has a row per element
    flat = cls.ravel()

    def products(elements):
        vals = flat[np.take(sgrp.mul[elements], a, axis=1) * cls.shape[1] + x]
        return np.where(vals >= 0, vals, k), vals

    low, high = _class_ranges(bounds, len(sgrp.elements), a, products)
    composable = rng == src[:, None]
    bad = _first(composable & (low != high))
    if bad is not None:
        i, j = bad
        got = sorted(set(products(a[bounds[i]:bounds[i + 1]])[1][
            :, bounds[j]:bounds[j + 1]].ravel().tolist()) - {-1})
        raise VerificationError(
            f"germ composition of {_germ_label(sgrp, reps[i])!r} and "
            f"{_germ_label(sgrp, reps[j])!r} is not "
            f"representative independent: {got!r}")
    comp = np.where(composable, low, -1)

    inv = cls[sgrp.star[reps[:, 0]], sgrp.act[reps[:, 0], reps[:, 1]]]
    unit = np.array([cls[_covering(sgrp, x, "; units are missing")[0], x]
                     for x in range(len(sgrp.carrier))], dtype=np.intp)
    return _freeze(reps, cls, src, rng, comp, inv, unit)


def germ_reconstruction(gpd, sgrp):
    """The germ groupoid of a wide tagged semigroup matches the groupoid.

    Maps the germ of a bisection at a point to its unique arrow there
    and checks the map is a bijection respecting all structure.  Each
    member's arrow is read off the tags, and the structure is compared
    by gathers on gpd.codes.
    """
    rep = Report("germ reconstruction")
    tags = _tags_over(gpd, sgrp)
    reps, cls, src, rng, comp, inv, unit = sgrp.germs
    els, pts, arrows, t = sgrp.elements, sgrp.carrier, gpd.arrows, gpd.codes
    k = len(reps)
    a, x, bounds = _members(cls, k)

    def label(c):
        return _germ_label(sgrp, reps[c])

    # the arrow of each member at its point, -1 unless there is just one
    there = tags[a] & (t.src == x[:, None])
    hit = np.where(there.sum(axis=1) == 1, there @ np.arange(len(arrows)), -1)
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

    c = _first((t.src[arrow_of] != src) | (t.rng[arrow_of] != rng))
    rep.add("ends-match", c is None, witness=None if c is None else label(c))

    i, j = np.nonzero(comp >= 0)
    c = _first(t.comp[arrow_of[i], arrow_of[j]] != arrow_of[comp[i, j]])
    rep.add("composition-match", c is None,
            witness=None if c is None else (label(i[c]), label(j[c])))

    c = _first(t.inv[arrow_of] != arrow_of[inv])
    rep.add("inverse-match", c is None,
            witness=None if c is None else label(c))

    c = _first(arrow_of[unit] != t.unit)
    rep.add("unit-match", c is None,
            witness=None if c is None else gpd.objects[c])
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

        flat = cls.ravel()

        def products(rows):
            # (a', x')(b, y) is the class of (a' b, x') if a' maps y to x'
            vals = np.where(pre[rows, None] == x, flat[
                np.take(sgrp.mul[a[rows]], a, axis=1) * cls.shape[1]
                + x[rows, None]], -1)
            return vals, vals

        self.table, high = _class_ranges(bounds, len(a), np.arange(len(a)),
                                         products)
        bad = _first(self.table != high)
        if bad is not None:
            i, j = bad
            got = set(products(slice(bounds[i], bounds[i + 1]))[0][
                :, bounds[j]:bounds[j + 1]].ravel().tolist())
            got = sorted(str(None if v < 0 else v) for v in got)
            raise VerificationError(
                f"crossed product of classes {i} and {j} is not "
                f"representative independent: {got!r}")

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


def canonical_iso_cstar(sgrp, alg=None):
    """Crossed product and germ groupoid convolution are the same algebra.

    Sends the range side class of (a, x) to the source side germ of a
    at the preimage of x and compares structure constants against
    counting weight convolution on the germ groupoid, star included.
    alg is CrossedProductAlgebra(sgrp) when the caller has built it.
    """
    rep = Report("canonical isomorphism")
    alg = CrossedProductAlgebra(sgrp) if alg is None else alg
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

    All operators act on one unweighted space of the stated dimension.
    points stacks the projections in carrier order and iso the
    isometries, zero extended to the full space, in element order.
    blocks is None, or, as groupoid_rep_to_covariant records it,
    (groupoid, ops): the zero extended block of each arrow, then a zero
    matrix, from which iso was placed along the bisection vectors
    (_place).
    """

    blocks = None

    def __init__(self, sgrp, dim, points, iso):
        self.semigroup = sgrp
        self.dim = int(dim)
        self.points, self.iso = (
            np.asarray(ops, dtype=complex).reshape(count, self.dim, self.dim)
            for ops, count in ((points, len(sgrp.carrier)),
                               (iso, len(sgrp.elements))))


def _rows(n, row):
    """The defect arrays row(a), a = 0..n-1, joined in row-major order."""
    return np.concatenate([np.empty(0)] + [row(a) for a in range(n)])


def _stacked(count, dim, gaps, size=2 ** 14):
    """max_abs_each(gaps(p)) over the instances p = 0..count-1, each a
    dim x dim gap, one stacked slice of about size entries at a time."""
    step = max(1, size // max(dim * dim, 1))
    return np.concatenate([np.empty(0)] + [
        max_abs_each(gaps(slice(p, p + step)))
        for p in range(0, count, step)])


def check_covariant_rep(cov, tol=1e-10):
    """Projection axioms, partial isometry axioms, covariance.

    restriction runs over the pairs of the order and covariance over the
    pairs (element, point of its domain), each as stacked products."""
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
    a, b = np.nonzero(le)
    rep.add_worst_at("restriction", _stacked(len(a), cov.dim, lambda p: (
                         iso[a[p]] - iso[b[p]] @ dom[a[p]])),
                     tol, lambda k: sgrp.label((int(a[k]), int(b[k]))))

    b, x = np.nonzero(act >= 0)
    rep.add_worst_at("covariance", _stacked(len(b), cov.dim, lambda p: (
                         iso[b[p]] @ pts[x[p]] @ adj[b[p]]
                         - pts[act[b[p], x[p]]])),
                     tol, lambda k: (els[b[k]], sgrp.carrier[x[k]]))
    return rep


def partial_isometry_form(cov, tol=1e-10):
    """Full multiplicativity of the zero extended isometries.

    Lemma (block form).  Suppose iso[a] is exactly the sum of the placed
    blocks of the arrows of a, as cov.blocks records them over the
    groupoid and vectors of the semigroup; the blocks are multiplicative
    within tol on the composable pairs (g, h) that occur in tags; and
    the embedding certificate holds, so the vector of ab is that of a
    after that of b.  A row of iso[a] is then a row of the block of the
    one arrow g of a reaching its object, and a column of iso[b] one of
    the block of the one arrow h of b leaving its object, so
    iso[a] iso[b] - iso[ab] is U(g) U(h) - U(gh), entry for entry, on
    the block of each pair that a and b compose, and zero elsewhere.
    The defect is the largest over the pairs that occur, each product
    formed in the zero extension as the scan forms it, and the witness
    is the first (a, b) in row-major order through a worst pair.  Where
    a premise fails, NaN included, or the pairs are no fewer than the
    element pairs, the scan over all |S|^2 products runs and decides.
    """
    sgrp = cov.semigroup
    rep = Report("partial isometry form")
    n, iso = len(sgrp.elements), cov.iso
    form = _block_form(cov, tol)
    if form is not None:
        return rep.add_worst_at("multiplicative", form[0], tol,
                                lambda k: sgrp.label(form[1]))
    return rep.add_worst_at("multiplicative", _rows(n, lambda a: max_abs_each(
                                iso[a] @ iso - iso[sgrp.mul[a]])),
                            tol, lambda k: sgrp.label(divmod(k, n)))


def _block_form(cov, tol):
    """(defect, witness pair) of multiplicative by the lemma of
    partial_isometry_form, or None where it does not apply."""
    sgrp = cov.semigroup
    if cov.blocks is None or not sgrp.embedded:
        return None
    gpd, ops = cov.blocks
    own, vecs = sgrp.bisections
    t, n = gpd.codes, len(vecs)
    if not all(np.array_equal(getattr(t, f), getattr(own.codes, f))
               for f in ("src", "rng", "comp")):
        return None
    tags = sgrp.tags
    covered = tags.any(axis=0)
    g, h = t.pairs
    g, h = g[covered[g] & covered[h]], h[covered[g] & covered[h]]
    if len(g) >= n * n or not np.array_equal(_place(vecs, ops), cov.iso):
        return None
    gaps = _stacked(len(g), cov.dim, lambda p: (
        ops[g[p]] @ ops[h[p]] - ops[t.comp[g[p], h[p]]]))
    if not (gaps <= tol).all():
        return None
    d, k = worst_at(gaps)
    if k is None:
        return 0.0, None
    worst = gaps == d
    first = tags.argmax(axis=0)
    a = first[g[worst]].min()
    return d, (int(a), int(first[h[worst & tags[a, g]]].min()))


def _padded(rho):
    """The (alg.dim, d, d) stack rho, then a zero operator for the class
    -1 (a zero product, or no class)."""
    return np.concatenate([rho, np.zeros((1,) + rho.shape[1:], complex)])


def check_crossed_rep(alg, rho, tol=1e-10):
    """rho, one operator per basis element stacked in basis order, is a
    unital star homomorphism out of the crossed product."""
    rep = Report("crossed product representation")
    n, dim, ops = alg.dim, rho.shape[-1], _padded(rho)
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
    partial isometries; returns (covariant rep, report).  rho is not
    checked again here: check_crossed_rep does that, as
    integrate_covariant runs it on the rho it returns."""
    sgrp = alg.semigroup
    out = Report("crossed to covariant")
    mats = [rho[alg.class_of[_covering(sgrp, x, ""), x]]
            for x in range(len(sgrp.carrier))]
    out.add_worst_at("projection-well-defined", [_spread(m) for m in mats],
                     tol, lambda k: sgrp.carrier[k])
    cov = CovariantRep(sgrp, rho.shape[-1], [m[0] for m in mats],
                       _place(alg.class_of, _padded(rho)))
    out.extend(check_covariant_rep(cov, tol))
    return cov, out


def integrate_covariant(alg, cov, tol=1e-10):
    """Compress a covariant representation to the crossed product basis.

    The class of (a, x) acts as the x projection composed with the
    isometry of a; the result, an (alg.dim, d, d) stack in basis order,
    is checked to be independent of the representative and to be a star
    homomorphism.
    """
    out = Report("covariant to crossed")
    a, x, bounds = alg.members
    mats = cov.points[x] @ cov.iso[a]
    rho = mats[bounds[:-1]]
    out.add_worst_at("representative-independent",
                     [_spread(mats[bounds[i]:bounds[i + 1]])
                      for i in range(alg.dim)], tol, lambda k: k)
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
    """Sum the fiber blocks of a representation along each bisection
    vector.

    Only for counting weights, where raw and normalized blocks agree
    and the module inner product is unweighted.
    """
    _require_counting(rep.weights)
    gpd, module = rep.groupoid, rep.module
    _tags_over(gpd, sgrp)
    fam = blockwise(rep)
    dim = module.dim
    fibers = [module.left_positions(x) for x in gpd.objects]
    # every arrow's block in one scatter, row-major, into its zero
    # extension; a last zero matrix stands for no arrow
    t = gpd.codes
    sizes = np.array([len(f) for f in fibers], dtype=np.intp)
    position = np.concatenate([np.empty(0, dtype=np.intp)] + fibers)
    first = np.cumsum(sizes) - sizes
    vals = np.concatenate([np.empty(0, dtype=complex)] + [
        fam.unitaries[g].ravel() for g in gpd.arrows])
    size = sizes[t.rng] * sizes[t.src]
    # the place of each entry in its block
    e = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    k = np.repeat(np.arange(len(gpd.arrows)), size)
    cols = sizes[t.src[k]]
    ops = np.zeros((len(gpd.arrows) + 1, dim, dim), dtype=complex)
    ops[k, position[first[t.rng[k]] + e // cols],
        position[first[t.src[k]] + e % cols]] = vals
    points = np.zeros((len(sizes), dim, dim), dtype=complex)
    points[np.repeat(np.arange(len(sizes)), sizes), position, position] = 1
    cov = CovariantRep(sgrp, dim, points, _place(sgrp.bisections[1], ops))
    cov.blocks = gpd, _freeze(ops)[0]
    return cov


def _place(vecs, ops):
    """Each element's isometry: the sum of ops over the entries of its
    vector, ops[-1] standing for -1."""
    iso = np.zeros((len(vecs),) + ops.shape[1:], dtype=complex)
    for x in range(vecs.shape[1]):
        iso += ops[vecs[:, x]]
    return iso


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
    gather per block shape, reading the tags from sgrp.tags.
    """
    _require_counting(weights)
    sgrp = cov.semigroup
    out = Report("covariant to groupoid")
    arrows, codes = gpd.arrows, gpd.codes
    tags = _tags_over(gpd, sgrp)
    missing = _arrows_at(gpd, ~tags.any(axis=0))
    out.add("arrows-covered", not missing, witness=missing or None)
    if missing:
        raise VerificationError(
            f"arrows not covered by any tag: {missing!r}")

    frames = []
    for x, p in zip(gpd.objects, cov.points):
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
    alg = CrossedProductAlgebra(sgrp)
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
        # rho is checked once: the split- names repeat the checks of
        # check_crossed_rep, which follow representative-independent
        split = Report()
        split.checks = rho_rep.checks[1:] + cov2_rep.checks
        out.extend(split, prefix="split-")
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
    return gpd, _action_semigroup(gpd, order)


def _action_semigroup(gpd, order):
    # the arrow (k, x) is number k |objects| + x, so row k of this table
    # is the vector of element k
    return _close(gpd, np.arange(len(gpd.arrows)).reshape(int(order), -1))


def _is_transformation(gpd, order, action):
    """Whether gpd is transformation_groupoid(order, action): its labels,
    and its tables by index arithmetic on gpd.codes."""
    n, step = int(order), dict(action)
    pts = tuple(sorted(step, key=str))
    m = len(pts)
    if (gpd.objects != pts
            or gpd.arrows != tuple((k, x) for k in range(n) for x in pts)):
        return False
    at = {x: i for i, x in enumerate(pts)}
    nxt = np.array([at.get(step[x], -1) for x in pts], dtype=np.intp)
    t, ids = gpd.codes, np.arange(m)
    # r[k, x]: the k-fold image of x, read off rng and checked step by step
    r = t.rng.reshape(n, m)
    if not (np.array_equal(r[0], ids) and np.array_equal(r[1:], nxt[r[:-1]])
            and np.array_equal(nxt[r[-1]], ids)):
        return False
    k, j, x = np.indices((n, n, m)).reshape(3, -1)
    comp = np.full_like(t.comp, -1)
    comp[k * m + r[j, x], j * m + x] = (k + j) % n * m + x
    k, x = np.indices((n, m)).reshape(2, -1)
    return (np.array_equal(t.src, x) and np.array_equal(t.comp, comp)
            and np.array_equal(t.inv, (-k) % n * m + r[k, x])
            and np.array_equal(t.unit, ids))


def transformation_theorem(order, action, rep=None, tol=1e-10):
    """Group crossed product versus transformation groupoid algebra.

    Builds the transformation groupoid, the crossed product of the
    acting group, and checks the canonical translation is a unital
    star isomorphism onto counting weight convolution.  Given a
    representation, it is also translated to a covariant pair and
    back again; its groupoid, once checked to be the transformation
    groupoid, is the one used.
    """
    if rep is None:
        gpd, sgrp = group_action_semigroup(order, action)
    elif _is_transformation(rep.groupoid, order, action):
        gpd = rep.groupoid
        sgrp = _action_semigroup(gpd, order)
    else:
        # an action whose order does not divide order keeps that message
        transformation_groupoid(order, action)
        raise ValueError("the representation is not one of the "
                         f"transformation groupoid of order {order} and "
                         "the given action")
    out = Report("transformation theorem")
    out.extend(sgrp.validate(), prefix="semigroup-")
    alg = CrossedProductAlgebra(sgrp)
    out.add("dimension", alg.dim == int(order) * len(gpd.objects),
            witness=(alg.dim, int(order) * len(gpd.objects)))
    out.extend(germ_reconstruction(gpd, sgrp), prefix="germ-")
    out.extend(canonical_iso_cstar(sgrp, alg), prefix="iso-")

    if rep is not None:
        cov = groupoid_rep_to_covariant(rep, sgrp)
        out.extend(check_covariant_rep(cov, tol), prefix="covariant-")
        out.extend(partial_isometry_form(cov, tol), prefix="covariant-")

        # arrow (k, x) against the projection at its range times the
        # isometry of element k, the one element through it
        owner = sgrp.tags.argmax(axis=0)
        gaps = (conv_rep_of(rep).ops
                - cov.points[gpd.codes.rng] @ cov.iso[owner])
        out.add_worst_at("integrated-agreement", max_abs_each(gaps), tol,
                         lambda i: gpd.arrows[i])

        back, back_rep = covariant_to_groupoid_rep(
            gpd, rep.weights, cov, tol)
        out.extend(back_rep, prefix="back-")
        out.add_worst_at("translation-roundtrip",
                         abs(back.umap.matrix - rep.umap.matrix), tol)
    return out
