"""Inverse semigroups of bisections, germs, and crossed products.

A bisection of a groupoid is a set of arrows hitting every object at
most once on each end; it induces a partial bijection of the objects.
Distinct bisections can induce the same partial bijection, so elements
here carry the arrow set as a tag and equality respects it.  Closing a
set of bisections under composition and inversion gives an inverse
semigroup acting on the objects; its germs reconstruct the groupoid,
and the crossed product of the action is compared against the
convolution algebra of the germ groupoid with counting weights.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .report import Report, VerificationError, max_abs
from .fingroupoid import FiniteGroupoid, transformation_groupoid
from .convalg import delta_function
from .reps import blockwise, check_cocycle, from_cocycle
from .hilbmod import module_from_dims
from .intdis import integrate_rep


class PartialBijection:
    """Injective partial map of a finite set, optionally tagged.

    The tag is the arrow set of a bisection inducing the map; two
    bisections with equal maps but different arrows stay distinct.
    """

    def __init__(self, mapping, tag=None):
        self.mapping = dict(mapping)
        if len(set(self.mapping.values())) != len(self.mapping):
            raise ValueError("mapping is not injective")
        self.tag = frozenset(tag) if tag is not None else None
        self._key = (frozenset(self.mapping.items()), self.tag)

    def __call__(self, x):
        return self.mapping[x]

    def compose(self, other):
        """self after other, on the mapping level; the tag is dropped."""
        return PartialBijection(
            {x: self.mapping[y] for x, y in other.mapping.items()
             if y in self.mapping})

    def invert(self):
        return PartialBijection({y: x for x, y in self.mapping.items()})

    def restricts(self, other):
        """Whether self is other cut down to a smaller domain."""
        ok = all(other.mapping.get(x) == y
                 for x, y in self.mapping.items())
        if ok and self.tag is not None and other.tag is not None:
            ok = self.tag <= other.tag
        return ok

    def __eq__(self, other):
        return isinstance(other, PartialBijection) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.tag is not None:
            return f"Bisection({sorted(self.tag, key=str)!r})"
        return f"PartialBijection({self.mapping!r})"


def _sort_key(pb):
    tag = sorted(map(str, pb.tag)) if pb.tag is not None else []
    return (len(pb.mapping), sorted(map(str, pb.mapping.items())), tag)


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


def all_bisections(gpd, max_arrows=16):
    """Every bisection, the empty one included; guarded by size."""
    if len(gpd.arrows) > max_arrows:
        raise ValueError(
            f"refusing to enumerate bisections of {len(gpd.arrows)} arrows "
            f"(limit {max_arrows})")
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


class InverseSemigroup:
    """Finite inverse semigroup with an action on a carrier set.

    elements are hashable keys; mul and star are total tables; theta
    assigns each element a partial bijection of the carrier (as a
    plain dict).  Validation is exhaustive and cubic in the size.
    """

    def __init__(self, elements, mul, star, theta, carrier):
        self.elements = tuple(elements)
        self.mul = dict(mul)
        self.star = dict(star)
        self.theta = {a: dict(theta[a]) for a in self.elements}
        self.carrier = tuple(carrier)
        self.position = {a: i for i, a in enumerate(self.elements)}

    def leq(self, a, b):
        """Algebraic order: a equals b cut down to a's own domain."""
        return a == self.mul[(b, self.mul[(self.star[a], a)])]

    def idempotents(self):
        return tuple(e for e in self.elements
                     if self.mul[(e, e)] == e and self.star[e] == e)

    def validate(self):
        rep = Report("inverse semigroup")
        els = self.elements
        missing = next(((a, b) for a in els for b in els
                        if (a, b) not in self.mul
                        or self.mul[(a, b)] not in self.position), None)
        rep.add("closure", missing is None, witness=missing)
        if missing is not None:
            return rep

        bad = next(((a, b, c) for a in els for b in els for c in els
                    if self.mul[(self.mul[(a, b)], c)]
                    != self.mul[(a, self.mul[(b, c)])]), None)
        rep.add("associativity", bad is None, witness=bad)

        bad = next((a for a in els if self.star[self.star[a]] != a), None)
        rep.add("involution", bad is None, witness=bad)

        bad = next(((a, b) for a in els for b in els
                    if self.star[self.mul[(a, b)]]
                    != self.mul[(self.star[b], self.star[a])]), None)
        rep.add("involution-antimultiplicative", bad is None, witness=bad)

        bad = next((a for a in els
                    if self.mul[(self.mul[(a, self.star[a])], a)] != a),
                   None)
        rep.add("regularity", bad is None, witness=bad)

        idem = self.idempotents()
        bad = next(((e, f) for e in idem for f in idem
                    if self.mul[(e, f)] != self.mul[(f, e)]), None)
        rep.add("idempotents-commute", bad is None, witness=bad)

        bad = None
        for a in els:
            th = self.theta[a]
            if len(set(th.values())) != len(th):
                bad = a
                break
            if any(x not in self.carrier or y not in self.carrier
                   for x, y in th.items()):
                bad = a
                break
        rep.add("action-partial-bijections", bad is None, witness=bad)
        if bad is not None:
            return rep

        bad = None
        for a in els:
            want = {y: x for x, y in self.theta[a].items()}
            if self.theta[self.star[a]] != want:
                bad = a
                break
        rep.add("action-involution", bad is None, witness=bad)

        bad = None
        for a in els:
            for b in els:
                thb = self.theta[b]
                tha = self.theta[a]
                composite = {x: tha[y] for x, y in thb.items() if y in tha}
                if self.theta[self.mul[(a, b)]] != composite:
                    bad = (a, b)
                    break
            if bad:
                break
        rep.add("action-multiplicative", bad is None, witness=bad)

        bad = None
        for e in self.idempotents():
            if any(x != y for x, y in self.theta[e].items()):
                bad = e
                break
        rep.add("action-idempotent-identity", bad is None, witness=bad)
        return rep


def _close(carrier, generators, compose, invert, max_size):
    """Inverse semigroup generated under compose(a, b) and invert(a).

    Elements are listed in _sort_key order, and act on the carrier
    through their own partial bijections.
    """
    seen = set()
    work = []
    for a in generators:
        for b in (a, invert(a)):
            if b not in seen:
                seen.add(b)
                work.append(b)
    while work:
        a = work.pop()
        for b in list(seen):
            for c in (compose(a, b), compose(b, a)):
                if c not in seen:
                    if len(seen) >= max_size:
                        raise ValueError(
                            f"semigroup closure exceeded {max_size} elements")
                    seen.add(c)
                    work.append(c)
    elements = sorted(seen, key=_sort_key)
    mul = {(a, b): compose(a, b) for a in elements for b in elements}
    star = {a: invert(a) for a in elements}
    theta = {a: dict(a.mapping) for a in elements}
    return InverseSemigroup(elements, mul, star, theta, tuple(carrier))


def semigroup_from_bisections(gpd, generators, max_size=4096):
    """Close tagged bisections under composition and inversion."""
    return _close(gpd.objects, generators, partial(compose_bisections, gpd),
                  partial(invert_bisection, gpd), max_size)


def semigroup_from_maps(carrier, generators, max_size=4096):
    """Close untagged partial bijections; for external generator files."""
    return _close(carrier, generators, PartialBijection.compose,
                  PartialBijection.invert, max_size)


def bisection_semigroup(gpd):
    """The inverse semigroup of every bisection of the groupoid."""
    return semigroup_from_bisections(gpd, all_bisections(gpd))


def is_wide(gpd, sgrp):
    """Tags cover all arrows and meets of tags are unions of tags."""
    rep = Report("wide semigroup")
    tags = {}
    for a in sgrp.elements:
        if a.tag is None:
            rep.add("tagged", False, witness=a)
            return rep
        tags[a] = a.tag
    rep.add("tagged", True)
    covered = frozenset().union(*tags.values()) if tags else frozenset()
    rep.add("covers-arrows", covered == frozenset(gpd.arrows),
            witness=sorted(frozenset(gpd.arrows) - covered, key=str) or None)
    bad, gap = None, None
    for a in sgrp.elements:
        for b in sgrp.elements:
            meet = tags[a] & tags[b]
            union = frozenset().union(
                frozenset(),
                *(tags[v] for v in sgrp.elements
                  if sgrp.leq(v, a) and sgrp.leq(v, b)))
            if union != meet:
                bad, gap = (a, b), sorted(meet - union, key=str)
                break
        if bad:
            break
    rep.add("meets-realized", bad is None,
            witness=(bad, gap) if bad else None)
    return rep


# ---------------------------------------------------------------------------
# germs

def _covering(sgrp, idem, x, missing):
    """Idempotents among idem acting at x; raises with missing if none."""
    covering = [e for e in idem if x in sgrp.theta[e]]
    if not covering:
        raise VerificationError(f"no idempotent acts at {x!r}{missing}")
    return covering


def _side_set(sgrp, a, side):
    th = sgrp.theta[a]
    return tuple(sorted(th.keys() if side == "dom" else th.values(),
                        key=str))


def germ_classes(sgrp, side="dom"):
    """Equivalence classes of (element, point) pairs at the given side.

    Two pairs at the same point are identified when some common lower
    element still carries the point.  Returns (classes, class_of):
    classes is a tuple of tuples of pairs, class_of maps each pair to
    its class index; the first pair of each class, minimal in element
    order, is the canonical representative.
    """
    pairs = [(a, x) for a in sgrp.elements for x in _side_set(sgrp, a, side)]
    index = {p: i for i, p in enumerate(pairs)}
    parent = list(range(len(pairs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_point = {}
    for (a, x) in pairs:
        by_point.setdefault(x, []).append(a)
    for x, members in by_point.items():
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if find(index[(a, x)]) == find(index[(b, x)]):
                    continue
                joined = any(
                    sgrp.leq(c, a) and sgrp.leq(c, b)
                    and x in set(_side_set(sgrp, c, side))
                    for c in sgrp.elements)
                if joined:
                    parent[find(index[(a, x)])] = find(index[(b, x)])

    groups = {}
    for p in pairs:
        groups.setdefault(find(index[p]), []).append(p)
    classes = []
    for _, members in groups.items():
        members.sort(key=lambda p: sgrp.position[p[0]])
        classes.append(tuple(members))
    classes.sort(key=lambda m: (str(m[0][1]), sgrp.position[m[0][0]]))
    class_of = {}
    for i, members in enumerate(classes):
        for p in members:
            class_of[p] = i
    return tuple(classes), class_of


def germ_groupoid(sgrp):
    """Groupoid of source side germs of the action.

    Arrows are the germ classes, labeled by canonical representatives;
    composition multiplies representatives and is verified to be
    independent of their choice.  Units need an idempotent through
    every carrier point.
    """
    classes, class_of = germ_classes(sgrp, side="dom")
    labels = tuple(members[0] for members in classes)

    src = {}
    rng = {}
    for i, members in enumerate(classes):
        a, x = members[0]
        src[labels[i]] = x
        rng[labels[i]] = sgrp.theta[a][x]
        for (b, y) in members:
            if sgrp.theta[b][y] != rng[labels[i]]:
                raise VerificationError(
                    f"germ class {labels[i]!r} has inconsistent range")

    comp = {}
    for i, mem1 in enumerate(classes):
        for j, mem2 in enumerate(classes):
            la, lb = labels[i], labels[j]
            if src[la] != rng[lb]:
                continue
            results = set()
            for (a, _) in mem1:
                for (b, y) in mem2:
                    prod = sgrp.mul[(a, b)]
                    if y not in sgrp.theta[prod]:
                        continue
                    results.add(class_of[(prod, y)])
            if len(results) != 1:
                raise VerificationError(
                    f"germ composition of {la!r} and {lb!r} is not "
                    f"representative independent: {sorted(results)!r}")
            comp[(la, lb)] = labels[results.pop()]

    inv = {}
    for i, members in enumerate(classes):
        a, x = members[0]
        inv[labels[i]] = labels[
            class_of[(sgrp.star[a], sgrp.theta[a][x])]]

    idem = sgrp.idempotents()
    unit = {}
    for x in sgrp.carrier:
        e = _covering(sgrp, idem, x, "; units are missing")[0]
        unit[x] = labels[class_of[(e, x)]]
    return FiniteGroupoid(sgrp.carrier, labels, src, rng, comp, inv, unit)


def germ_reconstruction(gpd, sgrp):
    """The germ groupoid of a wide tagged semigroup matches the groupoid.

    Maps the germ of a bisection at a point to its unique arrow there
    and checks the map is a bijection respecting all structure.
    """
    rep = Report("germ reconstruction")
    germ = germ_groupoid(sgrp)

    classes, _ = germ_classes(sgrp, side="dom")
    arrow_of = {}
    bad = None
    for members in classes:
        label = members[0]
        images = set()
        for (a, x) in members:
            if a.tag is None:
                rep.add("tagged", False, witness=a)
                return rep
            hit = [g for g in a.tag if gpd.src[g] == x]
            if len(hit) != 1:
                bad = (a, x)
                break
            images.add(hit[0])
        if bad or len(images) != 1:
            bad = bad or label
            break
        arrow_of[label] = images.pop()
    rep.add("well-defined", bad is None, witness=bad)
    if bad is not None:
        return rep

    values = list(arrow_of.values())
    onto = set(values) == set(gpd.arrows) and len(values) == len(gpd.arrows)
    rep.add("bijective", onto,
            witness=None if onto
            else f"{len(values)} germs for {len(gpd.arrows)} arrows")
    if not onto:
        return rep

    bad = next((l for l in germ.arrows
                if gpd.src[arrow_of[l]] != germ.src[l]
                or gpd.rng[arrow_of[l]] != germ.rng[l]), None)
    rep.add("ends-match", bad is None, witness=bad)

    bad = next(((l1, l2) for (l1, l2) in germ.comp
                if gpd.comp[(arrow_of[l1], arrow_of[l2])]
                != arrow_of[germ.comp[(l1, l2)]]), None)
    rep.add("composition-match", bad is None, witness=bad)

    bad = next((l for l in germ.arrows
                if gpd.inv[arrow_of[l]] != arrow_of[germ.inv[l]]), None)
    rep.add("inverse-match", bad is None, witness=bad)

    bad = next((x for x in gpd.objects
                if arrow_of[germ.unit[x]] != gpd.unit[x]), None)
    rep.add("unit-match", bad is None, witness=bad)
    return rep


# ---------------------------------------------------------------------------
# crossed product

class CrossedProductAlgebra:
    """Linear span of range side germs with the convolution product.

    Basis classes are labeled by canonical (element, point) pairs with
    the point in the image of the action; the product of two classes
    is a third class or zero, and both the product and the involution
    are verified to be independent of representatives during
    construction.
    """

    def __init__(self, sgrp):
        self.semigroup = sgrp
        classes, class_of = germ_classes(sgrp, side="img")
        self.members = classes
        self.class_of = class_of
        self.basis = tuple(members[0] for members in classes)

        theta_inv = {a: {y: x for x, y in sgrp.theta[a].items()}
                     for a in sgrp.elements}
        self.product_table = {}
        for i, mem1 in enumerate(classes):
            for j, mem2 in enumerate(classes):
                results = set()
                for (a, x) in mem1:
                    for (b, y) in mem2:
                        if theta_inv[a][x] != y:
                            results.add(None)
                            continue
                        prod = sgrp.mul[(a, b)]
                        results.add(self.class_of[(prod, x)])
                if len(results) != 1:
                    raise VerificationError(
                        f"crossed product of classes {i} and {j} is not "
                        f"representative independent: {sorted(map(str, results))!r}")
                got = results.pop()
                self.product_table[(i, j)] = got

        self.star_table = {}
        for i, mem in enumerate(classes):
            results = {self.class_of[(sgrp.star[a], theta_inv[a][x])]
                       for (a, x) in mem}
            if len(results) != 1:
                raise VerificationError(
                    f"involution of class {i} is not representative "
                    f"independent")
            self.star_table[i] = results.pop()

        idem = sgrp.idempotents()
        self.unit_indices = []
        for x in sgrp.carrier:
            e = _covering(sgrp, idem, x, "; the algebra has no unit")[0]
            self.unit_indices.append(self.class_of[(e, x)])
        if len(set(self.unit_indices)) != len(self.unit_indices):
            raise VerificationError("unit summands collide")

    @property
    def dim(self):
        return len(self.basis)

    def multiply(self, vec1, vec2):
        out = {i: 0.0 + 0.0j for i in range(self.dim)}
        for i, v1 in vec1.items():
            if v1 == 0:
                continue
            for j, v2 in vec2.items():
                k = self.product_table[(i, j)]
                if k is not None:
                    out[k] += v1 * v2
        return out

    def unit_vector(self):
        out = {i: 0.0 + 0.0j for i in range(self.dim)}
        for i in self.unit_indices:
            out[i] = 1.0 + 0.0j
        return out

    def check(self):
        rep = Report("crossed product algebra")
        bad = None
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    ij = self.product_table[(i, j)]
                    jk = self.product_table[(j, k)]
                    left = None if ij is None else self.product_table[(ij, k)]
                    right = None if jk is None else self.product_table[(i, jk)]
                    if left != right:
                        bad = (i, j, k)
                        break
                if bad:
                    break
            if bad:
                break
        rep.add("associativity", bad is None, witness=bad)

        bad = None
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.product_table[(i, j)]
                want = self.product_table[(self.star_table[j],
                                           self.star_table[i])]
                got = None if ij is None else self.star_table[ij]
                if got != want:
                    bad = (i, j)
                    break
            if bad:
                break
        rep.add("star-antimultiplicative", bad is None, witness=bad)

        ident = self.unit_vector()
        bad = None
        for i in range(self.dim):
            e = {i: 1.0 + 0.0j}
            left = self.multiply(ident, e)
            right = self.multiply(e, ident)
            want = {j: (1.0 if j == i else 0.0) for j in range(self.dim)}
            if any(abs(left.get(j, 0) - want[j]) > 0 for j in want) \
                    or any(abs(right.get(j, 0) - want[j]) > 0 for j in want):
                bad = i
                break
        rep.add("unital", bad is None, witness=bad)
        return rep


def _spread(mats):
    """Largest entrywise distance of the matrices from the first one."""
    return max((max_abs(m - mats[0]) for m in mats[1:]), default=0.0)


def crossed_product(sgrp, max_size=4096):
    if len(sgrp.elements) > max_size:
        raise ValueError(
            f"semigroup of {len(sgrp.elements)} elements exceeds the "
            f"crossed product guard {max_size}")
    return CrossedProductAlgebra(sgrp)


def canonical_iso_cstar(sgrp):
    """Crossed product and germ groupoid convolution are the same algebra.

    Sends the range side class of (a, x) to the source side germ of a
    at the preimage of x and compares structure constants against
    counting weight convolution on the germ groupoid, star included.
    """
    rep = Report("canonical isomorphism")
    alg = crossed_product(sgrp)
    germ = germ_groupoid(sgrp)
    rep.add("dimensions", alg.dim == len(germ.arrows),
            witness=(alg.dim, len(germ.arrows)))

    classes_dom, class_of_dom = germ_classes(sgrp, side="dom")
    dom_labels = {i: members[0] for i, members in enumerate(classes_dom)}

    arrow_of = {}
    bad = None
    for i, members in enumerate(alg.members):
        images = set()
        for (a, x) in members:
            y = {v: k for k, v in sgrp.theta[a].items()}[x]
            images.add(class_of_dom[(a, y)])
        if len(images) != 1:
            bad = i
            break
        arrow_of[i] = dom_labels[images.pop()]
    rep.add("translation-well-defined", bad is None, witness=bad)
    if bad is not None:
        return rep

    onto = (set(arrow_of.values()) == set(germ.arrows)
            and len(arrow_of) == len(germ.arrows))
    rep.add("translation-bijective", onto)
    if not onto:
        return rep

    bad = None
    for i in range(alg.dim):
        for j in range(alg.dim):
            k = alg.product_table[(i, j)]
            g, h = arrow_of[i], arrow_of[j]
            if germ.src[g] == germ.rng[h]:
                want = germ.comp[(g, h)]
                if k is None or arrow_of[k] != want:
                    bad = (i, j)
                    break
            else:
                if k is not None:
                    bad = (i, j)
                    break
        if bad:
            break
    rep.add("products-match", bad is None, witness=bad)

    bad = next((i for i in range(alg.dim)
                if arrow_of[alg.star_table[i]] != germ.inv[arrow_of[i]]),
               None)
    rep.add("stars-match", bad is None, witness=bad)

    unit_arrows = {arrow_of[i] for i in alg.unit_indices}
    want_units = {germ.unit[x] for x in germ.objects}
    rep.add("units-match", unit_arrows == want_units,
            witness=None if unit_arrows == want_units
            else sorted(unit_arrows ^ want_units, key=str))
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

    def domain_projection(self, a):
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for x in self.semigroup.theta[a]:
            out += self.projections[x]
        return out

    def image_projection(self, a):
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for x in self.semigroup.theta[a].values():
            out += self.projections[x]
        return out


def check_covariant_rep(cov, tol=1e-10):
    """Projection axioms, partial isometry axioms, covariance."""
    sgrp = cov.semigroup
    rep = Report("covariant representation")
    eye = np.eye(cov.dim)

    worst = 0.0
    for x in sgrp.carrier:
        p = cov.projections[x]
        worst = max(worst, max_abs(p @ p - p),
                    max_abs(p - p.conj().T))
    rep.add("projections", worst <= tol, defect=worst)

    total = sum(cov.projections.values()) if sgrp.carrier else eye * 0
    d = max_abs(total - eye)
    rep.add("projections-sum", d <= tol, defect=d)

    worst, bad = 0.0, None
    for a in sgrp.elements:
        u = cov.isometries[a]
        d = max(max_abs(u.conj().T @ u - cov.domain_projection(a)),
                max_abs(u @ u.conj().T - cov.image_projection(a)))
        if d > worst:
            worst, bad = d, a
    rep.add("partial-isometries", worst <= tol, defect=worst, witness=bad)

    worst, bad = 0.0, None
    for a in sgrp.elements:
        d = max_abs(cov.isometries[sgrp.star[a]]
                    - cov.isometries[a].conj().T)
        if d > worst:
            worst, bad = d, a
    rep.add("involution", worst <= tol, defect=worst, witness=bad)

    worst, bad = 0.0, None
    for a in sgrp.elements:
        for b in sgrp.elements:
            if not sgrp.leq(a, b):
                continue
            d = max_abs(
                cov.isometries[a]
                - cov.isometries[b] @ cov.domain_projection(a))
            if d > worst:
                worst, bad = d, (a, b)
    rep.add("restriction", worst <= tol, defect=worst, witness=bad)

    worst, bad = 0.0, None
    for a in sgrp.elements:
        u = cov.isometries[a]
        for x, y in sgrp.theta[a].items():
            d = max_abs(u @ cov.projections[x] @ u.conj().T
                        - cov.projections[y])
            if d > worst:
                worst, bad = d, (a, x)
    rep.add("covariance", worst <= tol, defect=worst, witness=bad)
    return rep


def partial_isometry_form(cov, tol=1e-10):
    """Full multiplicativity of the zero extended isometries."""
    sgrp = cov.semigroup
    rep = Report("partial isometry form")
    worst, bad = 0.0, None
    for a in sgrp.elements:
        for b in sgrp.elements:
            d = max_abs(
                cov.isometries[a] @ cov.isometries[b]
                - cov.isometries[sgrp.mul[(a, b)]])
            if d > worst:
                worst, bad = d, (a, b)
    rep.add("multiplicative", worst <= tol, defect=worst, witness=bad)
    return rep


def check_crossed_rep(alg, rho, tol=1e-10):
    """rho is a unital star homomorphism out of the crossed product."""
    rep = Report("crossed product representation")
    dim = next(iter(rho.values())).shape[0] if rho else 0
    worst, bad = 0.0, None
    for i in range(alg.dim):
        for j in range(alg.dim):
            k = alg.product_table[(i, j)]
            want = rho[k] if k is not None \
                else np.zeros((dim, dim), dtype=complex)
            d = max_abs(rho[i] @ rho[j] - want)
            if d > worst:
                worst, bad = d, (i, j)
    rep.add("multiplicative", worst <= tol, defect=worst, witness=bad)

    worst, bad = 0.0, None
    for i in range(alg.dim):
        d = max_abs(rho[alg.star_table[i]] - rho[i].conj().T)
        if d > worst:
            worst, bad = d, i
    rep.add("star", worst <= tol, defect=worst, witness=bad)

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

    idem = sgrp.idempotents()
    projections = {}
    worst, bad = 0.0, None
    for x in sgrp.carrier:
        mats = [rho[alg.class_of[(e, x)]]
                for e in _covering(sgrp, idem, x, "")]
        projections[x] = mats[0]
        d = _spread(mats)
        if d > worst:
            worst, bad = d, x
    out.add("projection-well-defined", worst <= tol, defect=worst,
            witness=bad)

    isometries = {}
    for a in sgrp.elements:
        u = np.zeros((dim, dim), dtype=complex)
        for x in sgrp.theta[a].values():
            u += rho[alg.class_of[(a, x)]]
        isometries[a] = u
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
    rho = {}
    worst, bad = 0.0, None
    for i, members in enumerate(alg.members):
        mats = [cov.projections[x] @ cov.isometries[a]
                for (a, x) in members]
        rho[i] = mats[0]
        d = _spread(mats)
        if d > worst:
            worst, bad = d, i
    out.add("representative-independent", worst <= tol, defect=worst,
            witness=bad)
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
    projections = {}
    for x in gpd.objects:
        p = np.zeros((dim, dim), dtype=complex)
        for i in fibers[x]:
            p[i, i] = 1.0
        projections[x] = p
    isometries = {}
    for a in sgrp.elements:
        if a.tag is None:
            raise ValueError(f"element {a!r} carries no arrow tag")
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
    tagged = [a for a in sgrp.elements if a.tag]
    cover = {g: [a for a in tagged if g in a.tag] for g in gpd.arrows}
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

    blocks = {}
    worst, bad = 0.0, None
    for g in gpd.arrows:
        mats = [frames[gpd.rng[g]].conj().T @ cov.isometries[a]
                @ frames[gpd.src[g]] for a in cover[g]]
        blocks[g] = mats[0]
        d = _spread(mats)
        if d > worst:
            worst, bad = d, g
    out.add("blocks-agree", worst <= tol, defect=worst, witness=bad)

    worst, bad = 0.0, None
    for (g, h) in gpd.composable_pairs():
        a = cover[g][0]
        b = cover[h][0]
        ab = sgrp.mul[(a, b)]
        gh = gpd.comp[(g, h)]
        if ab.tag is None or gh not in ab.tag:
            continue
        through = frames[gpd.rng[gh]].conj().T @ cov.isometries[ab] \
            @ frames[gpd.src[gh]]
        d = max_abs(blocks[g] @ blocks[h] - through)
        if d > worst:
            worst, bad = d, (g, h)
    out.add("trisection", worst <= tol, defect=worst, witness=bad)

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
        worst = 0.0
        for a in sgrp.elements:
            worst = max(worst,
                        max_abs(cov2.isometries[a] - cov.isometries[a]))
        out.add("split-roundtrip", worst <= tol, defect=worst)
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

        worst, bad = 0.0, None
        for k in range(int(order)):
            a = next(el for el in sgrp.elements
                     if el.tag and (k, gpd.objects[0]) in el.tag)
            w = cov.isometries[a]
            for x in gpd.objects:
                g = (k, x)
                lit = integrate_rep(rep, delta_function(gpd, g)).matrix
                want = cov.projections[gpd.rng[g]] @ w
                d = max_abs(lit - want)
                if d > worst:
                    worst, bad = d, g
        out.add("integrated-agreement", worst <= tol, defect=worst,
                witness=bad)

        back, back_rep = covariant_to_groupoid_rep(
            gpd, rep.weights, cov, tol)
        out.extend(back_rep, prefix="back-")
        d = max_abs(back.umap.matrix - rep.umap.matrix)
        out.add("translation-roundtrip", d <= tol, defect=d)
    return out
