"""Finite groupoids as explicit arrow tables.

A groupoid is stored as finite sets of object and arrow labels together
with source/range maps, a partial composition table, an inverse table and
a unit arrow per object.  Every axiom is a finite enumeration, so
validation returns an exact witness for any breakage.

Presets state a groupoid by rules: the source, range and inverse of an
arrow, the unit of an object and the product mul(g, h) of a composable
pair.  One builder tabulates the rules, the product along the range
fibres, so the composition table lists its pairs g-major in arrow order.

FiniteGroupoid.codes is a read-only integer view of the label tables,
built on first use: src and rng as object positions per arrow, inv and
unit as arrow positions, comp as the |A| x |A| table of gh, -1 off the
composable pairs, and pairs = np.nonzero(comp >= 0), the composable
pairs in composable_pairs() order.  Only a validated groupoid's view is
read; validation reads the label dicts, and the tables must not change
once the view is built.

FiniteGroupoid.source_layout, built from the view on first use, places
the arrows in (objects, m, m) blocks, one per source fibre, m the
largest source fibre: place[g] is src(g) * m plus the position of g in
its source fibre, in arrow order, and factor, over the objects * m * m
flat places of the blocks, holds g at the place of entry [gh, h] of
each composable pair (g, h), in the block of src(h), and |A| on the
padding.
"""

from __future__ import annotations

import math
import reprlib
from collections import namedtuple
from functools import cached_property

import numpy as np

from .report import Report

_CHUNK = 2 ** 16  # triples of one chunk of _first_nonassociative

ArrowCodes = namedtuple("ArrowCodes", "src rng inv unit comp pairs")
SourceLayout = namedtuple("SourceLayout", "m place factor")


class FiniteGroupoid:
    """Groupoid given by lookup tables.

    objects : iterable of hashable labels
    arrows  : iterable of hashable labels
    src, rng: dict arrow -> object
    comp    : dict (g, h) -> arrow, meant to be defined exactly when
              src(g) == rng(h); validate() checks that
    inv     : dict arrow -> arrow
    unit    : dict object -> arrow
    """

    def __init__(self, objects, arrows, src, rng, comp, inv, unit):
        self.objects = tuple(objects)
        self.arrows = tuple(arrows)
        self.src = dict(src)
        self.rng = dict(rng)
        self.comp = dict(comp)
        self.inv = dict(inv)
        self.unit = dict(unit)
        self._into = {x: tuple(g for g in self.arrows if self.rng.get(g) == x)
                      for x in self.objects}
        self._outof = {x: tuple(g for g in self.arrows if self.src.get(g) == x)
                       for x in self.objects}

    @cached_property
    def codes(self):
        """The integer view of the module docstring."""
        obj = {x: i for i, x in enumerate(self.objects)}
        arr = {g: i for i, g in enumerate(self.arrows)}
        comp = np.full((len(arr), len(arr)), -1, dtype=np.intp)
        for (g, h), k in self.comp.items():
            comp[arr[g], arr[h]] = arr[k]
        views = [np.array(v, dtype=np.intp) for v in (
            [obj[self.src[g]] for g in self.arrows],
            [obj[self.rng[g]] for g in self.arrows],
            [arr[self.inv[g]] for g in self.arrows],
            [arr[self.unit[x]] for x in self.objects], comp)]
        views += np.nonzero(views[4] >= 0)
        for v in views:
            v.flags.writeable = False
        return ArrowCodes(*views[:5], tuple(views[5:]))

    @cached_property
    def source_layout(self):
        """The source-fibre layout of the module docstring."""
        t = self.codes
        sizes = np.bincount(t.src, minlength=len(self.objects))
        m = int(sizes.max(initial=0))
        order = np.argsort(t.src, kind="stable")
        pos = np.empty_like(order)
        pos[order] = np.arange(len(order)) - (np.cumsum(sizes) - sizes)[
            t.src[order]]
        g, h = t.pairs
        factor = np.full(len(sizes) * m * m, len(t.src))
        factor[(t.src[h] * m + pos[t.comp[g, h]]) * m + pos[h]] = g
        views = [t.src * m + pos, factor]
        for v in views:
            v.flags.writeable = False
        return SourceLayout(m, *views)

    def arrows_into(self, x):
        """All arrows g with rng(g) == x."""
        return self._into[x]

    def arrows_out_of(self, x):
        """All arrows g with src(g) == x."""
        return self._outof[x]

    def isotropy(self, x):
        return tuple(g for g in self.arrows
                     if self.src[g] == x and self.rng[g] == x)

    def composable_pairs(self):
        """Pairs (g, h) with src(g) == rng(h), g-major in arrow order.

        Walks the range fibres, so every src must be an object.
        """
        return tuple((g, h) for g in self.arrows
                     for h in self.arrows_into(self.src[g]))

    def orbits(self):
        """Partition of the objects into connected components."""
        parent = {x: x for x in self.objects}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in self.arrows:
            a, b = find(self.src[g]), find(self.rng[g])
            if a != b:
                parent[a] = b
        groups = {}
        for x in self.objects:
            groups.setdefault(find(x), []).append(x)
        return tuple(tuple(v) for _, v in
                     sorted(groups.items(), key=lambda kv: str(kv[0])))

    def __repr__(self):
        return (f"FiniteGroupoid({len(self.objects)} objects, "
                f"{len(self.arrows)} arrows)")


def _first_nonassociative(comp):
    """The first composable triple (g, h, k) of arrow positions, ordered
    by the pair (g, h) and then k, with (gh)k != g(hk), or None.

    comp is an |A| x |A| table of products, -1 off the composable pairs,
    whose products are composable where their factors' ends say so.  The
    triples are the pairs (g, h) of the table, each followed by the pairs
    (h, k), taken in chunks of about _CHUNK triples.
    """
    n, flat = len(comp), comp.ravel()
    first, second = np.nonzero(comp >= 0)
    # the pairs (h, k) are first == h, at start[h]:start[h + 1]
    start = np.searchsorted(first, np.arange(n + 1))
    count = np.diff(start)[second]
    ends = np.cumsum(count)
    p = 0
    while p < len(first):
        q = max(p + 1, int(np.searchsorted(ends, ends[p] - count[p] + _CHUNK,
                                           side="right")))
        c = count[p:q]
        pair = np.repeat(np.arange(p, q), c)
        g, h = first[pair], second[pair]
        k = second[start[h] + np.arange(c.sum())
                   - np.repeat(np.cumsum(c) - c, c)]
        bad = (flat[flat[g * n + h] * n + k]
               != flat[g * n + flat[h * n + k]])
        if bad.any():
            t = int(np.argmax(bad))
            return int(g[t]), int(h[t]), int(k[t])
        p = q
    return None


def validate_groupoid(gpd):
    """Check every groupoid axiom; witnesses name the offending tuple."""
    rep = Report("groupoid axioms")
    obj = set(gpd.objects)
    arr = set(gpd.arrows)

    bad = next((g for g in gpd.arrows
                if gpd.src.get(g) not in obj or gpd.rng.get(g) not in obj),
               None)
    rep.add("source-range-total", bad is None, witness=bad)

    bad = next((x for x in gpd.objects
                if gpd.unit.get(x) not in arr
                or gpd.src.get(gpd.unit.get(x)) != x
                or gpd.rng.get(gpd.unit.get(x)) != x), None)
    rep.add("units-exist", bad is None, witness=bad)
    if not rep.ok:
        return rep

    # scanned in a fixed order, so the witness does not follow the hash
    # seed: an extra key in table order, a missing pair in pair order
    pairs = gpd.composable_pairs()
    domain = set(pairs)
    extra = next((p for p in gpd.comp if p not in domain), None)
    missing = next((p for p in pairs if p not in gpd.comp), None)
    rep.add("composition-domain", extra is None and missing is None,
            witness=extra if extra is not None else missing)
    if not rep.ok:
        return rep

    bad = next(((g, h) for (g, h) in pairs
                if gpd.comp[(g, h)] not in arr
                or gpd.src[gpd.comp[(g, h)]] != gpd.src[h]
                or gpd.rng[gpd.comp[(g, h)]] != gpd.rng[g]), None)
    rep.add("composition-matching", bad is None, witness=bad)

    bad = None
    for g in gpd.arrows:
        u_r, u_s = gpd.unit[gpd.rng[g]], gpd.unit[gpd.src[g]]
        if gpd.comp.get((u_r, g)) != g or gpd.comp.get((g, u_s)) != g:
            bad = g
            break
    rep.add("unit-laws", bad is None, witness=bad)

    bad = None
    if rep.ok:
        # the table over arrow positions, a product as the first position
        # of its label, so that equal labels read equal
        first = {}
        for i, g in enumerate(gpd.arrows):
            first.setdefault(g, i)
        canon = np.array([first[g] for g in gpd.arrows], dtype=np.intp)
        comp = np.full((len(canon),) * 2, -1, dtype=np.intp)
        for (g, h), gh in gpd.comp.items():
            comp[first[g], first[h]] = first[gh]
        bad = _first_nonassociative(comp[np.ix_(canon, canon)])
        if bad is not None:
            bad = tuple(gpd.arrows[i] for i in bad)
    rep.add("associativity", bad is None, witness=bad)

    bad = None
    for g in gpd.arrows:
        gi = gpd.inv.get(g)
        if (gi not in arr or gpd.inv.get(gi) != g
                or gpd.src.get(gi) != gpd.rng[g]
                or gpd.rng.get(gi) != gpd.src[g]
                or gpd.comp.get((g, gi)) != gpd.unit[gpd.rng[g]]
                or gpd.comp.get((gi, g)) != gpd.unit[gpd.src[g]]):
            bad = g
            break
    rep.add("inverses", bad is None, witness=bad)
    return rep


def validate_haar(gpd, weight):
    """Check that an arrow weight system is positive and left invariant.

    weight maps every arrow to a positive number whose square is finite
    and positive, since the library multiplies two weights; left
    invariance says weight(gh) == weight(h) for every composable pair,
    compared exactly.
    A valid system is determined by its values on units, the object
    weights.
    """
    rep = Report("haar weights")
    bad = next((g for g in gpd.arrows if g not in weight), None)
    rep.add("weight-total", bad is None, witness=bad)
    if not rep.ok:
        return rep
    w = {g: float(weight[g]) for g in gpd.arrows}
    bad = next((g for g in gpd.arrows
                if not (0.0 < w[g] and 0.0 < w[g] * w[g] < math.inf)), None)
    rep.add("weight-positive", bad is None, witness=bad)
    if not rep.ok:
        return rep
    bad, defect = None, 0.0
    for (g, h) in gpd.composable_pairs():
        gh = gpd.comp[(g, h)]
        if w[gh] != w[h]:
            bad, defect = (g, h), abs(w[gh] - w[h])
            break
    rep.add("left-invariance", bad is None, defect=defect, witness=bad)
    return rep


def counting_weights(gpd):
    return {x: 1.0 for x in gpd.objects}


def arrow_weights(gpd, objweights):
    """Arrow weight system induced by object weights: g -> c(src(g))."""
    return {g: float(objweights[gpd.src[g]]) for g in gpd.arrows}


# ---------------------------------------------------------------------------
# presets and fixtures

def _from_rule(objects, arrows, src, rng, inv, unit, mul):
    """Tabulate the preset rules of the module docstring into tables."""
    objects, arrows = tuple(objects), tuple(arrows)
    rules = FiniteGroupoid(objects, arrows, {g: src(g) for g in arrows},
                           {g: rng(g) for g in arrows}, {},
                           {g: inv(g) for g in arrows},
                           {x: unit(x) for x in objects})
    comp = {(g, h): mul(g, h) for (g, h) in rules.composable_pairs()}
    return FiniteGroupoid(objects, arrows, rules.src, rules.rng, comp,
                          rules.inv, rules.unit)


def cyclic_group_groupoid(order):
    """Cyclic group of the given order as a one-object groupoid."""
    n = int(order)
    return _from_rule(("x",), range(n), lambda g: "x", lambda g: "x",
                      lambda g: (-g) % n, lambda x: 0,
                      lambda g, h: (g + h) % n)


def pair_groupoid(points):
    """Pair groupoid: one arrow (i, j) from j to i for every pair."""
    pts = tuple(points)
    return _from_rule(pts, ((i, j) for i in pts for j in pts),
                      lambda g: g[1], lambda g: g[0], lambda g: g[::-1],
                      lambda i: (i, i), lambda g, h: (g[0], h[1]))


def space_groupoid(points):
    """Unit groupoid on a finite set: only identity arrows."""
    pts = tuple(points)
    return _from_rule(pts, pts, lambda x: x, lambda x: x, lambda x: x,
                      lambda x: x, lambda g, h: g)


def transformation_groupoid(order, action):
    """Action groupoid of the cyclic group Z/order on a finite set.

    action maps each point to its image under the generator; the arrow
    (k, x) runs from x to the k-fold image of x.
    """
    n = int(order)
    step = dict(action)
    pts = tuple(sorted(step.keys(), key=str))

    def act(k, x):
        for _ in range(k % n):
            x = step[x]
        return x

    bad = next((x for x in pts if act(n - 1, step[x]) != x), None)
    if bad is not None:
        raise ValueError(
            f"generator does not have order dividing {n}: point {bad!r}")
    return _from_rule(pts, ((k, x) for k in range(n) for x in pts),
                      lambda g: g[1], lambda g: act(*g),
                      lambda g: ((-g[0]) % n, act(*g)), lambda x: (0, x),
                      lambda g, h: ((g[0] + h[0]) % n, h[1]))


def transitive_groupoid(points, group_elements, mult, group_inv, group_unit):
    """Transitive groupoid: pair groupoid over points twisted by a group.

    The arrow (i, a, j) runs from j to i and carries group element a;
    composition multiplies the group parts.
    """
    pts, els = tuple(points), tuple(group_elements)
    return _from_rule(pts, ((i, a, j) for i in pts for a in els for j in pts),
                      lambda g: g[2], lambda g: g[0],
                      lambda g: (g[2], group_inv[g[1]], g[0]),
                      lambda i: (i, group_unit, i),
                      lambda g, h: (g[0], mult[(g[1], h[1])], h[2]))


def disjoint_union(*parts):
    """Disjoint union; labels are tagged with the part index."""
    def tagged(table):
        return lambda key: (key[0], getattr(parts[key[0]], table)[key[1]])

    return _from_rule(
        [(i, x) for i, gpd in enumerate(parts) for x in gpd.objects],
        [(i, g) for i, gpd in enumerate(parts) for g in gpd.arrows],
        tagged("src"), tagged("rng"), tagged("inv"), tagged("unit"),
        lambda g, h: (g[0], parts[g[0]].comp[(g[1], h[1])]))


def _as_points(value):
    if isinstance(value, int):
        if value < 1:
            raise ValueError(f"need at least one point, got {value}")
        return tuple(range(1, value + 1))
    pts = tuple(value)
    if not pts:
        raise ValueError("need at least one point")
    if len(set(pts)) != len(pts):
        raise ValueError(f"duplicate point in {pts!r}")
    return pts


def build_preset(name, **params):
    """Construct a named preset groupoid, rejecting malformed parameters."""
    if name == "group":
        n = int(params.get("order", 2))
        if n < 1:
            raise ValueError(f"group order must be positive, got {n}")
        return cyclic_group_groupoid(n)
    if name == "pair":
        return pair_groupoid(_as_points(params.get("points", 2)))
    if name == "space":
        return space_groupoid(_as_points(params.get("points", 2)))
    if name == "transformation":
        n = int(params["order"])
        if n < 1:
            raise ValueError(f"group order must be positive, got {n}")
        step = dict(params["action"])
        pts = set(step.keys())
        bad = next((x for x in sorted(pts, key=str)
                    if step[x] not in pts), None)
        if bad is not None:
            raise ValueError(f"action image of {bad!r} is not a point")
        if len(set(step.values())) != len(pts):
            raise ValueError("action is not injective")
        # transformation_groupoid checks that the order divides n
        return transformation_groupoid(n, step)
    raise ValueError(f"unknown preset {name!r}")


def fixture(name):
    """Named test fixtures; returns (groupoid, haar weights)."""
    if name == "Z2":
        g = cyclic_group_groupoid(2)
        return g, counting_weights(g)
    if name == "P2":
        g = pair_groupoid((1, 2))
        return g, counting_weights(g)
    if name == "X2":
        g = space_groupoid((1, 2))
        return g, counting_weights(g)
    if name == "T2":
        g = transformation_groupoid(2, {1: 2, 2: 1})
        return g, counting_weights(g)
    if name == "W2":
        g = pair_groupoid((1, 2))
        return g, {1: 1.0, 2: 4.0}
    raise ValueError(f"unknown fixture {name!r}")


FIXTURE_NAMES = ("Z2", "P2", "X2", "T2", "W2")


# ---------------------------------------------------------------------------
# JSON interchange

def groupoid_to_dict(gpd, weights=None):
    """Serializable dict; arrow and object labels become strings."""
    key = {g: str(g) for g in gpd.arrows}
    okey = {x: str(x) for x in gpd.objects}
    out = {
        "objects": sorted(okey.values()),
        "arrows": sorted(
            ({"id": key[g], "src": okey[gpd.src[g]], "rng": okey[gpd.rng[g]]}
             for g in gpd.arrows), key=lambda a: a["id"]),
        "inverse": {key[g]: key[gpd.inv[g]] for g in sorted(gpd.arrows, key=str)},
        "compose": sorted([key[g], key[h], key[k]]
                          for (g, h), k in gpd.comp.items()),
    }
    if weights is not None:
        out["haar"] = {okey[x]: float(weights[x]) for x in gpd.objects}
    return out


_LABEL = (str, int, float)
_KIND = {list: "a list", dict: "an object", int: "an integer",
         (int, float): "a number", _LABEL: "a string or number"}


def _json(value, kind, what):
    """value, which must be JSON of the given kind; what names it."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{what} must be {_KIND[kind]}, "
                         f"got {reprlib.repr(value)}")
    return value


def _field(data, key, kind, what, default=None):
    """data[key] checked by _json; what names the object data."""
    if key not in _json(data, dict, what):
        if default is None:
            raise ValueError(f'{what} has no "{key}"')
        return default
    return _json(data[key], kind, f'{what} "{key}"')


def _labels(values, what):
    """A JSON list or object of labels; what names it."""
    for k in values if isinstance(values, dict) else range(len(values)):
        _json(values[k], _LABEL, f"{what} [{k!r}]")
    return values


def _once(labels, what):
    """labels as a tuple; ValueError naming the first one listed twice."""
    seen = set()
    for y in labels:
        if y in seen:
            raise ValueError(f"the groupoid lists {what} {y!r} twice")
        seen.add(y)
    return tuple(labels)


def groupoid_from_dict(data):
    """Inverse of groupoid_to_dict; returns (groupoid, weights).

    Missing haar data means counting weights.  The unit table is derived
    from the composition table, so a malformed file fails validate().
    Raises ValueError for JSON of another shape, naming the key or
    entry, for a groupoid without objects, for an object or arrow listed
    twice, for an arrow entry without "id", "src" or "rng", and for haar
    data that misses an object.
    """
    what = "the groupoid"
    objects = _once(_labels(_field(data, "objects", list, what), "objects"),
                    "object")
    if not objects:
        raise ValueError("the groupoid has no objects")
    entries = _field(data, "arrows", list, what)
    for i, a in enumerate(entries):
        key = next((k for k in ("id", "src", "rng")
                    if k not in _json(a, dict, f"arrow entry {i}")), None)
        if key is not None:
            raise ValueError(f"arrow entry {i} ({a!r}) has no {key!r}")
        _labels({k: a[k] for k in ("id", "src", "rng")}, f"arrow entry {i}")
    arrows = _once([a["id"] for a in entries], "arrow")
    src = {a["id"]: a["src"] for a in entries}
    rng = {a["id"]: a["rng"] for a in entries}
    rows = _field(data, "compose", list, what, [])
    for i, row in enumerate(rows):
        name = f"compose row {i}"
        if len(_labels(_json(row, list, name), name)) != 3:
            raise ValueError(f"{name} is not [g, h, gh]: {row!r}")
    comp = {(g, h): k for (g, h, k) in rows}
    inv = _labels(_field(data, "inverse", dict, what, {}), "inverse")
    unit = {}
    for g in arrows:
        gi = inv.get(g)
        if gi is not None and (g, gi) in comp:
            unit.setdefault(rng.get(g), comp[(g, gi)])
    gpd = FiniteGroupoid(objects, arrows, src, rng, comp, inv, unit)
    if "haar" in data:
        weights = {x: float(_json(w, (int, float), f"haar weight of {x!r}"))
                   for x, w in _field(data, "haar", dict, what).items()}
        bad = next((x for x in objects if x not in weights), None)
        if bad is not None:
            raise ValueError(f"haar weights miss object {bad!r}")
    else:
        weights = counting_weights(gpd)
    return gpd, weights
