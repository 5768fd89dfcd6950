"""Finite groupoids as explicit arrow tables.

A groupoid is stored as finite sets of object and arrow labels together
with source/range maps, a partial composition table, an inverse table and
a unit arrow per object.  Every axiom is a finite enumeration, so
validation returns an exact witness for any breakage.
"""

from __future__ import annotations

import math

from .report import Report


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

    def composable_triples(self):
        """Triples (g, h, k) of composable pairs, in the order of pairs."""
        return tuple((g, h, k) for g in self.arrows
                     for h in self.arrows_into(self.src[g])
                     for k in self.arrows_into(self.src[h]))

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


class Nerve:
    """Composable pairs with their face and vertex maps.

    For a pair (g, h): d0 = h, d1 = gh, d2 = g; the vertices are
    v0 = rng(g), v1 = src(g) = rng(h), v2 = src(h).  Construction
    re-derives each vertex along every face and raises if the two
    routes to it disagree, so a Nerve only exists for consistent data.
    """

    def __init__(self, gpd):
        self.groupoid = gpd
        self.pairs = gpd.composable_pairs()
        self.d0 = {p: p[1] for p in self.pairs}
        self.d2 = {p: p[0] for p in self.pairs}
        self.d1 = {p: gpd.comp[p] for p in self.pairs}
        self.v0 = {p: gpd.rng[p[0]] for p in self.pairs}
        self.v1 = {p: gpd.src[p[0]] for p in self.pairs}
        self.v2 = {p: gpd.src[p[1]] for p in self.pairs}
        for p in self.pairs:
            ok = (gpd.rng[self.d1[p]] == self.v0[p]
                  and gpd.rng[self.d2[p]] == self.v0[p]
                  and gpd.rng[self.d0[p]] == self.v1[p]
                  and gpd.src[self.d2[p]] == self.v1[p]
                  and gpd.src[self.d0[p]] == self.v2[p]
                  and gpd.src[self.d1[p]] == self.v2[p])
            if not ok:
                raise ValueError(f"inconsistent nerve data at pair {p!r}")


def nerve(gpd):
    return Nerve(gpd)


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

    pairs = set(gpd.composable_pairs())
    keys = set(gpd.comp.keys())
    extra = next(iter(keys - pairs), None)
    missing = next(iter(pairs - keys), None)
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
        for (g, h, k) in gpd.composable_triples():
            if gpd.comp[(gpd.comp[(g, h)], k)] != gpd.comp[(g, gpd.comp[(h, k)])]:
                bad = (g, h, k)
                break
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

    weight maps every arrow to a finite positive number; left invariance says
    weight(gh) == weight(h) for every composable pair, compared exactly.
    A valid system is determined by its values on units, which is what
    object_weights() extracts.
    """
    rep = Report("haar weights")
    bad = next((g for g in gpd.arrows if g not in weight), None)
    rep.add("weight-total", bad is None, witness=bad)
    if not rep.ok:
        return rep
    bad = next((g for g in gpd.arrows
                if not (0.0 < float(weight[g]) < math.inf)), None)
    rep.add("weight-positive", bad is None, witness=bad)
    if not rep.ok:
        return rep
    bad, defect = None, 0.0
    for (g, h) in gpd.composable_pairs():
        gh = gpd.comp[(g, h)]
        if float(weight[gh]) != float(weight[h]):
            bad = (g, h)
            defect = abs(float(weight[gh]) - float(weight[h]))
            break
    rep.add("left-invariance", bad is None, defect=defect, witness=bad)
    return rep


def counting_weights(gpd):
    return {x: 1.0 for x in gpd.objects}


def arrow_weights(gpd, objweights):
    """Arrow weight system induced by object weights: g -> c(src(g))."""
    return {g: float(objweights[gpd.src[g]]) for g in gpd.arrows}


def object_weights(gpd, weight):
    """Object weights read off a left invariant arrow system at the units."""
    return {x: float(weight[gpd.unit[x]]) for x in gpd.objects}


# ---------------------------------------------------------------------------
# presets and fixtures

def cyclic_group_groupoid(order):
    """Cyclic group of the given order as a one-object groupoid."""
    n = int(order)
    objects = ("x",)
    arrows = tuple(range(n))
    src = {g: "x" for g in arrows}
    rng = dict(src)
    comp = {(g, h): (g + h) % n for g in arrows for h in arrows}
    inv = {g: (-g) % n for g in arrows}
    return FiniteGroupoid(objects, arrows, src, rng, comp, inv, {"x": 0})


def pair_groupoid(points):
    """Pair groupoid: one arrow (i, j) from j to i for every pair."""
    pts = tuple(points)
    arrows = tuple((i, j) for i in pts for j in pts)
    src = {(i, j): j for (i, j) in arrows}
    rng = {(i, j): i for (i, j) in arrows}
    comp = {((i, j), (j2, k)): (i, k)
            for (i, j) in arrows for (j2, k) in arrows if j == j2}
    inv = {(i, j): (j, i) for (i, j) in arrows}
    unit = {i: (i, i) for i in pts}
    return FiniteGroupoid(pts, arrows, src, rng, comp, inv, unit)


def space_groupoid(points):
    """Unit groupoid on a finite set: only identity arrows."""
    pts = tuple(points)
    src = {x: x for x in pts}
    comp = {(x, x): x for x in pts}
    return FiniteGroupoid(pts, pts, src, dict(src), comp,
                          dict(src), dict(src))


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
    arrows = tuple((k, x) for k in range(n) for x in pts)
    src = {(k, x): x for (k, x) in arrows}
    rng = {(k, x): act(k, x) for (k, x) in arrows}
    comp = {}
    for (k1, x1) in arrows:
        for (k2, x2) in arrows:
            if x1 == act(k2, x2):
                comp[((k1, x1), (k2, x2))] = ((k1 + k2) % n, x2)
    inv = {(k, x): ((-k) % n, act(k, x)) for (k, x) in arrows}
    unit = {x: (0, x) for x in pts}
    return FiniteGroupoid(pts, arrows, src, rng, comp, inv, unit)


def transitive_groupoid(points, group_elements, mult, group_inv, group_unit):
    """Transitive groupoid: pair groupoid over points twisted by a group.

    The arrow (i, a, j) runs from j to i and carries group element a;
    composition multiplies the group parts.
    """
    pts = tuple(points)
    els = tuple(group_elements)
    arrows = tuple((i, a, j) for i in pts for a in els for j in pts)
    src = {(i, a, j): j for (i, a, j) in arrows}
    rng = {(i, a, j): i for (i, a, j) in arrows}
    comp = {}
    for (i, a, j) in arrows:
        for (j2, b, k) in arrows:
            if j == j2:
                comp[((i, a, j), (j2, b, k))] = (i, mult[(a, b)], k)
    inv = {(i, a, j): (j, group_inv[a], i) for (i, a, j) in arrows}
    unit = {i: (i, group_unit, i) for i in pts}
    return FiniteGroupoid(pts, arrows, src, rng, comp, inv, unit)


def disjoint_union(*parts):
    """Disjoint union; labels are tagged with the part index."""
    objects, arrows, src, rng, comp, inv, unit = [], [], {}, {}, {}, {}, {}
    for idx, gpd in enumerate(parts):
        objects.extend((idx, x) for x in gpd.objects)
        arrows.extend((idx, g) for g in gpd.arrows)
        for g in gpd.arrows:
            src[(idx, g)] = (idx, gpd.src[g])
            rng[(idx, g)] = (idx, gpd.rng[g])
            inv[(idx, g)] = (idx, gpd.inv[g])
        for (g, h), k in gpd.comp.items():
            comp[((idx, g), (idx, h))] = (idx, k)
        for x, u in gpd.unit.items():
            unit[(idx, x)] = (idx, u)
    return FiniteGroupoid(objects, arrows, src, rng, comp, inv, unit)


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
    if name == "disjoint_union":
        specs = params["parts"]
        if not specs:
            raise ValueError("disjoint union of nothing")
        return disjoint_union(*(build_preset(k, **(p or {}))
                                for (k, p) in specs))
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


def groupoid_from_dict(data):
    """Inverse of groupoid_to_dict; returns (groupoid, weights).

    Missing haar data means counting weights.  The unit table is derived
    from the composition table, so a malformed file fails validate().
    Raises ValueError for a groupoid without objects, for an arrow
    entry without "id", "src" or "rng", and for haar data that misses
    an object.
    """
    objects = tuple(data["objects"])
    if not objects:
        raise ValueError("the groupoid has no objects")
    for i, a in enumerate(data["arrows"]):
        key = next((k for k in ("id", "src", "rng") if k not in a), None)
        if key is not None:
            raise ValueError(f"arrow entry {i} ({a!r}) has no {key!r}")
    arrows = tuple(a["id"] for a in data["arrows"])
    src = {a["id"]: a["src"] for a in data["arrows"]}
    rng = {a["id"]: a["rng"] for a in data["arrows"]}
    comp = {(g, h): k for (g, h, k) in data.get("compose", [])}
    inv = dict(data.get("inverse", {}))
    unit = {}
    for g in arrows:
        gi = inv.get(g)
        if gi is not None and (g, gi) in comp:
            unit.setdefault(rng.get(g), comp[(g, gi)])
    gpd = FiniteGroupoid(objects, arrows, src, rng, comp, inv, unit)
    if "haar" in data:
        weights = {x: float(w) for x, w in data["haar"].items()}
        bad = next((x for x in objects if x not in weights), None)
        if bad is not None:
            raise ValueError(f"haar weights miss object {bad!r}")
    else:
        weights = counting_weights(gpd)
    return gpd, weights
