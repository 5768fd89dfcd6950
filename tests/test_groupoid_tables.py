"""Groupoid tables built from a product rule against the old loops.

The reference below is the preset code that the one rule builder
replaced, kept verbatim apart from names: each builder filled its
composition table with its own loop, four of them over all arrow pairs,
and random_groupoid also tested that both ends of a pair lie in one
piece.  Every test requires the new groupoid to match its reference
table for table, dict order included, so that no witness, JSON output
or random stream moves.
"""

import pytest

from gcstar.cli import _shift, parse_preset
from gcstar.fingroupoid import (FiniteGroupoid, disjoint_union,
                                transformation_groupoid, transitive_groupoid)
from gcstar.sampling import SplitMix64, random_groupoid


# ---------------------------------------------------------------------------
# reference: the old builders

def ref_cyclic(order):
    n = int(order)
    objects = ("x",)
    arrows = tuple(range(n))
    src = {g: "x" for g in arrows}
    rng = dict(src)
    comp = {(g, h): (g + h) % n for g in arrows for h in arrows}
    inv = {g: (-g) % n for g in arrows}
    return FiniteGroupoid(objects, arrows, src, rng, comp, inv, {"x": 0})


def ref_pair(points):
    pts = tuple(points)
    arrows = tuple((i, j) for i in pts for j in pts)
    src = {(i, j): j for (i, j) in arrows}
    rng = {(i, j): i for (i, j) in arrows}
    comp = {((i, j), (j2, k)): (i, k)
            for (i, j) in arrows for (j2, k) in arrows if j == j2}
    inv = {(i, j): (j, i) for (i, j) in arrows}
    unit = {i: (i, i) for i in pts}
    return FiniteGroupoid(pts, arrows, src, rng, comp, inv, unit)


def ref_space(points):
    pts = tuple(points)
    src = {x: x for x in pts}
    comp = {(x, x): x for x in pts}
    return FiniteGroupoid(pts, pts, src, dict(src), comp,
                          dict(src), dict(src))


def ref_transformation(order, action):
    n = int(order)
    step = dict(action)
    pts = tuple(sorted(step.keys(), key=str))

    def act(k, x):
        for _ in range(k % n):
            x = step[x]
        return x

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


def ref_transitive(points, group_elements, mult, group_inv, group_unit):
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


def ref_disjoint_union(*parts):
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


def ref_random_groupoid(rng, max_objects=4, max_arrows=12):
    n_obj = 1 + rng.randint(max_objects)
    labels = list(range(1, n_obj + 1))
    budget = max_arrows
    pieces = []
    remaining = list(labels)
    while remaining:
        spare = len(remaining)
        top = 1
        while (top + 1) ** 2 + (spare - top - 1) <= budget \
                and top + 1 <= spare:
            top += 1
        size = 1 + rng.randint(top)
        max_iso = max(1, (budget - (spare - size)) // (size * size))
        iso = 1 + rng.randint(min(max_iso, 4))
        pts = tuple(remaining[:size])
        remaining = remaining[size:]
        budget -= size * size * iso
        pieces.append((pts, iso))

    orbit_of, iso_of = {}, {}
    for pts, iso in pieces:
        for x in pts:
            orbit_of[x] = pts
            iso_of[x] = iso
    arrows = tuple((i, k, j)
                   for pts, iso in pieces
                   for i in pts for k in range(iso) for j in pts)
    src = {(i, k, j): j for (i, k, j) in arrows}
    rng_map = {(i, k, j): i for (i, k, j) in arrows}
    comp = {}
    for (i, k, j) in arrows:
        for (j2, k2, l) in arrows:
            if j == j2 and orbit_of[i] == orbit_of[l]:
                comp[((i, k, j), (j2, k2, l))] = \
                    (i, (k + k2) % iso_of[i], l)
    inv = {(i, k, j): (j, (-k) % iso_of[i], i) for (i, k, j) in arrows}
    unit = {x: (x, 0, x) for x in labels}
    gpd = FiniteGroupoid(labels, arrows, src, rng_map, comp, inv, unit)
    weights = {x: 0.25 * (1 + rng.randint(15)) for x in labels}
    return gpd, weights


# ---------------------------------------------------------------------------
# parity

def tables(gpd):
    """Every table of a groupoid; dicts as item lists, so order counts."""
    return (gpd.objects, gpd.arrows,
            list(gpd.src.items()), list(gpd.rng.items()),
            list(gpd.inv.items()), list(gpd.unit.items()),
            list(gpd.comp.items()))


SIZED = ([(f"group:{n}", ref_cyclic(n)) for n in range(1, 9)]
         + [(f"pair:{n}", ref_pair(range(1, n + 1))) for n in range(1, 6)]
         + [(f"space:{n}", ref_space(range(1, n + 1))) for n in range(1, 5)]
         + [(f"transformation:{n}", ref_transformation(n, _shift(n)))
            for n in range(1, 9)])


@pytest.mark.parametrize("name,ref", SIZED, ids=[n for n, _ in SIZED])
def test_sized_presets_match_old_loops(name, ref):
    gpd, _ = parse_preset(name)
    assert tables(gpd) == tables(ref)


def test_action_with_a_fixed_point_matches_old_loop():
    # 3 is fixed, so Z/2 does not act freely
    action = {1: 2, 2: 1, 3: 3}
    assert (tables(transformation_groupoid(2, action))
            == tables(ref_transformation(2, action)))


def test_transitive_groupoid_matches_old_loop():
    args = ((1, 2), range(3), {(a, b): (a + b) % 3
                               for a in range(3) for b in range(3)},
            {a: (-a) % 3 for a in range(3)}, 0)
    assert tables(transitive_groupoid(*args)) == tables(ref_transitive(*args))


def test_disjoint_union_matches_old_loop():
    parts = [parse_preset(name)[0]
             for name in ("pair:2", "group:3", "transformation:3", "space:1")]
    assert tables(disjoint_union(*parts)) == tables(ref_disjoint_union(*parts))


@pytest.mark.parametrize("sizes", [(), (6, 36)])
def test_random_groupoids_match_old_loop(sizes):
    for seed in range(51):
        rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
        gpd, weights = random_groupoid(rng, *sizes)
        ref, ref_weights = ref_random_groupoid(ref_rng, *sizes)
        assert tables(gpd) == tables(ref), seed
        assert list(weights.items()) == list(ref_weights.items()), seed
        assert rng.state == ref_rng.state, seed
