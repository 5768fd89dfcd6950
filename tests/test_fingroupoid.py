import json

import pytest

from gcstar.cli import parse_preset
from gcstar.fingroupoid import (FIXTURE_NAMES, FiniteGroupoid, arrow_weights,
                                build_preset, counting_weights,
                                cyclic_group_groupoid, disjoint_union,
                                fixture, groupoid_from_dict, groupoid_to_dict,
                                object_weights, pair_groupoid,
                                space_groupoid, transformation_groupoid,
                                transitive_groupoid, validate_groupoid,
                                validate_haar)
from gcstar.sampling import SplitMix64, random_groupoid


def test_fixture_shapes():
    sizes = {"Z2": (1, 2), "P2": (2, 4), "X2": (2, 2),
             "T2": (2, 4), "W2": (2, 4)}
    for name in FIXTURE_NAMES:
        gpd, weights = fixture(name)
        assert (len(gpd.objects), len(gpd.arrows)) == sizes[name]
        assert validate_groupoid(gpd).ok
        assert validate_haar(gpd, arrow_weights(gpd, weights)).ok


def test_unknown_fixture():
    with pytest.raises(ValueError):
        fixture("Q17")


def test_cyclic_group_composition():
    gpd = cyclic_group_groupoid(4)
    assert gpd.comp[(3, 2)] == 1
    assert gpd.inv[3] == 1
    assert gpd.unit[gpd.objects[0]] == 0


def test_pair_groupoid_arrows():
    gpd = pair_groupoid((1, 2, 3))
    # arrow (i, j) points j -> i
    assert gpd.src[(1, 3)] == 3 and gpd.rng[(1, 3)] == 1
    assert gpd.comp[((1, 2), (2, 3))] == (1, 3)
    assert gpd.inv[(1, 3)] == (3, 1)
    assert len(gpd.arrows) == 9


def test_space_groupoid_is_units_only():
    gpd = space_groupoid((1, 2, 5))
    assert len(gpd.arrows) == 3
    for g in gpd.arrows:
        assert gpd.src[g] == gpd.rng[g]


def test_transformation_groupoid_swap():
    gpd = transformation_groupoid(2, {1: 2, 2: 1})
    assert len(gpd.arrows) == 4
    assert gpd.src[(1, 1)] == 1 and gpd.rng[(1, 1)] == 2
    assert gpd.comp[((1, 2), (1, 1))] == (0, 1)
    assert validate_groupoid(gpd).ok


def test_transformation_rejects_wrong_order():
    with pytest.raises(ValueError):
        transformation_groupoid(3, {1: 2, 2: 1})


def test_transitive_groupoid_counts():
    mult = {(a, b): (a + b) % 2 for a in (0, 1) for b in (0, 1)}
    gpd = transitive_groupoid((1, 2, 3), (0, 1), mult, {0: 0, 1: 1}, 0)
    # |points|^2 * isotropy order
    assert len(gpd.arrows) == 18
    assert validate_groupoid(gpd).ok


def test_disjoint_union():
    a = cyclic_group_groupoid(2)
    b = space_groupoid((1,))
    u = disjoint_union(a, b)
    assert len(u.objects) == 2
    assert len(u.arrows) == 3
    assert validate_groupoid(u).ok


def test_nerve_pair_count():
    gpd, _ = fixture("P2")
    # composable pairs of the pair groupoid on two points: 4 choices of
    # middle object path, 2 each side
    assert len(gpd.composable_pairs()) == 8
    z, _ = fixture("Z2")
    assert len(z.composable_pairs()) == 4


def test_nerve_vertex_routes_agree():
    for name in FIXTURE_NAMES:
        gpd, _ = fixture(name)
        for (g, h) in gpd.composable_pairs():
            gh = gpd.comp[(g, h)]
            assert gpd.rng[g] == gpd.rng[gh]
            assert gpd.src[g] == gpd.rng[h]
            assert gpd.src[h] == gpd.src[gh]


def test_validate_catches_broken_associativity():
    gpd, _ = fixture("Z2")
    comp = dict(gpd.comp)
    comp[(1, 1)] = 1  # should be 0
    broken = FiniteGroupoid(gpd.objects, gpd.arrows, gpd.src, gpd.rng,
                            comp, gpd.inv, gpd.unit)
    rep = validate_groupoid(broken)
    assert not rep.ok
    failed = {c.name for c in rep.failures()}
    assert failed & {"associativity", "unit-laws", "inverses"}


def test_validate_catches_missing_unit():
    gpd = FiniteGroupoid(("x",), ("g",), {"g": "x"}, {"g": "x"},
                         {("g", "g"): "g"}, {"g": "g"}, {})
    rep = validate_groupoid(gpd)
    assert not rep.ok
    assert rep.failures()[0].witness is not None


def test_haar_left_invariance_witness():
    gpd, weights = fixture("W2")
    aw = arrow_weights(gpd, weights)
    aw[(1, 2)] += 1.0
    rep = validate_haar(gpd, aw)
    assert not rep.ok
    failed = rep.failures()[0]
    assert failed.name == "left-invariance"
    assert failed.witness is not None


def test_haar_positivity():
    gpd, weights = fixture("P2")
    aw = arrow_weights(gpd, weights)
    aw[(1, 1)] = 0.0
    assert not validate_haar(gpd, aw).ok


@pytest.mark.parametrize("value", [float("inf"), float("nan"), -1.0])
def test_haar_weights_must_be_finite_and_positive(value):
    gpd, weights = fixture("P2")
    aw = arrow_weights(gpd, weights)
    aw[(1, 2)] = value
    rep = validate_haar(gpd, aw)
    assert [c.name for c in rep.failures()] == ["weight-positive"]
    assert rep.failures()[0].witness == (1, 2)


def test_arrow_and_object_weights_inverse():
    gpd, weights = fixture("W2")
    aw = arrow_weights(gpd, weights)
    assert aw[(1, 2)] == 4.0  # src is object 2
    assert aw[(2, 1)] == 1.0
    assert object_weights(gpd, aw) == weights


def test_serialization_round_trip():
    for name in FIXTURE_NAMES:
        gpd, weights = fixture(name)
        data = groupoid_to_dict(gpd, weights)
        blob = json.dumps(data, sort_keys=True)
        gpd2, weights2 = groupoid_from_dict(json.loads(blob))
        assert validate_groupoid(gpd2).ok
        assert validate_haar(gpd2, arrow_weights(gpd2, weights2)).ok
        assert len(gpd2.arrows) == len(gpd.arrows)
        data2 = groupoid_to_dict(gpd2, weights2)
        assert json.dumps(data2, sort_keys=True) == json.dumps(
            json.loads(json.dumps(data2)), sort_keys=True)


def test_from_dict_missing_haar_is_counting():
    gpd, weights = fixture("P2")
    data = groupoid_to_dict(gpd)
    gpd2, weights2 = groupoid_from_dict(data)
    assert set(weights2.values()) == {1.0}


def test_from_dict_haar_missing_object():
    gpd, weights = fixture("W2")
    data = groupoid_to_dict(gpd, weights)
    del data["haar"]["1"]
    with pytest.raises(ValueError, match="haar weights miss object '1'"):
        groupoid_from_dict(data)


@pytest.mark.parametrize("key", ["id", "src", "rng"])
def test_from_dict_arrow_entry_missing_key(key):
    gpd, weights = fixture("P2")
    data = groupoid_to_dict(gpd, weights)
    del data["arrows"][2][key]
    with pytest.raises(ValueError, match=f"arrow entry 2 .* has no '{key}'"):
        groupoid_from_dict(data)


def test_from_dict_empty_groupoid():
    data = {"objects": [], "arrows": [], "inverse": {}, "compose": []}
    with pytest.raises(ValueError, match="no objects"):
        groupoid_from_dict(data)


def test_build_preset_validation():
    gpd = build_preset("group", order=3)
    assert len(gpd.arrows) == 3
    with pytest.raises(ValueError):
        build_preset("group", order=0)
    with pytest.raises(ValueError):
        build_preset("transformation", order=2, action={1: 1, 2: 1})


def test_orbits():
    a = pair_groupoid((1, 2))
    b = space_groupoid((9,))
    u = disjoint_union(a, b)
    orbits = u.orbits()
    assert len(orbits) == 2


@pytest.mark.parametrize("name", FIXTURE_NAMES
                         + ("pair:4", "transformation:4", "random"))
def test_composable_walks_match_full_scan(name):
    if name in FIXTURE_NAMES:
        gpd, _ = fixture(name)
    elif name == "random":
        gpd, _ = random_groupoid(SplitMix64(41))
    else:
        gpd, _ = parse_preset(name)
    a, src, rng = gpd.arrows, gpd.src, gpd.rng
    pairs = tuple((g, h) for g in a for h in a if src[g] == rng[h])
    triples = tuple((g, h, k) for g in a for h in a for k in a
                    if src[g] == rng[h] and src[h] == rng[k])
    assert gpd.composable_pairs() == pairs
    assert gpd.composable_triples() == triples
