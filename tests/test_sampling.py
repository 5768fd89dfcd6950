"""Deterministic sampling tests.

The seed-0 outputs are the published splitmix64 reference sequence, so
the generator is checked against an external source, not against
itself.
"""

import numpy as np
import pytest

from gcstar.cli import parse_preset
from gcstar.fingroupoid import (FIXTURE_NAMES, arrow_weights, build_preset,
                                fixture, validate_groupoid, validate_haar)
from gcstar.sampling import (SplitMix64, haar_unitary, mutate_groupoid,
                             random_cocycle, random_function,
                             random_groupoid)

SEED0_REFERENCE = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                   0x06C45D188009454F)


def test_splitmix_reference_vector():
    rng = SplitMix64(0)
    for want in SEED0_REFERENCE:
        assert rng.next_u64() == want


def test_splitmix_determinism():
    a = SplitMix64(41)
    b = SplitMix64(41)
    assert [a.next_u64() for _ in range(10)] == \
        [b.next_u64() for _ in range(10)]
    c = SplitMix64(42)
    assert a.next_u64() != c.next_u64()


def test_uniform_range():
    rng = SplitMix64(3)
    for _ in range(1000):
        u = rng.uniform()
        assert 0.0 <= u < 1.0


def test_haar_unitary_is_unitary():
    rng = SplitMix64(5)
    for n in (1, 2, 4, 7):
        q = haar_unitary(rng, n)
        assert np.max(np.abs(q.conj().T @ q - np.eye(n))) <= 1e-12


def test_random_groupoids_validate():
    rng = SplitMix64(6)
    for _ in range(50):
        gpd, weights = random_groupoid(rng)
        assert validate_groupoid(gpd).ok
        assert len(gpd.arrows) <= 12
        assert all(w > 0 for w in weights.values())
        assert validate_haar(gpd, arrow_weights(gpd, weights)).ok


def test_random_groupoid_reproducible():
    g1, w1 = random_groupoid(SplitMix64(77))
    g2, w2 = random_groupoid(SplitMix64(77))
    assert g1.arrows == g2.arrows
    assert g1.comp == g2.comp
    assert w1 == w2


def test_mutations_break_what_they_claim():
    rng = SplitMix64(8)
    seen = set()
    for name in FIXTURE_NAMES:
        gpd, weights = fixture(name)
        for _ in range(20):
            cand, warr, kind = mutate_groupoid(rng, gpd, weights)
            seen.add(kind)
            if kind.startswith("groupoid:"):
                assert not validate_groupoid(cand).ok, kind
            else:
                assert validate_groupoid(cand).ok, kind
                assert not validate_haar(cand, warr).ok, kind
    assert len(seen) >= 5


def test_random_cocycle_multiplicative():
    rng = SplitMix64(9)
    for name in ("Z2", "P2", "T2"):
        gpd, weights = fixture(name)
        module, blocks = random_cocycle(rng, gpd, weights, coeff_size=2)
        for g in gpd.arrows:
            b = blocks[g]
            assert np.max(np.abs(b.conj().T @ b
                                 - np.eye(b.shape[1]))) <= 1e-12
        for (g, h) in gpd.composable_pairs():
            gh = gpd.comp[(g, h)]
            assert np.max(np.abs(blocks[gh]
                                 - blocks[g] @ blocks[h])) <= 1e-10
        for x in gpd.objects:
            b = blocks[gpd.unit[x]]
            assert np.max(np.abs(b - np.eye(b.shape[0]))) <= 1e-12


@pytest.mark.parametrize("name", ["W2", "pair:3", "transformation:4"])
def test_random_cocycle_blocks_follow_the_arrows(name):
    gpd, weights = parse_preset(name)
    module, blocks = random_cocycle(SplitMix64(12), gpd, weights,
                                    coeff_size=2)
    # the fibre sizes of the module, in object order
    fibre = np.bincount(module.left_codes)[
        [module.left_space.index(x) for x in gpd.objects]]
    t = gpd.codes
    assert list(blocks) == list(gpd.arrows)
    assert [b.shape for b in blocks.values()] == list(
        zip(fibre[t.rng].tolist(), fibre[t.src].tolist()))


def test_random_cocycle_dims_constant_on_orbits():
    rng = SplitMix64(10)
    gpd, weights = fixture("P2")
    module, blocks = random_cocycle(rng, gpd, weights, coeff_size=3)
    for w in (0, 1, 2):
        at = module.right_codes == module.right_space.index(w)
        sizes = {int(np.count_nonzero(
            at & (module.left_codes == module.left_space.index(x))))
            for x in gpd.objects}
        assert len(sizes) == 1


@pytest.mark.parametrize("seed", [1729, 1, 2, 3])
def test_random_function_keeps_its_stream(seed):
    # the benchmark draws its arrow functions through random_function,
    # so its instances stay those of the label-dict draws
    for gpd in (fixture("W2")[0], build_preset("pair", points=3),
                random_groupoid(SplitMix64(17))[0]):
        rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
        for _ in range(2):
            f = random_function(rng, gpd)
            ref = {g: ref_rng.cgauss() for g in gpd.arrows}
            assert f.dtype == complex and f.shape == (len(gpd.arrows),)
            assert f.tobytes() == np.array(
                [ref[g] for g in gpd.arrows], dtype=complex).tobytes()
        assert rng.cgauss() == ref_rng.cgauss()
