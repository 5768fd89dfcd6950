"""Convolution algebra tests.

The W2 numbers were worked out by hand: with c(1)=1, c(2)=4 the product
delta_(1,2) * delta_(2,1) integrates over the single interior arrow with
weight c(2), giving 4 delta_(1,1).
"""

import numpy as np
import pytest

from gcstar.convalg import (check_convolution, convolve, cstar_norm,
                            delta_function, delta_product, fiber_sups,
                            i_norm, identity_element, operator_norm,
                            regular_matrix, star, zero_function)
from gcstar.fingroupoid import FIXTURE_NAMES, fixture
from gcstar.hilbmod import ModuleMap, module_from_dims
from gcstar.sampling import SplitMix64


def random_funcs(gpd, rng, count):
    return [{g: rng.cgauss() for g in gpd.arrows} for _ in range(count)]


def test_delta_convolution_w2():
    gpd, w = fixture("W2")
    out = convolve(gpd, w, delta_function(gpd, (1, 2)),
                   delta_function(gpd, (2, 1)))
    assert out[(1, 1)] == 4.0
    assert all(out[g] == 0.0 for g in gpd.arrows if g != (1, 1))


def test_delta_product_matches_convolve():
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        for g in gpd.arrows:
            for h in gpd.arrows:
                direct = delta_product(gpd, w, g, h)
                conv = convolve(gpd, w, delta_function(gpd, g),
                                delta_function(gpd, h))
                assert direct == conv


def test_star_is_conjugate_inverse():
    gpd, w = fixture("W2")
    f = zero_function(gpd)
    f[(1, 2)] = 2.0 + 1.0j
    sf = star(gpd, f)
    assert sf[(2, 1)] == 2.0 - 1.0j
    assert sf[(1, 2)] == 0.0


def test_identity_element_w2():
    gpd, w = fixture("W2")
    ident = identity_element(gpd, w)
    assert ident[(1, 1)] == 1.0
    assert ident[(2, 2)] == 0.25
    f = delta_function(gpd, (1, 2))
    assert convolve(gpd, w, ident, f) == f
    assert convolve(gpd, w, f, ident) == f


def test_fiber_sups_and_i_norm_w2():
    gpd, w = fixture("W2")
    f = delta_function(gpd, (1, 2))
    sup_r, sup_s = fiber_sups(gpd, w, f)
    assert sup_r == 4.0   # c(src) mass lands on the range fiber of 1
    assert sup_s == 1.0
    assert i_norm(gpd, w, f) == 4.0


def test_fiber_sups_and_i_norm_keep_nan():
    # the NaN sits on object 2, the second fibre on both sides, where a
    # plain max() would step over it and return 2.0
    gpd, w = fixture("P2")
    f = {g: 1.0 + 0.0j for g in gpd.arrows}
    f[(2, 2)] = complex(np.nan, 0.0)
    sup_r, sup_s = fiber_sups(gpd, w, f)
    assert np.isnan(sup_r) and np.isnan(sup_s)
    assert np.isnan(i_norm(gpd, w, f))


def test_regular_matrix_delta_w2():
    gpd, w = fixture("W2")
    m = regular_matrix(gpd, w, delta_function(gpd, (1, 2)))
    idx = m.source.index
    want = np.zeros((4, 4), dtype=complex)
    want[idx[(1, 1)], idx[(2, 1)]] = 4.0
    want[idx[(1, 2)], idx[(2, 2)]] = 4.0
    assert np.array_equal(m.matrix, want)


def test_cstar_norm_delta_w2():
    gpd, w = fixture("W2")
    # the rescaled matrix has a single entry sqrt(c(1)) * 4 / sqrt(c(2))
    assert cstar_norm(gpd, w, delta_function(gpd, (1, 2))) == \
        pytest.approx(2.0, abs=1e-12)


def test_cstar_norm_equality_case_z2():
    gpd, w = fixture("Z2")
    f = zero_function(gpd)
    f[0] = 1.0
    f[1] = 1.0
    assert i_norm(gpd, w, f) == 2.0
    assert cstar_norm(gpd, w, f) == pytest.approx(2.0, abs=1e-9)


def test_operator_norm_weighted():
    sp = module_from_dims(("x",), ("w",), {("x", "w"): 2})
    weighted = type(sp)(sp.basis, sp.left, sp.right,
                        {sp.basis[0]: 1.0, sp.basis[1]: 4.0},
                        left_space=sp.left_space,
                        right_space=sp.right_space)
    m = ModuleMap(weighted, weighted,
                  np.array([[0.0, 1.0], [0.0, 0.0]]))
    # rescaling by the weights turns the entry into 1/2
    assert operator_norm(m) == pytest.approx(0.5, abs=1e-12)


def test_check_convolution_fixtures():
    rng = SplitMix64(7)
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        rep = check_convolution(gpd, w, random_funcs(gpd, rng, 6))
        assert rep.ok, f"{name}: {rep}"


def test_norm_bound_random():
    rng = SplitMix64(11)
    gpd, w = fixture("P2")
    for f in random_funcs(gpd, rng, 20):
        assert cstar_norm(gpd, w, f) <= i_norm(gpd, w, f) + 1e-9
