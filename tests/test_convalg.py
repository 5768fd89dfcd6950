"""Convolution algebra tests.

The W2 numbers were worked out by hand: with c(1)=1, c(2)=4 the product
delta_(1,2) * delta_(2,1) integrates over the single interior arrow with
weight c(2), giving 4 delta_(1,1).
"""

import json

import numpy as np
import pytest

from gcstar import cli
from gcstar.convalg import (_regular_blocks, _spectral_norms,
                            check_convolution, convolve, cstar_norm,
                            delta_function, fiber_sups, i_norm,
                            identity_element, star)
from gcstar.fingroupoid import FIXTURE_NAMES, fixture
from gcstar.sampling import SplitMix64, random_function
from test_arrow_codes import densify


def random_funcs(gpd, rng, count):
    return [random_function(rng, gpd) for _ in range(count)]


def _labels(gpd, f):
    """An arrow function as a label dict of Python complex values."""
    return dict(zip(gpd.arrows, f.tolist()))


def test_delta_function_is_a_unit_vector():
    gpd, _ = fixture("W2")
    f = delta_function(gpd, (1, 2))
    assert f.dtype == complex and f.shape == (len(gpd.arrows),)
    assert _labels(gpd, f) == {(1, 1): 0, (1, 2): 1, (2, 1): 0, (2, 2): 0}


def test_delta_convolution_w2():
    gpd, w = fixture("W2")
    out = _labels(gpd, convolve(gpd, w, delta_function(gpd, (1, 2)),
                                delta_function(gpd, (2, 1))))
    assert out[(1, 1)] == 4.0
    assert all(out[g] == 0.0 for g in gpd.arrows if g != (1, 1))


def test_algebra_product_table_matches_convolve(capsys):
    # each entry of the algebra payload's product table is delta_g *
    # delta_h, read off the composition table
    for name in (*FIXTURE_NAMES, "pair:3", "transformation:4"):
        argv = ["algebra", "--preset", name]
        assert cli.main(argv + ["--trials", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        gpd, w = cli.load_groupoid(cli.build_parser().parse_args(argv))
        names = {str(g): g for g in gpd.arrows}
        assert len(doc["product"]) == len(gpd.arrows) ** 2
        for g, h, entries in doc["product"]:
            conv = _labels(gpd, convolve(
                gpd, w, delta_function(gpd, names[g]),
                delta_function(gpd, names[h])))
            assert entries == {str(k): v.real for k, v in conv.items()
                               if v != 0}, (name, g, h)


def test_star_is_conjugate_inverse():
    gpd, w = fixture("W2")
    f = (2.0 + 1.0j) * delta_function(gpd, (1, 2))
    sf = _labels(gpd, star(gpd, f))
    assert sf[(2, 1)] == 2.0 - 1.0j
    assert sf[(1, 2)] == 0.0


def test_identity_element_w2():
    gpd, w = fixture("W2")
    ident = _labels(gpd, identity_element(gpd, w))
    assert ident[(1, 1)] == 1.0
    assert ident[(2, 2)] == 0.25
    assert ident[(1, 2)] == ident[(2, 1)] == 0.0
    f = delta_function(gpd, (1, 2))
    assert np.array_equal(convolve(gpd, w, identity_element(gpd, w), f), f)
    assert np.array_equal(convolve(gpd, w, f, identity_element(gpd, w)), f)


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
    f = np.ones(len(gpd.arrows), dtype=complex)
    f[gpd.arrows.index((2, 2))] = complex(np.nan, 0.0)
    sup_r, sup_s = fiber_sups(gpd, w, f)
    assert np.isnan(sup_r) and np.isnan(sup_s)
    assert np.isnan(i_norm(gpd, w, f))


def test_regular_matrix_delta_w2():
    # one 2 x 2 block per source fibre, {(1, 1), (2, 1)} and
    # {(1, 2), (2, 2)}, each arrow at its place in arrow order
    gpd, w = fixture("W2")
    c = np.array([w[x] for x in gpd.objects])
    blocks = _regular_blocks(gpd, c, delta_function(gpd, (1, 2))[None])[0]
    assert blocks.tolist() == [[[0, 4], [0, 0]], [[0, 4], [0, 0]]]
    idx = {g: i for i, g in enumerate(gpd.arrows)}
    want = np.zeros((4, 4), dtype=complex)
    want[idx[(1, 1)], idx[(2, 1)]] = 4.0
    want[idx[(1, 2)], idx[(2, 2)]] = 4.0
    assert np.array_equal(densify(gpd, blocks), want)


def test_cstar_norm_delta_w2():
    gpd, w = fixture("W2")
    # the rescaled matrix has a single entry sqrt(c(1)) * 4 / sqrt(c(2))
    assert cstar_norm(gpd, w, delta_function(gpd, (1, 2))) == \
        pytest.approx(2.0, abs=1e-12)


def test_cstar_norm_equality_case_z2():
    gpd, w = fixture("Z2")
    f = delta_function(gpd, 0) + delta_function(gpd, 1)
    assert i_norm(gpd, w, f) == 2.0
    assert cstar_norm(gpd, w, f) == pytest.approx(2.0, abs=1e-9)


def test_operator_norm_weighted():
    # on basis vectors of squared lengths 1 and 4, rescaling by the square
    # roots of the weights turns the entry into 1/2
    mat = np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
    norms = _spectral_norms(np.sqrt([1.0, 4.0]), mat)
    assert norms.tolist() == [pytest.approx(0.5, abs=1e-12)]


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
