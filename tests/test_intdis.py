"""Integration and disintegration tests.

Closed forms used below, worked out by hand for the pair groupoid
with weights c: integrating the delta at (1, 2) against the trivial
one dimensional cocycle gives the single matrix entry c(2) *
sqrt(c(1)/c(2)) = 2 for c = (1, 4), and the source side pair inner
product of two indicator pairs (x0, h0), (x1, h1) is [x0 == x1] *
c(rng x0) * c(rng h0) at the arrow k = inverse(h0) h1.
"""

import numpy as np
import pytest

from gcstar.convalg import cstar_norm, i_norm, operator_norm, zero_function
from gcstar.fingroupoid import FIXTURE_NAMES, fixture
from gcstar.hilbmod import ModuleMap, module_from_dims
from gcstar.intdis import (ConvRep, PreRepresentation, check_conv_rep,
                           check_integrated_intertwiner, check_integration,
                           check_pair_exchange, conv_rep_of, disintegrate,
                           extend_prerep, integrate_rep, integration_bound,
                           oracle_integrate, pair_inner_r, pair_inner_s,
                           roundtrip_conv, roundtrip_rep, upsilon)
from gcstar.report import VerificationError
from gcstar.reps import from_cocycle, regular_representation
from gcstar.sampling import SplitMix64, random_cocycle


def trivial_rep(gpd, weights):
    dims = {(x, "w"): 1 for x in gpd.objects}
    module = module_from_dims(gpd.objects, ("w",), dims)
    return from_cocycle(gpd, weights, module,
                        {g: np.eye(1, dtype=complex) for g in gpd.arrows})


def rand_funcs(gpd, rng, count):
    return [{g: rng.cgauss() for g in gpd.arrows} for _ in range(count)]


def test_integrated_delta_w2():
    gpd, w = fixture("W2")
    rep = trivial_rep(gpd, w)
    f = zero_function(gpd)
    f[(1, 2)] = 1.0
    out = integrate_rep(rep, f)
    want = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    assert np.max(np.abs(out.matrix - want)) <= 1e-14
    ora = oracle_integrate(rep, f)
    assert np.array_equal(ora.matrix, want)


def test_integration_bound_w2_delta():
    gpd, w = fixture("W2")
    f = zero_function(gpd)
    f[(1, 2)] = 1.0
    assert integration_bound(gpd, w, f) == 2.0
    assert cstar_norm(gpd, w, f) == pytest.approx(2.0, abs=1e-12)


def test_equality_case_z2():
    gpd, w = fixture("Z2")
    f = {0: 1.0 + 0.0j, 1: 1.0 + 0.0j}
    rep = trivial_rep(gpd, w)
    norm = operator_norm(integrate_rep(rep, f))
    assert norm == pytest.approx(2.0, abs=1e-9)
    assert integration_bound(gpd, w, f) == 2.0
    assert i_norm(gpd, w, f) == 2.0


def test_check_integration_random_reps():
    rng = SplitMix64(31)
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        module, blocks = random_cocycle(rng, gpd, w)
        rep = from_cocycle(gpd, w, module, blocks)
        out = check_integration(rep, rand_funcs(gpd, rng, 8))
        assert out.ok, f"{name}: {out}"


def test_conv_rep_axioms():
    rng = SplitMix64(32)
    gpd, w = fixture("W2")
    module, blocks = random_cocycle(rng, gpd, w, coeff_size=2)
    conv = conv_rep_of(from_cocycle(gpd, w, module, blocks))
    out = check_conv_rep(conv, rand_funcs(gpd, rng, 6))
    assert out.ok, str(out)


def test_conv_rep_shape_guard():
    gpd, w = fixture("Z2")
    space = module_from_dims(gpd.objects, ("w",), {("x", "w"): 2})
    with pytest.raises(ValueError):
        ConvRep(gpd, w, space, {0: np.eye(2), 1: np.eye(3)})


def test_integrated_intertwiner_identity():
    rng = SplitMix64(33)
    gpd, w = fixture("P2")
    module, blocks = random_cocycle(rng, gpd, w)
    conv = conv_rep_of(from_cocycle(gpd, w, module, blocks))
    ok, worst = check_integrated_intertwiner(
        conv, conv, np.eye(module.dim))
    assert ok and worst == 0.0


def test_integrated_intertwiner_random_fails():
    rng = SplitMix64(34)
    gpd, w = fixture("P2")
    module, blocks = random_cocycle(rng, gpd, w, max_dim=2)
    conv = conv_rep_of(from_cocycle(gpd, w, module, blocks))
    # generic matrices do not commute with the off-diagonal shifts
    bad = np.array([[rng.cgauss() for _ in range(module.dim)]
                    for _ in range(module.dim)])
    ok, worst = check_integrated_intertwiner(conv, conv, bad)
    assert not ok and worst > 1e-6


def test_pair_inner_closed_form_w2():
    gpd, w = fixture("W2")
    pairs = gpd.composable_pairs()
    big1 = {p: 0.0 for p in pairs}
    big2 = {p: 0.0 for p in pairs}
    big1[((1, 2), (2, 1))] = 1.0
    big2[((1, 2), (2, 2))] = 1.0
    out = pair_inner_s(gpd, w, big1, big2)
    # k = inverse((2,1)) (2,2) = (1,2); value c(rng (1,2)) c(rng (2,1))
    assert out[(1, 2)] == 4.0
    assert all(out[k] == 0.0 for k in gpd.arrows if k != (1, 2))


def test_upsilon_substitution():
    gpd, w = fixture("W2")
    pairs = gpd.composable_pairs()
    big = {p: 0.0 for p in pairs}
    big[((1, 2), (2, 1))] = 1.0
    up = upsilon(gpd, big)
    assert up[((1, 2), (1, 1))] == 1.0
    total = sum(abs(v) for v in up.values())
    assert total == 1.0


def test_pair_exchange_random():
    rng = SplitMix64(35)
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        pairs = gpd.composable_pairs()
        funcs = [{p: rng.cgauss() for p in pairs} for _ in range(6)]
        out = check_pair_exchange(gpd, w, funcs)
        assert out.ok, f"{name}: {out}"


def test_roundtrip_rep_random():
    rng = SplitMix64(36)
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        module, blocks = random_cocycle(rng, gpd, w, coeff_size=2)
        rep = from_cocycle(gpd, w, module, blocks)
        out = roundtrip_rep(rep)
        assert out.ok, f"{name}: {out}"


def test_roundtrip_conv_regular():
    for name in ("Z2", "W2"):
        gpd, w = fixture(name)
        conv = conv_rep_of(regular_representation(gpd, w))
        out = roundtrip_conv(conv)
        assert out.ok, f"{name}: {out}"


def test_disintegrate_rejects_corrupted_operators():
    rng = SplitMix64(37)
    gpd, w = fixture("P2")
    module, blocks = random_cocycle(rng, gpd, w)
    conv = conv_rep_of(from_cocycle(gpd, w, module, blocks))
    ops = dict(conv.delta_ops)
    ops[(1, 2)] = 1.1 * ops[(1, 2)]
    broken = ConvRep(gpd, w, conv.space, ops)
    with pytest.raises(VerificationError) as err:
        disintegrate(broken)
    assert "FAIL star-certificate" in str(err.value)


def test_disintegrate_recovers_dims():
    rng = SplitMix64(38)
    gpd, w = fixture("T2")
    module, blocks = random_cocycle(rng, gpd, w, coeff_size=2)
    conv = conv_rep_of(from_cocycle(gpd, w, module, blocks))
    rep2, out = disintegrate(conv)
    assert out.ok
    assert rep2.module.dim == module.dim
    for x in gpd.objects:
        assert len(rep2.module.left_fiber(x)) == len(module.left_fiber(x))


def test_extend_prerep_oversampled_domain():
    gpd, w = fixture("Z2")
    ambient = module_from_dims(gpd.objects, ("w",), {("x", "w"): 1})
    domain = module_from_dims(gpd.objects, ("w",), {("x", "w"): 2})
    iota = ModuleMap(domain, ambient, np.array([[1.0, 0.0]]))
    ops = {0: np.eye(2, dtype=complex),
           1: -np.eye(2, dtype=complex)}
    pre = PreRepresentation(gpd, w, domain, iota, ops)
    conv, out = extend_prerep(pre)
    assert out.ok
    assert np.max(np.abs(conv.delta_ops[0] - np.eye(1))) <= 1e-12
    assert np.max(np.abs(conv.delta_ops[1] + np.eye(1))) <= 1e-12


def test_extend_prerep_kernel_not_invariant():
    gpd, w = fixture("Z2")
    ambient = module_from_dims(gpd.objects, ("w",), {("x", "w"): 1})
    domain = module_from_dims(gpd.objects, ("w",), {("x", "w"): 2})
    iota = ModuleMap(domain, ambient, np.array([[1.0, 0.0]]))
    ops = {0: np.eye(2, dtype=complex),
           1: np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)}
    pre = PreRepresentation(gpd, w, domain, iota, ops)
    with pytest.raises(VerificationError):
        extend_prerep(pre)


def test_pair_exchange_fails_on_nan():
    gpd, w = fixture("W2")
    rng = SplitMix64(6)
    pairs = gpd.composable_pairs()
    fine = {p: rng.cgauss() for p in pairs}
    nan_fn = dict(fine)
    nan_fn[pairs[-1]] = complex(np.nan, 0.0)
    lhs = pair_inner_s(gpd, w, nan_fn, fine)
    rhs = pair_inner_r(gpd, w, upsilon(gpd, nan_fn), upsilon(gpd, fine))
    first = next(k for k in gpd.arrows if np.isnan(abs(lhs[k] - rhs[k])))
    out = check_pair_exchange(gpd, w, [nan_fn, fine])
    check = out.checks[0]
    assert check.name == "exchange-0"
    assert not check.passed and np.isnan(check.defect)
    assert check.witness == first
