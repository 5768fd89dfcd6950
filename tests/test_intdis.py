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

from gcstar import intdis
from gcstar.convalg import cstar_norm, delta_function, i_norm
from gcstar.fingroupoid import FIXTURE_NAMES, fixture
from gcstar.hilbmod import ModuleMap, module_from_dims
from gcstar.intdis import (ConvRep, check_conv_rep,
                           check_integrated_intertwiner, check_integration,
                           check_naturality, check_pair_exchange, conv_rep_of,
                           disintegrate, integrate_rep, integration_bound,
                           oracle_integrate, pair_inner_r, pair_inner_s,
                           roundtrip_rep, upsilon)
from gcstar.report import VerificationError
from gcstar.reps import blockwise, from_cocycle, regular_representation
from gcstar.sampling import SplitMix64, random_cocycle, random_function
from test_arrow_codes import dense_operator_norm


def trivial_rep(gpd, weights):
    dims = {(x, "w"): 1 for x in gpd.objects}
    module = module_from_dims(gpd.objects, ("w",), dims)
    return from_cocycle(gpd, weights, module,
                        {g: np.eye(1, dtype=complex) for g in gpd.arrows})


def rand_funcs(gpd, rng, count):
    return [random_function(rng, gpd) for _ in range(count)]


def test_integrated_delta_w2():
    gpd, w = fixture("W2")
    rep = trivial_rep(gpd, w)
    f = delta_function(gpd, (1, 2))
    out = integrate_rep(rep, f)
    want = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    assert np.max(np.abs(out.matrix - want)) <= 1e-14
    ora = oracle_integrate(blockwise(rep), f[None])
    assert np.array_equal(ora[0], want)


def test_integration_bound_w2_delta():
    gpd, w = fixture("W2")
    f = delta_function(gpd, (1, 2))
    assert integration_bound(gpd, w, f) == 2.0
    assert cstar_norm(gpd, w, f) == pytest.approx(2.0, abs=1e-12)


def test_equality_case_z2():
    gpd, w = fixture("Z2")
    f = np.ones(2, dtype=complex)
    rep = trivial_rep(gpd, w)
    norm = dense_operator_norm(integrate_rep(rep, f))
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
        ConvRep(gpd, w, space, [np.eye(2), np.eye(3)])


def test_integrated_intertwiner_identity():
    rng = SplitMix64(33)
    gpd, w = fixture("P2")
    module, blocks = random_cocycle(rng, gpd, w)
    conv = conv_rep_of(from_cocycle(gpd, w, module, blocks))
    out = check_integrated_intertwiner(conv, conv, np.eye(module.dim))
    assert [c.name for c in out.checks] == ["integrated-commutes"]
    assert out.ok and out.checks[0].defect == 0.0


def test_integrated_intertwiner_random_fails():
    rng = SplitMix64(34)
    gpd, w = fixture("P2")
    module, blocks = random_cocycle(rng, gpd, w, max_dim=2)
    conv = conv_rep_of(from_cocycle(gpd, w, module, blocks))
    # generic matrices do not commute with the off-diagonal shifts
    bad = np.array([[rng.cgauss() for _ in range(module.dim)]
                    for _ in range(module.dim)])
    out = check_integrated_intertwiner(conv, conv, bad)
    assert not out.ok and out.checks[0].defect > 1e-6
    assert out.checks[0].witness in gpd.arrows


def test_pair_inner_closed_form_w2():
    gpd, w = fixture("W2")
    pairs = gpd.composable_pairs()
    big1 = {p: 0.0 for p in pairs}
    big2 = {p: 0.0 for p in pairs}
    big1[((1, 2), (2, 1))] = 1.0
    big2[((1, 2), (2, 2))] = 1.0
    out = dict(zip(gpd.arrows, pair_inner_s(gpd, w, big1, big2)))
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


def test_pair_exchange_matches_the_arrow_loop():
    # the defect of each arrow by Python's abs() and max(), reduced to
    # the first largest
    rng = SplitMix64(35)
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        pairs = gpd.composable_pairs()
        funcs = [{p: rng.cgauss() for p in pairs} for _ in range(3)]
        out = check_pair_exchange(gpd, w, funcs)
        for i, check in enumerate(out.checks):
            f1, f2 = funcs[i], funcs[(i + 1) % len(funcs)]
            lhs = pair_inner_s(gpd, w, f1, f2).tolist()
            rhs = pair_inner_r(gpd, w, upsilon(gpd, f1),
                               upsilon(gpd, f2)).tolist()
            defects = [abs(a - b) / max(abs(a), abs(b), 1.0)
                       for a, b in zip(lhs, rhs)]
            d = max(defects, default=0.0)
            witness = gpd.arrows[defects.index(d)] if d else None
            assert (check.defect, check.witness) == (d, witness), name


def test_roundtrip_rep_random():
    rng = SplitMix64(36)
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        module, blocks = random_cocycle(rng, gpd, w, coeff_size=2)
        rep = from_cocycle(gpd, w, module, blocks)
        out = roundtrip_rep(rep)
        assert out.ok, f"{name}: {out}"


def test_roundtrip_conv_regular():
    # disintegrate the operators, integrate again: the frame carries the
    # new operators onto the old ones
    for name in ("Z2", "W2"):
        gpd, w = fixture(name)
        conv = conv_rep_of(regular_representation(gpd, w))
        rep2, _ = disintegrate(conv)
        out = check_integrated_intertwiner(conv_rep_of(rep2), conv,
                                           rep2.frame.matrix)
        assert out.ok, f"{name}: {out}"


def test_disintegrate_rejects_corrupted_operators():
    rng = SplitMix64(37)
    gpd, w = fixture("P2")
    module, blocks = random_cocycle(rng, gpd, w)
    conv = conv_rep_of(from_cocycle(gpd, w, module, blocks))
    ops = conv.ops.copy()
    ops[gpd.arrows.index((1, 2))] *= 1.1
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


def test_pair_exchange_fails_on_nan():
    gpd, w = fixture("W2")
    rng = SplitMix64(6)
    pairs = gpd.composable_pairs()
    fine = {p: rng.cgauss() for p in pairs}
    nan_fn = dict(fine)
    nan_fn[pairs[-1]] = complex(np.nan, 0.0)
    lhs = pair_inner_s(gpd, w, nan_fn, fine)
    rhs = pair_inner_r(gpd, w, upsilon(gpd, nan_fn), upsilon(gpd, fine))
    first = gpd.arrows[np.flatnonzero(np.isnan(abs(lhs - rhs)))[0]]
    out = check_pair_exchange(gpd, w, [nan_fn, fine])
    check = out.checks[0]
    assert check.name == "exchange-0"
    assert not check.passed and np.isnan(check.defect)
    assert check.witness == first


# ---------------------------------------------------------------------------
# naturality: one mutant per check

def _naturality_case():
    """A P2 representation over two coefficient labels, its integrated
    operators and its disintegration."""
    gpd, w = fixture("P2")
    module, blocks = random_cocycle(SplitMix64(41), gpd, w, coeff_size=2)
    rep = from_cocycle(gpd, w, module, blocks)
    conv = conv_rep_of(rep)
    rep2, _ = disintegrate(conv)
    return rep, conv, rep2


def _failing(out):
    return {c.name for c in out.failures()}


def test_naturality_passes():
    rep, conv, rep2 = _naturality_case()
    out = check_naturality(rep, conv, rep2)
    assert [c.name for c in out.checks] == [
        "right-grade-preserved", "object-grade-preserved", "commutes",
        "integrated-commutes", "induction"]
    assert out.ok, str(out)


def _row(space, left, right):
    return next(space.index[b] for b in space.basis
                if space.left[b] == left and space.right[b] == right)


def _scale_entry(mat, src, tgt):
    """Scale the largest entry of the first column, inside its grades."""
    mat[int(np.argmax(abs(mat[:, 0]))), 0] *= 1.5


def _cross_objects(mat, src, tgt):
    """Column (1, w, 0) picks up a vector over object 2."""
    mat[_row(tgt, 2, src.right[src.basis[0]]), 0] = 0.5


def _cross_labels(mat, src, tgt):
    """Column (1, w, 0) picks up a vector over the other label."""
    other = next(v for v in tgt.right_space if v != src.right[src.basis[0]])
    mat[_row(tgt, 1, other), 0] = 0.5


@pytest.mark.parametrize("name, bend", [
    ("commutes", _scale_entry),
    ("object-grade-preserved", _cross_objects),
    ("right-grade-preserved", _cross_labels),
], ids=["perturbed", "crosses-objects", "crosses-labels"])
def test_naturality_frame_mutants(name, bend):
    rep, conv, rep2 = _naturality_case()
    frame = rep2.frame
    assert frame.source.left[frame.source.basis[0]] == 1
    mat = frame.matrix.copy()
    bend(mat, frame.source, frame.target)
    rep2.frame = ModuleMap(frame.source, frame.target, mat)
    out = check_naturality(rep, conv, rep2)
    assert name in _failing(out), str(out)
    if name == "commutes":
        assert _failing(out) == {"commutes", "integrated-commutes"}


def test_naturality_induction_mutant(monkeypatch):
    rep, conv, rep2 = _naturality_case()
    induce = intdis.induce

    def bent(rep, ebasis):
        big = induce(rep, ebasis)
        u = big.umap
        vals = u.vals.copy()
        vals[np.argmax(abs(vals))] *= 1.5
        big.umap = ModuleMap(u.source, u.target,
                             entries=(u.rows, u.cols, vals))
        return big

    monkeypatch.setattr(intdis, "induce", bent)
    out = check_naturality(rep, conv, rep2)
    assert _failing(out) == {"induction"}
    assert out.checks[-1].witness in rep.groupoid.arrows
