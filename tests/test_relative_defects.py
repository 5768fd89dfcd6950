"""Defects relative to the operands, and a mutant for each such check.

Object weights spanning six and twelve decades make the operands of
the algebra and operator identities reach 1e12, where absolute defects
of a few ulps already exceed the tolerance.  The checks below compare
with report.relative_defects, so they pass there; each keeps a mutant
that fails it at unit weights and at the widest weights.
"""

import json

import numpy as np
import pytest

from gcstar import cli, convalg, intdis
from gcstar.convalg import check_convolution, delta_function
from gcstar.fingroupoid import build_preset, fixture, groupoid_to_dict
from gcstar.hilbmod import ModuleMap
from gcstar.measures import object_weights
from gcstar.intdis import (ConvRep, check_conv_rep, check_integration,
                           check_naturality, conv_rep_of, disintegrate,
                           roundtrip_rep)
from gcstar.report import VerificationError, max_abs, relative_defects
from gcstar.reps import from_cocycle
from gcstar.sampling import SplitMix64, random_cocycle, random_function

WIDE = [(1e-3, 1.0, 1e3), (1e-6, 1.0, 1e6)]
SCALES = [(1.0, 1.0, 1.0), (1e-6, 1.0, 1e6)]


def _case(objw, seed=0, coeff_size=2):
    """pair:3 with the given object weights, a batch of the deltas and
    four random functions, and a random cocycle representation."""
    gpd = build_preset("pair", points=3)
    w = dict(zip(gpd.objects, objw))
    rng = SplitMix64(seed)
    funcs = [delta_function(gpd, g) for g in gpd.arrows]
    funcs += [random_function(rng, gpd) for _ in range(4)]
    module, blocks = random_cocycle(rng, gpd, w, coeff_size=coeff_size)
    return gpd, w, funcs, from_cocycle(gpd, w, module, blocks)


def _failing(out):
    return {c.name for c in out.failures()}


def test_relative_defects_rule():
    def one(a, b):
        return relative_defects(np.array([a]), np.array([b]))[0]
    assert one([1.0, 2.0], [1.0, 2.5]) == 0.5 / 2.5
    # absolute while both operands stay within 1
    assert one([1e-3], [2e-3]) == 1e-3
    assert one(np.zeros((0, 0)), np.zeros((0, 0))) == 0.0
    assert one([1e12 + 1e-3j], [1e12]) == 1e-3 / abs(1e12 + 1e-3j)
    assert np.isnan(one([np.nan], [1.0]))
    assert np.isnan(one([np.inf], [1.0]))
    # one defect per row of the stack, and b None stands for zeros
    a = np.array([[[1.0, 2.0]], [[1e-3, 0.0]]])
    b = np.array([[[1.0, 2.5]], [[2e-3, 0.0]]])
    assert relative_defects(a, b).tolist() == [0.5 / 2.5, 1e-3]
    assert relative_defects(a, None).tolist() == [1.0, 1e-3]


@pytest.mark.parametrize("objw", WIDE, ids=["1e3", "1e6"])
def test_wide_weights_pass(objw):
    # absolute defects failed associativity, regular-multiplicative,
    # multiplicative, star, oracle-agreement, star-certificate and
    # operator-roundtrip here
    gpd, w, funcs, rep = _case(objw)
    out = check_convolution(gpd, w, funcs)
    assert out.ok, str(out)
    out = check_integration(rep, funcs)
    assert out.ok, str(out)
    conv = conv_rep_of(rep)
    out = check_conv_rep(conv, funcs)
    assert out.ok, str(out)
    _, out = disintegrate(conv)
    assert out.ok, str(out)
    out = roundtrip_rep(rep)
    assert out.ok, str(out)


@pytest.mark.parametrize("coeff_size", [1, 2])
def test_wide_weights_pass_naturality(coeff_size):
    # absolute defects failed commutes and integrated-commutes here for
    # almost every seed, up to 8.5e-10
    for seed in range(10):
        _, _, _, rep = _case(WIDE[1], seed, coeff_size)
        conv = conv_rep_of(rep)
        rep2, _ = disintegrate(conv)
        out = check_naturality(rep, conv, rep2)
        assert out.ok, (seed, str(out))


# ---------------------------------------------------------------------------
# mutants

def _twisted(convolve):
    """Convolution twisted by 1 + 1e-3 on the non-unit arrows of the
    left factor: tau(ab) != tau(b) for b a unit, so the product is not
    associative and not the regular one."""
    def bent(gpd, weights, f1, f2):
        tau = np.full(len(gpd.arrows), 1.0 + 1e-3)
        tau[gpd.codes.unit] = 1.0
        return convolve(gpd, weights, f1 * tau, f2)
    return bent


@pytest.mark.parametrize("objw", SCALES, ids=["unit", "1e6"])
@pytest.mark.parametrize("name", ["associativity", "regular-multiplicative"])
def test_convolution_mutant(monkeypatch, objw, name):
    gpd, w, funcs, _ = _case(objw)
    monkeypatch.setattr(convalg, "convolve", _twisted(convalg.convolve))
    out = check_convolution(gpd, w, funcs)
    assert name in _failing(out), str(out)


def _bent_star(star):
    """The involution scaled by 1 + 1e-3 off the self-inverse arrows."""
    def bent(gpd, f):
        inv = gpd.codes.inv
        return star(gpd, f) * np.where(
            inv == np.arange(len(inv)), 1.0, 1.0 + 1e-3)
    return bent


@pytest.mark.parametrize("objw", SCALES, ids=["unit", "1e6"])
def test_regular_star_mutant(monkeypatch, objw):
    gpd, w, funcs, _ = _case(objw)
    monkeypatch.setattr(convalg, "star", _bent_star(convalg.star))
    out = check_convolution(gpd, w, funcs)
    assert "regular-star" in _failing(out), str(out)


@pytest.mark.parametrize("objw", SCALES, ids=["unit", "1e6"])
def test_star_antimultiplicative_mutant(monkeypatch, objw):
    gpd, w, funcs, _ = _case(objw)
    monkeypatch.setattr(convalg, "star", _bent_star(convalg.star))
    out = check_convolution(gpd, w, funcs)
    assert "star-antimultiplicative" in _failing(out), str(out)


@pytest.mark.parametrize("objw", SCALES, ids=["unit", "1e6"])
def test_identity_neutral_mutant(monkeypatch, objw):
    gpd, w, funcs, _ = _case(objw)
    unit = convalg.identity_element

    def bent(gpd, weights):
        return unit(gpd, weights) * (1.0 + 1e-3)
    monkeypatch.setattr(convalg, "identity_element", bent)
    out = check_convolution(gpd, w, funcs)
    assert _failing(out) == {"identity-neutral"}, str(out)


@pytest.mark.parametrize("objw", SCALES, ids=["unit", "1e6"])
@pytest.mark.parametrize("name, attr, bend", [
    ("multiplicative", "convolve", _twisted),
    ("star", "star", _bent_star),
])
def test_star_hom_mutants(monkeypatch, objw, name, attr, bend):
    # check_integration and check_conv_rep share these two checks
    gpd, w, funcs, rep = _case(objw)
    conv = conv_rep_of(rep)
    monkeypatch.setattr(intdis, attr, bend(getattr(intdis, attr)))
    assert name in _failing(check_integration(rep, funcs))
    assert name in _failing(check_conv_rep(conv, funcs))


@pytest.mark.parametrize("objw", SCALES, ids=["unit", "1e6"])
def test_oracle_agreement_mutant(monkeypatch, objw):
    gpd, w, funcs, rep = _case(objw)
    oracle = intdis.oracle_integrate

    def bent(fam, funcs):
        return oracle(fam, funcs) * (1.0 + 1e-6)
    monkeypatch.setattr(intdis, "oracle_integrate", bent)
    out = check_integration(rep, funcs)
    assert _failing(out) == {"oracle-agreement"}, str(out)


@pytest.mark.parametrize("objw", SCALES, ids=["unit", "1e6"])
def test_star_certificate_mutant(objw):
    gpd, w, _, rep = _case(objw)
    conv = conv_rep_of(rep)
    ops = conv.ops.copy()
    g = gpd.arrows.index((1, 2))
    assert max_abs(ops[g]) > 0.0
    ops[g] = (1.0 + 1e-6) * ops[g]
    with pytest.raises(VerificationError) as err:
        disintegrate(ConvRep(gpd, w, conv.space, ops))
    assert "FAIL star-certificate" in str(err.value)


@pytest.mark.parametrize("objw", SCALES, ids=["unit", "1e6"])
def test_operator_roundtrip_mutant(monkeypatch, objw):
    _, _, _, rep = _case(objw)
    exact = intdis.disintegrate

    def bent(conv, tol):
        rep2, out = exact(conv, tol)
        f = rep2.frame
        rep2.frame = ModuleMap(f.source, f.target, f.matrix * (1.0 + 1e-6))
        return rep2, out
    monkeypatch.setattr(intdis, "disintegrate", bent)
    assert _failing(roundtrip_rep(rep)) == {"operator-roundtrip"}


@pytest.mark.parametrize("objw", SCALES, ids=["unit", "1e6"])
def test_naturality_frame_mutant(objw):
    _, _, _, rep = _case(objw)
    conv = conv_rep_of(rep)
    rep2, _ = disintegrate(conv)
    f = rep2.frame
    mat = f.matrix.copy()
    mat[int(np.argmax(abs(mat[:, 0]))), 0] *= 1.0 + 1e-6
    rep2.frame = ModuleMap(f.source, f.target, mat)
    out = check_naturality(rep, conv, rep2)
    assert _failing(out) == {"commutes", "integrated-commutes"}, str(out)


@pytest.mark.parametrize("objw", SCALES, ids=["unit", "1e6"])
def test_naturality_induction_mutant(monkeypatch, objw):
    _, _, _, rep = _case(objw)
    conv = conv_rep_of(rep)
    rep2, _ = disintegrate(conv)
    induce = intdis.induce

    def bent(rep, ebasis):
        big = induce(rep, ebasis)
        u = big.umap
        vals = u.vals * (1.0 + 1e-6)
        big.umap = ModuleMap(u.source, u.target,
                             entries=(u.rows, u.cols, vals))
        return big
    monkeypatch.setattr(intdis, "induce", bent)
    out = check_naturality(rep, conv, rep2)
    assert _failing(out) == {"induction"}, str(out)


# ---------------------------------------------------------------------------
# norm inequalities: operator norm <= integration bound <= I-norm, and the
# C*-norm <= I-norm, each as a one-sided relative gap

NORM_SCALES = [(1e9, 1e9, 1e9), (1e-9, 1.0, 1e9), (1e-12, 1.0, 1e12)]
NORM_IDS = ["uniform-1e9", "1e9", "1e12"]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("objw", NORM_SCALES, ids=NORM_IDS)
def test_norm_inequalities_pass_at_wide_weights(objw, seed):
    # an absolute gap of 1e-9 failed norm-bound in check_integration here,
    # with defects from 2.4e-7 to 4.9e-4: the norms reach 1e9 to 1e12
    gpd, w, funcs, rep = _case(objw, seed)
    for out in (check_convolution(gpd, w, funcs),
                check_integration(rep, funcs)):
        assert out.ok, str(out)
        got = {c.name: c.defect for c in out.checks}
        assert got["norm-bound"] <= 1e-14, str(out)
    assert got["bound-below-inorm"] <= 1e-14, str(out)


def _doubled(rep):
    """rep with every entry of its unitary scaled by 2."""
    u = rep.umap
    rep.umap = ModuleMap(u.source, u.target,
                         entries=(u.rows, u.cols, 2.0 * u.vals))
    return rep


@pytest.mark.parametrize("objw", [(1.0, 1.0, 1.0)] + NORM_SCALES,
                         ids=["unit"] + NORM_IDS)
def test_norm_bound_mutants(monkeypatch, objw):
    # a unitary scaled by 2 integrates every delta to twice its bound
    gpd, w, funcs, rep = _case(objw)
    assert "norm-bound" in _failing(check_integration(_doubled(rep), funcs))
    # so does left convolution scaled by 2, on its source-fibre blocks
    regular = convalg._regular_blocks

    def doubled(gpd, c, funcs):
        return 2.0 * regular(gpd, c, funcs)
    monkeypatch.setattr(convalg, "_regular_blocks", doubled)
    assert "norm-bound" in _failing(check_convolution(gpd, w, funcs))


@pytest.mark.parametrize("objw", [(1.0, 1.0, 1.0)] + NORM_SCALES,
                         ids=["unit"] + NORM_IDS)
def test_bound_below_inorm_mutant(monkeypatch, objw):
    # The geometric mean of the two fibre sups never exceeds the larger
    # one, so on the true integration bound this check fails only on a
    # NaN, and a NaN function stops operator_norm before it.  What it
    # guards is the bound itself: the sum of the sups in its place.
    gpd, w, funcs, rep = _case(objw)

    def summed(gpd, weights, f):
        return sum(convalg.fiber_sups(gpd, weights, f))
    monkeypatch.setattr(intdis, "integration_bound", summed)
    assert _failing(check_integration(rep, funcs)) == {"bound-below-inorm"}


# ---------------------------------------------------------------------------
# delta-norm: the block norm of each arrow delta against the closed form
# sqrt(c(src g) c(rng g))

@pytest.mark.parametrize("objw", [None] + WIDE, ids=["W2"] + ["1e3", "1e6"])
@pytest.mark.parametrize("kept", ["src", "rng"])
def test_delta_norm_mutant(monkeypatch, capsys, tmp_path, objw, kept):
    if objw is None:
        gpd, w = fixture("W2")
    else:
        gpd = build_preset("pair", points=3)
        w = dict(zip(gpd.objects, objw))
    path = tmp_path / "groupoid.json"
    path.write_text(json.dumps(groupoid_to_dict(gpd, w)))
    argv = ["algebra", "--groupoid", str(path), "--trials", "2", "--json"]

    def checks():
        code = cli.main(argv)
        doc = json.loads(capsys.readouterr().out)
        return code, {c["name"]: c for r in doc["reports"]
                      for c in r["checks"]}
    code, got = checks()
    assert code == 0 and got["delta-norm"]["defect"] <= 1e-15, got
    # the closed form with one of the two weights dropped
    ends = getattr(gpd.codes, kept)
    monkeypatch.setattr(cli, "delta_norms", lambda gpd, weights: np.sqrt(
        object_weights(gpd, weights)[ends]))
    code, got = checks()
    assert code == 1
    assert {n for n, c in got.items() if not c["passed"]} == {"delta-norm"}
    assert got["delta-norm"]["witness"] is not None
