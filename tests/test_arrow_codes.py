"""The integer view FiniteGroupoid.codes and the routes that read it.

The view must agree with the label tables, and validation must never
read it.  The convolution algebra, the measure families and the pair
function certificates used to walk the range fibres through the label
dicts; those walks are kept below as references, and the new routes
must agree with them bit for bit.  Where two complex arrays are
multiplied (convolution, the two pair inner products) the new routes
split the product into real parts, which rounds as the product of two
Python complex numbers or two numpy complex scalars does; numpy's
array product rounds differently in about a third of random products.

The dense regular matrix and its operator norm, which the convolution
algebra replaced by source-fibre blocks, are kept below as references:
the blocks must be its diagonal blocks bit for bit, and the block norms
must agree with its norm to 1e-14 relative.
"""

import numpy as np
import pytest

from gcstar.cli import _shift
from gcstar import convalg
from gcstar.convalg import (_regular_blocks, _spectral_norms,
                            check_convolution, convolve, cstar_norm,
                            delta_function, fiber_sups, i_norm, star)
from gcstar.fingroupoid import (FIXTURE_NAMES, FiniteGroupoid, build_preset,
                                counting_weights, disjoint_union, fixture,
                                validate_groupoid, validate_haar)
from gcstar.hilbmod import ModuleMap
from gcstar.measures import (GroupoidFamilies, arrow_correspondence,
                             compare_integrals, object_weights, pair_values)
from gcstar.intdis import _domain, _integrate, _pair_inner, upsilon
from gcstar.reps import from_cocycle
from gcstar.sampling import random_cocycle
from gcstar.sampling import (SplitMix64, mutate_groupoid, random_function,
                             random_groupoid)
from test_measures import views


def _groupoids():
    out = [(name, *fixture(name)) for name in FIXTURE_NAMES]
    for name, params in (("group", {"order": 3}), ("pair", {"points": 3}),
                         ("space", {"points": 3}),
                         ("transformation", {"order": 4,
                                             "action": _shift(4)})):
        gpd = build_preset(name, **params)
        out.append((f"{name}:3", gpd, counting_weights(gpd)))
    p3 = build_preset("pair", points=3)
    out.append(("wide", p3, dict(zip(p3.objects, (1e-6, 1.0, 1e6)))))
    p2, t2 = fixture("P2")[0], fixture("T2")[0]
    for name, gpd in (("P2+P2", disjoint_union(p2, p2)),
                      ("T2+group:3", disjoint_union(
                          t2, build_preset("group", order=3)))):
        out.append((name, gpd, {x: 0.5 + i for i, x in
                                enumerate(gpd.objects)}))
    rng = SplitMix64(17)
    out += [(f"random-{t}", *random_groupoid(rng)) for t in range(4)]
    return out


CASES = _groupoids()
IDS = [name for name, _, _ in CASES]


@pytest.mark.parametrize("name, gpd, w", CASES, ids=IDS)
def test_codes_agree_with_the_label_tables(name, gpd, w):
    t = gpd.codes
    obj = {x: i for i, x in enumerate(gpd.objects)}
    arr = {g: i for i, g in enumerate(gpd.arrows)}
    assert t.src.tolist() == [obj[gpd.src[g]] for g in gpd.arrows]
    assert t.rng.tolist() == [obj[gpd.rng[g]] for g in gpd.arrows]
    assert t.inv.tolist() == [arr[gpd.inv[g]] for g in gpd.arrows]
    assert t.unit.tolist() == [arr[gpd.unit[x]] for x in gpd.objects]
    n = len(gpd.arrows)
    assert t.comp.shape == (n, n)
    for i, g in enumerate(gpd.arrows):
        for j, h in enumerate(gpd.arrows):
            k = gpd.comp.get((g, h))
            assert t.comp[i, j] == (-1 if k is None else arr[k])
    a = gpd.arrows
    assert [(a[i], a[j]) for i, j in zip(*t.pairs)] \
        == list(gpd.composable_pairs())
    assert all((t.comp >= 0)[t.pairs])
    assert all(np.array_equal(x, y)
               for x, y in zip(t.pairs, np.nonzero(t.comp >= 0)))
    for v in (*t[:5], *t.pairs):
        assert not v.flags.writeable
    assert gpd.codes is t


def test_codes_are_built_from_the_constructor_tables():
    # a preset passes its composition table to the constructor, so the
    # view never sees an empty one
    gpd = build_preset("pair", points=2)
    assert "codes" not in vars(gpd)
    assert (gpd.codes.comp >= 0).sum() == len(gpd.comp) == 8


MUTATION_KINDS = {"groupoid:src", "groupoid:comp", "groupoid:inv",
                  "groupoid:unit", "haar:haar-sign", "haar:haar-invariance"}


def test_validation_never_reads_the_view(monkeypatch):
    def refuse(self):
        raise AssertionError("validation read the integer view")
    monkeypatch.setattr(FiniteGroupoid, "codes", property(refuse))
    rng = SplitMix64(3)
    seen = set()
    for _ in range(60):
        gpd, w = random_groupoid(rng)
        assert validate_groupoid(gpd).ok
        mgpd, mw, kind = mutate_groupoid(rng, gpd, w)
        seen.add(kind)
        out = validate_groupoid(mgpd)
        if kind.startswith("haar:"):
            assert out.ok
            out = validate_haar(mgpd, mw)
        assert not out.ok
        assert out.failures()[0].witness is not None, kind
    assert seen == MUTATION_KINDS


# ---------------------------------------------------------------------------
# references: the label walks the view replaced

def ref_convolve(gpd, weights, f1, f2):
    out = {g: 0.0 + 0.0j for g in gpd.arrows}
    for k in gpd.arrows:
        acc = 0.0 + 0.0j
        for h in gpd.arrows_into(gpd.rng[k]):
            acc += f1[h] * f2[gpd.comp[(gpd.inv[h], k)]] * weights[gpd.src[h]]
        out[k] = acc
    return out


def ref_fiber_sups(gpd, weights, f):
    along_r = {x: 0.0 for x in gpd.objects}
    along_s = {x: 0.0 for x in gpd.objects}
    for g in gpd.arrows:
        along_r[gpd.rng[g]] += abs(f[g]) * weights[gpd.src[g]]
        along_s[gpd.src[g]] += abs(f[g]) * weights[gpd.rng[g]]
    return max(along_r.values()), max(along_s.values())


def ref_regular_matrix(gpd, weights, f):
    space = arrow_correspondence(gpd, weights, "s")
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for h in gpd.arrows:
        for g in gpd.arrows_into(gpd.rng[h]):
            h2 = gpd.comp[(gpd.inv[g], h)]
            mat[views(space).index[h], views(space).index[h2]] += \
                f[g] * weights[gpd.src[g]]
    return mat


def dense_regular_matrix(gpd, weights, f):
    """Left convolution by f on the arrow space, as a dense ModuleMap:
    entry [gh, h] is f(g) c(src(g)) over the composable pairs (g, h)."""
    space = arrow_correspondence(gpd, weights, "s")
    t = gpd.codes
    g, h = t.pairs
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    mat[t.comp[g, h], h] += f[g] * object_weights(gpd, weights)[t.src[g]]
    return ModuleMap(space, space, mat)


def dense_operator_norm(m):
    """Operator norm of a ModuleMap between weighted spaces: the spectral
    norm of the matrix conjugated by the square roots of the Gram
    diagonals."""
    if m.source.dim == 0 or m.target.dim == 0:
        return 0.0
    ds = np.sqrt(m.source.gram_diagonal())
    dt = np.sqrt(m.target.gram_diagonal())
    hat = (dt[:, None] * m.matrix) / ds[None, :]
    eigs = np.linalg.eigvalsh(hat.conj().T @ hat)
    return float(np.sqrt(max(float(eigs[-1]), 0.0)))


def densify(gpd, blocks):
    """The |A| x |A| matrix whose source-fibre blocks are blocks."""
    lay, src = gpd.source_layout, gpd.codes.src
    at = lay.place[:, None] * lay.m + lay.place % lay.m
    return np.where(src[:, None] == src, blocks.ravel()[at], 0.0)


def ref_left_integral(gpd, weights, psi):
    c = {x: float(weights[x]) for x in gpd.objects}
    left = {x: 0.0 for x in gpd.objects}
    for k in gpd.arrows:
        x = gpd.src[k]
        outer = c[gpd.rng[k]]
        for g in gpd.arrows_into(gpd.rng[k]):
            h = gpd.comp[(gpd.inv[g], k)]
            left[x] += psi[(g, h)] * c[gpd.src[g]] * outer
    return left


def ref_integrate(space, func):
    out = {y: 0.0 for y in space.right_space}
    for b in space.basis:
        out[views(space).right[b]] += func[b] * views(space).weight[b]
    return out


def ref_pair_weights(gpd, weights):
    c = {x: float(weights[x]) for x in gpd.objects}
    pairs = gpd.composable_pairs()
    return ([c[gpd.rng[g]] for g, _ in pairs],
            [c[gpd.rng[h]] for _, h in pairs],
            [c[gpd.src[h]] for _, h in pairs],
            [gpd.comp[p] for p in pairs])


def ref_pair_inner_s(gpd, c, big1, big2):
    out = {k: 0.0 + 0.0j for k in gpd.arrows}
    for k in gpd.arrows:
        for h in gpd.arrows_out_of(gpd.rng[k]):
            hk = gpd.comp[(h, k)]
            for x in gpd.arrows_out_of(gpd.rng[h]):
                out[k] += (np.conj(big1[(x, h)]) * big2[(x, hk)]
                           * c[gpd.rng[x]] * c[gpd.rng[h]])
    return out


def ref_pair_inner_r(gpd, c, big1, big2):
    out = {k: 0.0 + 0.0j for k in gpd.arrows}
    for k in gpd.arrows:
        for h in gpd.arrows_out_of(gpd.rng[k]):
            hk = gpd.comp[(h, k)]
            for x in gpd.arrows_into(gpd.rng[h]):
                out[k] += (np.conj(big1[(x, h)]) * big2[(x, hk)]
                           * c[gpd.src[x]] * c[gpd.rng[h]])
    return out


def pair_inner(gpd, weights, big1, big2, side):
    """intdis._pair_inner of two pair functions given as dicts on the
    domain of side: composable pairs for "s", range pairs for "r"."""
    g, h, at = _domain(gpd, side)
    return _pair_inner(gpd, weights, side, at)(
        pair_values(gpd, big1, g, h), pair_values(gpd, big2, g, h))


def ref_upsilon(gpd, big):
    out = {}
    for g in gpd.arrows:
        for k in gpd.arrows_into(gpd.rng[g]):
            out[(g, k)] = big[(g, gpd.comp[(gpd.inv[g], k)])]
    return out


def _bits(values):
    return np.array(list(values), dtype=complex).tobytes()


def _python(gpd, f):
    """An arrow function as a label dict of Python complex values."""
    return dict(zip(gpd.arrows, f.tolist()))


def _scalars(gpd, f):
    """An arrow function as a label dict of numpy complex scalars."""
    return dict(zip(gpd.arrows, f))


def _funcs(gpd, seed):
    rng = SplitMix64(seed)
    return [random_function(rng, gpd) for _ in range(3)]


def _pair_funcs(gpd, seed):
    rng = SplitMix64(seed)
    return [{p: rng.cgauss() for p in gpd.composable_pairs()}
            for _ in range(2)]


@pytest.mark.parametrize("name, gpd, w", CASES, ids=IDS)
def test_convolve_matches_the_fibre_walk(name, gpd, w):
    f1, f2, f3 = _funcs(gpd, 1)
    s1, s2, s3 = (star(gpd, f) for f in (f1, f2, f3))
    # the reference reads Python complex values, and numpy complex
    # scalars as star returned them before it returned arrays
    for a, b, ref_a, ref_b in (
            (f1, f2, _python(gpd, f1), _python(gpd, f2)),
            (s2, s3, _scalars(gpd, s2), _scalars(gpd, s3)),
            (f3, s1, _python(gpd, f3), _scalars(gpd, s1))):
        assert _bits(convolve(gpd, w, a, b)) \
            == _bits(ref_convolve(gpd, w, ref_a, ref_b).values())


@pytest.mark.parametrize("name, gpd, w", CASES, ids=IDS)
def test_regular_matrix_and_fiber_sups_match_bit_for_bit(name, gpd, w):
    funcs = [(f, _python(gpd, f)) for f in _funcs(gpd, 2)]
    funcs += [(sf, _scalars(gpd, sf))
              for sf in (star(gpd, f) for f in _funcs(gpd, 3))]
    for f, ref in funcs:
        assert dense_regular_matrix(gpd, w, f).matrix.tobytes() \
            == ref_regular_matrix(gpd, w, ref).tobytes()
        assert fiber_sups(gpd, w, f) == ref_fiber_sups(gpd, w, ref)


@pytest.mark.parametrize("name, gpd, w", CASES, ids=IDS)
def test_families_and_left_integral_match_bit_for_bit(name, gpd, w):
    fam = GroupoidFamilies(gpd, w)
    lam0, lam1, lam2, gh = ref_pair_weights(gpd, w)
    assert fam.lam0.basis == gpd.composable_pairs()
    for lam, want in ((fam.lam0, lam0), (fam.lam1, lam1), (fam.lam2, lam2)):
        assert lam.weight_array.tolist() == want
    assert [views(fam.lam1).right[p] for p in fam.lam1.basis] == gh
    for psi in _pair_funcs(gpd, 4):
        left, right = compare_integrals(gpd, w, psi)
        assert list(left) == list(gpd.objects)
        assert _bits(left.values()) \
            == _bits(ref_left_integral(gpd, w, psi).values())
        assert _bits(right.values()) \
            == _bits(ref_integrate(fam.mu2, psi).values())


@pytest.mark.parametrize("name, gpd, w", CASES, ids=IDS)
def test_pair_certificates_match_bit_for_bit(name, gpd, w):
    c = {x: float(w[x]) for x in gpd.objects}
    big1, big2 = _pair_funcs(gpd, 5)
    big2 = {p: np.complex128(v) for p, v in big2.items()}
    up1, up2 = upsilon(gpd, big1), upsilon(gpd, big2)
    ref1 = ref_upsilon(gpd, big1)
    assert list(up1) == list(ref1)
    assert _bits(up1.values()) == _bits(ref1.values())
    assert _bits(pair_inner(gpd, w, big1, big2, "s")) \
        == _bits(ref_pair_inner_s(gpd, c, big1, big2).values())
    assert _bits(pair_inner(gpd, w, up1, up2, "r")) \
        == _bits(ref_pair_inner_r(gpd, c, up1, up2).values())


# ---------------------------------------------------------------------------
# the regular matrix by source-fibre blocks, against the dense reference

def _norm_cases():
    out = [(name, *fixture(name)) for name in ("Z2", "P2", "W2", "T2")]
    p3 = build_preset("pair", points=3)
    out.append(("pair:3-wide", p3, dict(zip(p3.objects, (1e-6, 1.0, 1e6)))))
    out += [(f"random-seed-{seed}", *random_groupoid(SplitMix64(seed)))
            for seed in (7, 11)]
    return out


NORM_CASES = _norm_cases()


def _batch(gpd, seed):
    """Every arrow delta, random functions and their stars, as a stack."""
    funcs = [delta_function(gpd, g) for g in gpd.arrows]
    funcs += _funcs(gpd, seed)
    return np.array(funcs + [star(gpd, f) for f in funcs])


@pytest.mark.parametrize("name, gpd, w", CASES, ids=IDS)
def test_blocks_are_the_dense_regular_matrix(name, gpd, w):
    funcs = _batch(gpd, 6)
    blocks = _regular_blocks(gpd, object_weights(gpd, w), funcs)
    assert blocks.shape[:2] == (len(funcs), len(gpd.objects))
    for f, b in zip(funcs, blocks):
        # equal entry for entry; the dense sum turns -0.0 into 0.0
        assert np.array_equal(densify(gpd, b),
                              dense_regular_matrix(gpd, w, f).matrix)
    # the deltas fill one place per composable pair, none on the padding
    assert np.count_nonzero(blocks[:len(gpd.arrows)]) \
        == len(gpd.codes.pairs[0])
    assert gpd.source_layout is gpd.source_layout
    assert not any(v.flags.writeable for v in gpd.source_layout[1:])


@pytest.mark.parametrize("name, gpd, w", NORM_CASES,
                         ids=[n for n, _, _ in NORM_CASES])
def test_block_norms_match_the_dense_route(name, gpd, w):
    funcs = _batch(gpd, 8)
    want = np.array([dense_operator_norm(dense_regular_matrix(gpd, w, f))
                     for f in funcs])
    got = cstar_norm(gpd, w, funcs)
    assert got.shape == want.shape
    assert np.all(abs(got - want) <= 1e-14 * np.maximum(want, 1e-300)), \
        np.max(abs(got - want) / want)
    assert [cstar_norm(gpd, w, f) for f in funcs] == got.tolist()
    # the operator norms of integrated operators take the same stacked
    # route in check_integration
    module, cocycle = random_cocycle(SplitMix64(9), gpd, w)
    rep = from_cocycle(gpd, w, module, cocycle)
    ops = _integrate(rep, funcs)
    want = np.array([dense_operator_norm(ModuleMap(module, module, op))
                     for op in ops])
    got = _spectral_norms(np.sqrt(module.gram_diagonal()), ops)
    assert np.all(abs(got - want) <= 1e-14 * np.maximum(want, 1e-300))


@pytest.mark.parametrize("name, gpd, w", CASES, ids=IDS)
def test_stacked_convolve_matches_one_row_at_a_time(name, gpd, w):
    funcs = _batch(gpd, 10)
    funcs[1, 0] = complex(np.nan, 0.0)
    funcs[2, -1] = complex(0.0, np.nan)
    left, right = funcs[:-1], funcs[1:]
    got = convolve(gpd, w, left, right)
    assert got.shape == left.shape
    for row, f1, f2 in zip(got, left, right):
        assert row.tobytes() == convolve(gpd, w, f1, f2).tobytes()
    # one function against a stack, on either side
    for row, f in zip(convolve(gpd, w, funcs[0], right), right):
        assert row.tobytes() == convolve(gpd, w, funcs[0], f).tobytes()
    for row, f in zip(convolve(gpd, w, left, funcs[-1]), left):
        assert row.tobytes() == convolve(gpd, w, f, funcs[-1]).tobytes()
    assert [row.tobytes() for row in star(gpd, funcs)] \
        == [star(gpd, f).tobytes() for f in funcs]
    sups = np.array([fiber_sups(gpd, w, f) for f in funcs])
    assert np.array_equal(np.column_stack(fiber_sups(gpd, w, funcs)), sups,
                          equal_nan=True)
    assert np.array_equal(i_norm(gpd, w, funcs), [i_norm(gpd, w, f)
                                                  for f in funcs],
                          equal_nan=True)


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.nan),
                                 complex(np.inf, 0.0)],
                         ids=["nan", "nan-imag", "inf"])
@pytest.mark.parametrize("name", ["Z2", "P2", "W2"])
def test_a_non_finite_function_has_no_norm(name, bad):
    gpd, w = fixture(name)
    f = np.ones(len(gpd.arrows), dtype=complex)
    f[-1] = bad
    for arg in (f, np.array([np.ones_like(f), f])):
        with pytest.raises(np.linalg.LinAlgError):
            cstar_norm(gpd, w, arg)
    if np.isnan(bad):
        assert np.isnan(i_norm(gpd, w, f))


@pytest.mark.parametrize("name, gpd, w", NORM_CASES,
                         ids=[n for n, _, _ in NORM_CASES])
def test_chunks_do_not_change_a_bit(monkeypatch, name, gpd, w):
    # with one row per chunk, every stack crosses chunk boundaries
    funcs = _batch(gpd, 12)
    whole = (convolve(gpd, w, funcs[:-1], funcs[1:]).tobytes(),
             cstar_norm(gpd, w, funcs).tobytes(),
             check_convolution(gpd, w, funcs).to_dict())
    monkeypatch.setattr(convalg, "_CHUNK", 1)
    assert (convolve(gpd, w, funcs[:-1], funcs[1:]).tobytes(),
            cstar_norm(gpd, w, funcs).tobytes(),
            check_convolution(gpd, w, funcs).to_dict()) == whole
