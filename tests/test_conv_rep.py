"""The stacked ConvRep and the routes that read it.

A ConvRep holds the integrated arrow deltas of a representation as one
read-only (|A|, d, d) array in arrow order.  conv_rep_of is the one
place that integrates them, as one stack, so each representation's
deltas are integrated once per command, and a stack integrates each
row to the bits integrate_rep gives it alone.  The star certificate of
disintegrate runs on the compressed fibre blocks over the arrow pairs
that share a range; the dense certificate over all arrow pairs it
replaced is kept here as the reference (_dense_star_pairs), with the
older routes through a structure-constant delta and a loop over the
operators and through one label lookup per arrow pair, and so are the
old triple loop of the support-pattern check, the old arrow-order loop
of ConvRep.op and the old loops that split a function into the two
square-root factors of integrate_rep.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from gcstar import cli, intdis
from gcstar.convalg import delta_function, identity_element, star
from gcstar.fingroupoid import FIXTURE_NAMES, build_preset, fixture
from gcstar.hilbmod import ModuleMap
from gcstar.intdis import (ConvRep, _fibre_blocks, _integrate,
                           _star_certificate, check_conv_rep, conv_rep_of,
                           disintegrate, integrate_rep, oracle_integrate)
from gcstar.measures import object_weights
from gcstar.report import (VerificationError, max_abs, relative_defects,
                           worst_at)
from gcstar.reps import blockwise, from_cocycle
from gcstar.sampling import (SplitMix64, random_cocycle, random_function,
                             random_groupoid)


def _cases():
    """Fixtures, pair:3 with weights over twelve decades and two seeded
    random groupoids, each with a random cocycle representation."""
    rng = SplitMix64(5)
    out = [(name, *fixture(name)) for name in FIXTURE_NAMES]
    p3 = build_preset("pair", points=3)
    out.append(("wide", p3, dict(zip(p3.objects, (1e-6, 1.0, 1e6)))))
    out += [(f"random-{t}", *random_groupoid(rng)) for t in range(2)]
    for name, gpd, w in out:
        module, blocks = random_cocycle(rng, gpd, w, coeff_size=2)
        yield name, from_cocycle(gpd, w, module, blocks)


CASES = list(_cases())
IDS = [name for name, _ in CASES]


@pytest.mark.parametrize("rep", [r for _, r in CASES], ids=IDS)
def test_ops_stack_the_integrated_deltas(rep):
    gpd = rep.groupoid
    conv = conv_rep_of(rep)
    d = rep.module.dim
    assert conv.ops.shape == (len(gpd.arrows), d, d)
    assert not conv.ops.flags.writeable
    for g, op in zip(gpd.arrows, conv.ops):
        lit = integrate_rep(rep, delta_function(gpd, g)).matrix
        assert op.tobytes() == lit.tobytes()


def _labels(gpd, f):
    """An arrow function as a label dict of Python complex values."""
    return dict(zip(gpd.arrows, f.tolist()))


def _old_op(conv, f):
    """ConvRep.op as a sum over a label dict f, in arrow order."""
    mat = np.zeros((conv.space.dim, conv.space.dim), dtype=complex)
    for g, a in zip(conv.groupoid.arrows, conv.ops):
        if f[g] != 0:
            mat += f[g] * a
    return mat


def _structure_delta(gpd, weights, g, h):
    """delta_g * delta_h in structure-constant form, a label dict:
    c(src g) at gh when src(g) == rng(h), zero elsewhere."""
    out = {k: 0.0 + 0.0j for k in gpd.arrows}
    if gpd.src[g] == gpd.rng[h]:
        out[gpd.comp[(g, h)]] = weights[gpd.src[g]]
    return out


def _dense_star_pairs(conv):
    """The dense star certificate over all arrow pairs.  Per arrow g, in
    arrow order: the stack over the arrows g2 of L(g)* G L(g2), G the
    Gram diagonal; the mask of the g2 with g^-1 g2 composable, where
    delta_g* * delta_g2 is c(rng g) times the delta at g^-1 g2, read
    from row g^-1 of the composition table, and zero elsewhere; and the
    stack over the masked g2 of G L(delta_g* * delta_g2)."""
    t = conv.groupoid.codes
    c = object_weights(conv.groupoid, conv.weights)
    gram = np.diag(conv.space.gram_diagonal())
    for g, op in enumerate(conv.ops):
        row = t.comp[t.inv[g]]
        yield (op.conj().T @ gram @ conv.ops, row >= 0,
               gram @ (c[t.rng[g]] * conv.ops[row[row >= 0]]))


def _old_star_pairs(conv):
    """The certificate through structure-constant deltas and a sum over
    all arrows."""
    gpd, c = conv.groupoid, conv.weights
    gram = np.diag(conv.space.gram_diagonal())
    ops = dict(zip(gpd.arrows, conv.ops))
    for g in gpd.arrows:
        left = ops[g].conj().T @ gram
        for g2 in gpd.arrows:
            delta = _structure_delta(gpd, c, gpd.inv[g], g2)
            yield left @ ops[g2], gram @ _old_op(conv, delta)


def _dict_star_pairs(conv):
    """The certificate through one product per arrow pair, the delta at
    g^-1 g2 looked up in the label composition table."""
    gpd, c = conv.groupoid, conv.weights
    gram = np.diag(conv.space.gram_diagonal())
    pos = {g: i for i, g in enumerate(gpd.arrows)}
    zero = np.zeros(gram.shape, dtype=complex)
    for g, op in zip(gpd.arrows, conv.ops):
        left = op.conj().T @ gram
        h = gpd.inv[g]
        for g2, op2 in zip(gpd.arrows, conv.ops):
            k = gpd.comp.get((h, g2))
            rhs = zero if k is None \
                else gram @ (c[gpd.src[h]] * conv.ops[pos[k]])
            yield left @ op2, rhs


@pytest.mark.parametrize("rep", [r for _, r in CASES], ids=IDS)
def test_star_pairs_match_the_structure_constant_route(rep):
    conv = conv_rep_of(rep)
    n = len(rep.groupoid.arrows)
    new = []
    for lhs, hit, rhs in _dense_star_pairs(conv):
        full = np.zeros_like(lhs)
        full[hit] = rhs
        new += zip(lhs, full)
    for old in (list(_old_star_pairs(conv)), list(_dict_star_pairs(conv))):
        assert len(new) == len(old) == n ** 2
        for (lhs, rhs), (lhs0, rhs0) in zip(new, old):
            assert lhs.tobytes() == lhs0.tobytes()
            assert rhs.tobytes() == rhs0.tobytes()


def _compressed(conv, frame):
    """M(g) = F* G L(g) F for every arrow, F the frame of a disintegration."""
    return frame.adjoint().matrix @ conv.ops @ frame.matrix


@pytest.mark.parametrize("rep", [r for _, r in CASES], ids=IDS)
def test_range_pair_certificate_matches_the_dense_route(rep):
    # the new certificate passes where the dense one does, covers exactly
    # the pairs that share a range, and its two sides are the blocks of
    # the dense sides conjugated by the frame; every dense product over
    # two ranges vanishes, as the docstring lemma says once the off-block
    # defect is 0
    gpd = rep.groupoid
    t, c = gpd.codes, object_weights(gpd, rep.weights)
    conv = conv_rep_of(rep)
    rep2, out = disintegrate(conv)
    check = next(ch for ch in out.checks if ch.name == "star-certificate")
    assert check.passed and check.defect <= 1e-12
    f = rep2.frame.matrix
    blocks = _fibre_blocks(gpd, rep2.module, _compressed(conv, rep2.frame))
    defects, pairs = _star_certificate(gpd, c, blocks)
    same = np.nonzero(t.rng[:, None] == t.rng)
    assert sorted(map(tuple, pairs.tolist())) == sorted(zip(*same))
    assert np.all(defects <= 1e-12)
    m = blocks.shape[-1]
    start = np.searchsorted(rep2.module.left_codes,
                            np.arange(len(gpd.objects) + 1))
    fibre = [slice(a, b) for a, b in zip(start, start[1:])]
    dense = list(_dense_star_pairs(conv))
    assert max(relative_defects(lhs[hit], rhs).max()
               for lhs, hit, rhs in dense) <= 1e-12
    for g, (lhs, hit, rhs) in enumerate(dense):
        full = np.zeros_like(lhs)
        full[hit] = rhs
        lhs_c = f.conj().T @ lhs @ f
        rhs_c = f.conj().T @ full @ f
        for g2 in range(len(gpd.arrows)):
            if t.rng[g] != t.rng[g2]:
                assert max_abs(lhs[g2]) == 0.0 and max_abs(full[g2]) == 0.0
                continue
            rows, cols = fibre[t.src[g]], fibre[t.src[g2]]
            want = blocks[g].conj().T @ blocks[g2]
            want_r = c[t.rng[g]] * blocks[t.comp[t.inv[g], g2]]
            got = np.zeros((m, m), dtype=complex)
            got_r = np.zeros((m, m), dtype=complex)
            nr, nc = rows.stop - rows.start, cols.stop - cols.start
            got[:nr, :nc] = lhs_c[g2, rows, cols]
            got_r[:nr, :nc] = rhs_c[g2, rows, cols]
            assert relative_defects(np.array([got, got_r]),
                                    np.array([want, want_r])).max() <= 1e-12


@pytest.mark.parametrize("rep", [r for _, r in CASES], ids=IDS)
def test_offrange_products_within_the_lemma_bound(rep):
    # with off-block entries put in on purpose, each compressed product
    # over two ranges stays below D e (2 m + e) c(src g) c(src g2)
    gpd = rep.groupoid
    t, c = gpd.codes, object_weights(gpd, rep.weights)
    conv = conv_rep_of(rep)
    rep2, _ = disintegrate(conv)
    space, lc = conv.space, conv.space.left_codes
    rng = SplitMix64(12)
    ops = conv.ops.copy()
    for g in range(len(gpd.arrows)):
        outside = np.flatnonzero(lc != t.rng[g])
        if outside.size:
            r = outside[rng.randint(outside.size)]
            ops[g, r, rng.randint(space.dim)] += 1e-7 * c[t.src[g]]
    big = _compressed(ConvRep(gpd, rep.weights, space, ops), rep2.frame)
    small = big / c[t.src, None, None]
    ml = rep2.module.left_codes
    inside = (ml == t.rng[:, None])[:, :, None] & \
        (ml == t.src[:, None])[:, None, :]
    e = max_abs(np.where(inside, 0.0, small))
    m, dim = max_abs(small), rep2.module.dim
    if e == 0.0:
        pytest.skip("one fibre only: no pair spans two ranges")
    for g in range(len(gpd.arrows)):
        for g2 in np.flatnonzero(t.rng != t.rng[g]):
            prod = big[g].conj().T @ big[g2]
            bound = dim * e * (2 * m + e) * c[t.src[g]] * c[t.src[g2]]
            assert max_abs(prod) <= bound * (1 + 1e-12)


def _non_unit(gpd):
    """The position of the first arrow that is not a unit, or None."""
    units = set(gpd.codes.unit.tolist())
    return next((i for i in range(len(gpd.arrows)) if i not in units), None)


@pytest.mark.parametrize("rep", [r for _, r in CASES], ids=IDS)
def test_certificate_mutants_fail_on_their_own_side(rep):
    gpd = rep.groupoid
    t = gpd.codes
    conv = conv_rep_of(rep)
    lc = conv.space.left_codes
    i = _non_unit(gpd)
    if i is None:
        pytest.skip("units only")
    rows = np.flatnonzero(lc == t.rng[i])
    cols = np.flatnonzero(lc == t.src[i])
    others = np.flatnonzero(lc != t.rng[i])
    if not (rows.size and cols.size and others.size):
        pytest.skip("no fibre outside the block")
    r, col = rows[0], cols[0]

    def failing(ops):
        with pytest.raises(VerificationError) as err:
            disintegrate(ConvRep(gpd, rep.weights, conv.space, ops))
        return {line.split()[1] for line in str(err.value).splitlines()
                if line.startswith("FAIL ")}

    # an entry moved out of its block, to a row of another fibre
    moved = conv.ops.copy()
    moved[i, others[0], col], moved[i, r, col] = moved[i, r, col], 0.0
    assert "compression-offblock" in failing(moved)
    # a change inside the block: delta_g* delta_g is no longer c(rng g)
    # times the unit at src g
    bent = conv.ops.copy()
    bent[i, r, col] += 1e-6 * max(1.0, max_abs(bent[i]))
    assert failing(bent) == {"star-certificate"}
    dense = max(relative_defects(lhs[hit], rhs).max() for lhs, hit, rhs
                in _dense_star_pairs(ConvRep(gpd, rep.weights, conv.space,
                                             bent)))
    assert dense > 1e-9


def _old_support_pattern(conv):
    gpd, space = conv.groupoid, conv.space
    ops = dict(zip(gpd.arrows, conv.ops))
    defects, witnesses = [], []
    for g in gpd.arrows:
        for b in space.basis:
            for b2 in space.basis:
                if space.left[b] == gpd.src[g] \
                        and space.left[b2] == gpd.rng[g]:
                    continue
                defects.append(abs(ops[g][space.index[b2], space.index[b]]))
                witnesses.append((g, b2, b))
    d, k = worst_at(np.array(defects))
    return d, None if k is None else witnesses[k]


def _leaky(conv, entries):
    """conv with the given (arrow position, row, col) entries set."""
    ops = conv.ops.copy()
    for (i, r, c), v in entries.items():
        ops[i, r, c] = v
    gpd = conv.groupoid
    return ConvRep(gpd, conv.weights, conv.space, ops)


@pytest.mark.parametrize("rep", [r for _, r in CASES], ids=IDS)
def test_support_pattern_matches_the_triple_loop(rep):
    conv = conv_rep_of(rep)
    space, gpd = conv.space, conv.groupoid
    lc = space.left_codes
    outside = [(i, r, c) for i, g in enumerate(gpd.arrows)
               for r in range(space.dim) for c in range(space.dim)
               if not (space.left_space[lc[c]] == gpd.src[g]
                       and space.left_space[lc[r]] == gpd.rng[g])]
    variants = [conv]
    if outside:
        a, b = outside[0], outside[-1]
        variants += [
            _leaky(conv, {a: 0.5j}),
            # two equal leaks: the first in arrow, column, row order wins
            _leaky(conv, {a: 3.0 + 4.0j, b: 5.0}),
            _leaky(conv, {b: 3.0 + 4.0j, a: 5.0}),
            _leaky(conv, {a: 7.0, b: complex(np.nan, 0.0)}),
        ]
    for variant in variants:
        check = check_conv_rep(variant, []).checks[-1]
        assert check.name == "support-pattern"
        d, witness = _old_support_pattern(variant)
        assert (check.defect == d or np.isnan(check.defect) and np.isnan(d))
        assert check.witness == witness


def _old_oracle(rep, f):
    """oracle_integrate as a loop over the entries of each block."""
    gpd, c, module = rep.groupoid, rep.weights, rep.module
    fam = blockwise(rep)
    mat = np.zeros((module.dim, module.dim), dtype=complex)
    for g in gpd.arrows:
        coeff = f[g] * c[gpd.src[g]]
        if coeff == 0:
            continue
        sfib = module.left_fiber(gpd.src[g])
        tfib = module.left_fiber(gpd.rng[g])
        block = fam.raw[g]
        for j, m in enumerate(sfib):
            for i, m2 in enumerate(tfib):
                mat[module.index[m2], module.index[m]] += \
                    coeff * block[i, j]
    return mat


@pytest.mark.parametrize("rep", [r for _, r in CASES], ids=IDS)
def test_oracle_matches_the_entry_loop(rep):
    gpd = rep.groupoid
    rng = SplitMix64(9)
    funcs = [random_function(rng, gpd) for _ in range(2)]
    funcs += [delta_function(gpd, gpd.arrows[-1]),
              1.0 / np.arange(1.0, len(gpd.arrows) + 1.0) + 0j]
    oracle = oracle_integrate(blockwise(rep), np.array(funcs))
    for f, ora in zip(funcs, oracle):
        assert ora.tobytes() == _old_oracle(rep, _labels(gpd, f)).tobytes()


@pytest.mark.parametrize("rep", [r for _, r in CASES], ids=IDS)
def test_op_matches_the_arrow_order_loop(rep):
    gpd = rep.groupoid
    conv = conv_rep_of(rep)
    rng = SplitMix64(10)
    funcs = [random_function(rng, gpd) for _ in range(3)]
    funcs += [star(gpd, funcs[0]), identity_element(gpd, rep.weights)]
    funcs += [delta_function(gpd, g) for g in gpd.arrows]
    for f in funcs:
        assert relative_defects(conv.op(f).matrix[None],
                                _old_op(conv, _labels(gpd, f))[None])[0] \
            <= 1e-14


def _old_sqrt_factors(f, order):
    """integrate_rep's range and source factors of a label dict f, split
    by one loop per factor."""
    out2 = np.array([np.sqrt(abs(f[g])) for g in order])
    out1 = np.zeros(len(order), dtype=complex)
    for i, g in enumerate(order):
        if out2[i] > 0.0:
            out1[i] = np.conj(f[g]) / out2[i]
    return out1, out2


def test_sqrt_factors_match_the_old_loops(monkeypatch):
    seen = []
    split = intdis._sqrt_split

    def kept(funcs):
        seen.append(split(funcs))
        return seen[-1]
    monkeypatch.setattr(intdis, "_sqrt_split", kept)
    rng = SplitMix64(11)
    for name, rep in CASES:
        gpd = rep.groupoid
        f = random_function(rng, gpd)
        if len(f) < 3:
            continue
        f[:3] = 0.0, -2.5, complex(np.nan, 0.0)
        seen.clear()
        integrate_rep(rep, f)
        [(target, source)] = seen
        old_target, old_source = _old_sqrt_factors(_labels(gpd, f),
                                                   gpd.arrows)
        assert source[0].tobytes() == old_source.tobytes(), name
        assert target[0].tobytes() == old_target.tobytes(), name
        # the NaN arrow: no range factor, a NaN source factor
        assert target[0, 2] == 0.0 and np.isnan(source[0, 2]), name
        assert target[0, 0] == source[0, 0] == 0.0, name


@pytest.mark.parametrize("rep", [r for _, r in CASES], ids=IDS)
def test_stack_integrates_each_row_as_integrate_rep(rep):
    gpd = rep.groupoid
    n = len(gpd.arrows)
    rng = SplitMix64(13)
    funcs = [random_function(rng, gpd) for _ in range(4)]
    funcs += [delta_function(gpd, g) for g in gpd.arrows]
    holes = random_function(rng, gpd)
    holes[::2] = 0.0
    holes[n // 2] = complex(np.nan, 1.0)
    funcs += [holes, np.zeros(n, dtype=complex), 1e6 * funcs[0]]
    stack = _integrate(rep, np.array(funcs))
    assert stack.shape == (len(funcs), rep.module.dim, rep.module.dim)
    assert stack.tobytes() == integrate_rep(rep, np.array(funcs)).tobytes()
    for f, op in zip(funcs, stack):
        assert op.tobytes() == integrate_rep(rep, f).matrix.tobytes()
    # a NaN value reaches the block of its arrow, and only that block
    a, module = gpd.arrows[n // 2], rep.module
    block = np.ix_(module.left_positions(gpd.rng[a]),
                   module.left_positions(gpd.src[a]))
    nan = np.isnan(stack[-3])
    assert nan[block].any() == bool(nan[block].size)
    assert nan.sum() == nan[block].sum()


def _old_compression(conv, frame):
    """The compressed blocks and off-block defects, arrow by arrow."""
    gpd, c, space, module = conv.groupoid, conv.weights, conv.space, \
        frame.source
    unitaries, offblock = {}, []
    for g, op in zip(gpd.arrows, conv.ops):
        lg = ModuleMap(space, space, op / c[gpd.src[g]])
        small = frame.adjoint().compose(lg).compose(frame).matrix
        srows = [module.index[m] for m in module.left_fiber(gpd.src[g])]
        trows = [module.index[m] for m in module.left_fiber(gpd.rng[g])]
        mask = np.ones_like(small, dtype=bool)
        if trows and srows:
            mask[np.ix_(trows, srows)] = False
        offblock.append(max_abs(small[mask]))
        block = small[np.ix_(trows, srows)]
        unitaries[g] = np.sqrt(c[gpd.src[g]] / c[gpd.rng[g]]) * block
    return unitaries, max(offblock)


@pytest.mark.parametrize("rep", [r for _, r in CASES], ids=IDS)
def test_compression_matches_the_arrow_loop(monkeypatch, rep):
    seen = {}
    family = intdis.CocycleFamily

    def kept(gpd, weights, module, unitaries, raw=None):
        seen["unitaries"] = unitaries
        return family(gpd, weights, module, unitaries, raw)
    monkeypatch.setattr(intdis, "CocycleFamily", kept)
    conv = conv_rep_of(rep)
    rep2, out = disintegrate(conv)
    unitaries, offblock = _old_compression(conv, rep2.frame)
    assert list(seen["unitaries"]) == list(unitaries)
    for g, u in unitaries.items():
        assert seen["unitaries"][g].shape == u.shape
        assert seen["unitaries"][g].tobytes() == u.tobytes()
    check = next(c for c in out.checks if c.name == "compression-offblock")
    assert check.defect == offblock


# ---------------------------------------------------------------------------
# each representation's deltas are integrated once

def _inside(name):
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_code.co_name == name:
            return True
        frame = frame.f_back
    return False


@pytest.fixture
def counts(monkeypatch):
    """Count the integrated delta rows per (representation, delta arrow)
    and the disintegrate calls.  Every integration outside
    check_integration goes through intdis._integrate, one stack of rows
    per call; check_integration tests the integration itself on a batch
    that holds the deltas, through one integrator, so its rows are left
    out."""
    seen = {"deltas": Counter(), "reps": [], "arrows": {},
            "disintegrate": 0}
    integrate, disintegrate = intdis._integrate, intdis.disintegrate

    def counted_integrate(rep, funcs):
        if not _inside("check_integration"):
            for f in np.asarray(funcs):
                hot = np.flatnonzero(f).tolist()
                assert len(hot) == 1 and f[hot[0]] == 1.0
                if not any(r is rep for r in seen["reps"]):
                    seen["reps"].append(rep)
                    seen["arrows"][id(rep)] = rep.groupoid.arrows
                seen["deltas"][(id(rep), rep.groupoid.arrows[hot[0]])] += 1
        return integrate(rep, funcs)

    def counted_disintegrate(conv, tol=1e-9):
        seen["disintegrate"] += 1
        return disintegrate(conv, tol)

    monkeypatch.setattr(intdis, "_integrate", counted_integrate)
    monkeypatch.setattr(intdis, "disintegrate", counted_disintegrate)
    monkeypatch.setattr(cli, "disintegrate", counted_disintegrate)
    return seen


def _once_each(seen):
    for rep in seen["reps"]:
        for g in seen["arrows"][id(rep)]:
            assert seen["deltas"][(id(rep), g)] == 1, g
    assert sum(seen["deltas"].values()) == sum(
        len(a) for a in seen["arrows"].values())


@pytest.mark.parametrize("argv, reps, disintegrations", [
    # the representation, its disintegration, the induced representation
    (["disintegrate", "--preset", "W2"], 3, 1),
    # per trial: the representation and its disintegration
    (["roundtrip", "--preset", "P2", "--trials", "3"], 6, 3),
    # per fixture: the representation, its disintegration and the induced
    # representation; then the swap trafo's representation
    (["suite", "--trials", "1"], 3 * len(FIXTURE_NAMES) + 1,
     len(FIXTURE_NAMES)),
], ids=["disintegrate", "roundtrip", "suite"])
def test_each_representation_integrated_once(counts, capsys, argv, reps,
                                             disintegrations):
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(counts["reps"]) == reps
    assert counts["disintegrate"] == disintegrations
    _once_each(counts)


def test_trafo_integrates_once(counts, capsys, tmp_path):
    group, action = tmp_path / "group.json", tmp_path / "action.json"
    group.write_text('{"order": 3}')
    action.write_text('{"map": {"1": 2, "2": 3, "3": 1}}')
    assert cli.main(["trafo", "--group", str(group),
                     "--action", str(action)]) == 0
    capsys.readouterr()
    assert len(counts["reps"]) == 1
    _once_each(counts)
