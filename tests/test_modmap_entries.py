"""Entry-form module maps against the dense code they replaced.

The reference below is the dense code kept verbatim apart from names:
a DenseMap holding a full complex matrix, the balanced tensor that
scans every pair, the relabelings and tensor maps filled one entry at
a time, the dense grade-leak scan and the representation battery on
top of them.  Parity tests run both on the fixtures; mutant tests make
a named check fail and require the entry code to report the same
verdicts and witnesses.  Defects are compared up to rounding, since a
sum over the interface index may be taken in another order.
"""

import numpy as np
import pytest

from gcstar.cli import parse_preset
from gcstar.fingroupoid import FIXTURE_NAMES, fixture
from gcstar.hilbmod import (ModuleMap, associator, check_gamma,
                            gamma_compose, grade_leak, identity_map,
                            induced_unitary, is_intertwiner, lift, tensor,
                            tensor_map, tensor_map_left)
from gcstar.measures import (GradedSpace, arrow_correspondence,
                             check_corr_isomorphism, compose_families,
                             groupoid_families)
from gcstar.report import Report, max_abs, relative_defects
from gcstar.reps import (Representation, blockwise, check_cocycle,
                         check_intertwiner, check_representation,
                         face_transfer, from_cocycle, induce,
                         regular_representation)
from gcstar.sampling import SplitMix64, random_cocycle


# ---------------------------------------------------------------------------
# reference: the dense code

class DenseMap:
    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = np.asarray(matrix, dtype=complex)
        assert self.matrix.shape == (target.dim, source.dim)

    def compose(self, other):
        if other.target.basis != self.source.basis:
            raise ValueError("composition interface mismatch")
        return DenseMap(other.source, self.target,
                        self.matrix @ other.matrix)

    def adjoint(self):
        ws = self.source.gram_diagonal()
        wt = self.target.gram_diagonal()
        mat = self.matrix.conj().T * (wt[None, :] / ws[:, None])
        return DenseMap(self.target, self.source, mat)


def dense(m):
    return DenseMap(m.source, m.target, np.array(m.matrix))


def ref_tensor(e, f):
    """The balanced tensor by a scan of all pairs; also the point loop of
    the fibre product of two correspondences."""
    basis = tuple((a, b) for a in e.basis for b in f.basis
                  if e.right[a] == f.left[b])
    return GradedSpace(
        basis,
        {(a, b): e.left[a] for (a, b) in basis},
        {(a, b): f.right[b] for (a, b) in basis},
        {(a, b): e.weight[a] * f.weight[b] for (a, b) in basis},
        left_space=e.left_space, right_space=f.right_space)


def ref_grade_leak(m, side):
    codes = {}
    src = np.array([codes.setdefault(getattr(m.source, side)[b], len(codes))
                    for b in m.source.basis], dtype=int)
    tgt = np.array([codes.setdefault(getattr(m.target, side)[b], len(codes))
                    for b in m.target.basis], dtype=int)
    leak = np.hypot(m.matrix.real, m.matrix.imag).T
    leak[src[:, None] == tgt[None, :]] = 0.0
    if not leak.size:
        return 0.0, None
    j, i = divmod(int(np.argmax(leak)), leak.shape[1])
    worst = float(leak[j, i])
    if worst == 0.0:
        return 0.0, None
    return worst, (m.source.basis[j], m.target.basis[i])


def ref_require_graded(m, side):
    leak, bad = ref_grade_leak(m, side)
    if not leak <= 1e-13:
        raise ValueError(f"map moves {side} grade {bad[0]!r} -> {bad[1]!r}")


def ref_tensor_map(m, f):
    ref_require_graded(m, "right")
    src = ref_tensor(m.source, f)
    tgt = ref_tensor(m.target, f)
    mat = np.zeros((tgt.dim, src.dim), dtype=complex)
    for (a, b) in src.basis:
        j = src.index[(a, b)]
        for a2 in m.target.basis:
            if (a2, b) in tgt.index:
                mat[tgt.index[(a2, b)], j] = \
                    m.matrix[m.target.index[a2], m.source.index[a]]
    return DenseMap(src, tgt, mat)


def ref_tensor_map_left(e, m):
    ref_require_graded(m, "left")
    src = ref_tensor(e, m.source)
    tgt = ref_tensor(e, m.target)
    mat = np.zeros((tgt.dim, src.dim), dtype=complex)
    for (a, b) in src.basis:
        j = src.index[(a, b)]
        for b2 in m.target.basis:
            if (a, b2) in tgt.index:
                mat[tgt.index[(a, b2)], j] = \
                    m.matrix[m.target.index[b2], m.source.index[b]]
    return DenseMap(src, tgt, mat)


def ref_regroup(e, f, g):
    src = ref_tensor(ref_tensor(e, f), g)
    tgt = ref_tensor(e, ref_tensor(f, g))
    mat = np.zeros((tgt.dim, src.dim), dtype=complex)
    for ((a, b), c) in src.basis:
        mat[tgt.index[(a, (b, c))], src.index[((a, b), c)]] = 1.0
    return DenseMap(src, tgt, mat)


def ref_gamma_compose(lam, mu):
    src = ref_tensor(lam, mu)
    tgt = compose_families(lam, mu)
    mat = np.zeros((tgt.dim, src.dim), dtype=complex)
    for (x, y) in src.basis:
        mat[tgt.index[x], src.index[(x, y)]] = 1.0
    return DenseMap(src, tgt, mat)


def ref_induced_unitary(c1, c2, phi, delta):
    mat = np.zeros((c2.dim, c1.dim), dtype=complex)
    for x in c1.basis:
        y = phi[x]
        mat[c2.index[y], c1.index[x]] = np.sqrt(delta[c2.right[y]])
    return DenseMap(c1, c2, mat)


def ref_is_unitary(m, tol):
    rep = Report("module map")
    worst, bad = ref_grade_leak(m, "right")
    rep.add("right-grade-preserved", worst <= tol, defect=worst, witness=bad)
    d = max_abs(m.adjoint().compose(m).matrix - np.eye(m.source.dim))
    rep.add("isometry", d <= tol, defect=d)
    d = max_abs(m.compose(m.adjoint()).matrix - np.eye(m.target.dim))
    rep.add("coisometry", d <= tol, defect=d)
    return rep


def ref_face_transfer(rep, index):
    fam = rep.families
    lam = (fam.lam0, fam.lam1, fam.lam2)[index]
    module = rep.module
    gam_s = ref_tensor_map(ref_gamma_compose(lam, fam.alpha_r), module)
    gam_t = ref_tensor_map(ref_gamma_compose(lam, fam.alpha), module)
    reg_s = ref_regroup(lam, rep.source_leg, module)
    reg_t = ref_regroup(lam, rep.target_leg, module)
    mid = ref_tensor_map_left(lam, dense(rep.umap))
    return gam_t.compose(reg_t.adjoint()).compose(mid) \
        .compose(reg_s).compose(gam_s.adjoint())


def ref_check_representation(rep, tol=1e-10):
    u = dense(rep.umap)
    out = Report("representation")
    worst, bad = ref_grade_leak(u, "right")
    out.add("right-grade-preserved", worst <= tol, defect=worst, witness=bad)
    out.extend(ref_is_unitary(u, tol))
    worst, bad = ref_grade_leak(u, "left")
    out.add("arrow-left-grade-preserved", worst <= tol, defect=worst,
            witness=bad)
    out.extend(check_cocycle(blockwise(rep), tol), prefix="block-")
    try:
        d0, d1, d2 = (ref_face_transfer(rep, i) for i in range(3))
    except ValueError as exc:
        out.add("transfer-cocycle", False, witness=str(exc))
        return out
    d = max_abs(d1.matrix - d2.compose(d0).matrix)
    out.add("transfer-cocycle", d <= tol, defect=d)
    return out


def ref_check_gamma(gpd, weights, tol=1e-12):
    fam = groupoid_families(gpd, weights)
    rep = Report("gamma maps")
    for name, lam, mu in (
            ("compose-lam0-src", fam.lam0, fam.alpha_r),
            ("compose-lam0-rng", fam.lam0, fam.alpha),
            ("compose-lam1-src", fam.lam1, fam.alpha_r),
            ("compose-lam1-rng", fam.lam1, fam.alpha),
            ("compose-lam2-src", fam.lam2, fam.alpha_r),
            ("compose-lam2-rng", fam.lam2, fam.alpha)):
        rep.extend(ref_is_unitary(ref_gamma_compose(lam, mu), tol),
                   prefix=name + "-")
    return rep


def ref_check_intertwiner(rep1, rep2, vmap, tol=1e-10):
    vmap = dense(vmap)
    out = Report("intertwiner")
    worst, bad = ref_grade_leak(vmap, "right")
    out.add("right-grade-preserved", worst <= tol, defect=worst, witness=bad)
    leak, bad = ref_grade_leak(vmap, "left")
    out.add("object-grade-preserved", leak <= tol, defect=leak, witness=bad)
    if not leak <= 1e-13:
        out.add("commutes", False, witness="blocked by grade mismatch")
        return out
    lift_s = ref_tensor_map_left(rep1.source_leg, vmap)
    lift_t = ref_tensor_map_left(rep1.target_leg, vmap)
    one = lift_t.compose(dense(rep1.umap))
    two = dense(rep2.umap).compose(lift_s)
    d = relative_defects(one.matrix[None], two.matrix[None])[0]
    out.add("commutes", d <= tol, defect=d)
    return out


def ref_from_cocycle_matrix(rep, blocks_raw):
    mat = np.zeros((rep.target.dim, rep.source.dim), dtype=complex)
    gpd, module = rep.groupoid, rep.module
    for g in gpd.arrows:
        sfib = module.left_fiber(gpd.src[g])
        tfib = module.left_fiber(gpd.rng[g])
        for j, m in enumerate(sfib):
            col = rep.source.index[(g, m)]
            for i, m2 in enumerate(tfib):
                mat[rep.target.index[(g, m2)], col] = blocks_raw[g][i, j]
    return mat


def ref_blockwise(rep):
    """The blocks sliced from the dense matrix by label lookups."""
    gpd, c = rep.groupoid, rep.weights
    raw, uni = {}, {}
    for g in gpd.arrows:
        scols = [rep.source.index[(g, m)]
                 for m in rep.module.left_fiber(gpd.src[g])]
        trows = [rep.target.index[(g, m)]
                 for m in rep.module.left_fiber(gpd.rng[g])]
        block = rep.umap.matrix[np.ix_(trows, scols)] \
            if trows and scols else np.zeros((len(trows), len(scols)),
                                             dtype=complex)
        raw[g] = block
        uni[g] = np.sqrt(c[gpd.src[g]] / c[gpd.rng[g]]) * block
    return raw, uni


def ref_regular_matrix(gpd, weights):
    # ref_tensor is the point loop of the fibre product, so these are
    # the fibre products of the two legs with the arrow module
    fam = groupoid_families(gpd, weights)
    module = arrow_correspondence(gpd, weights, "s")
    fib_s = ref_tensor(fam.alpha_r, module)
    fib_t = ref_tensor(fam.alpha, module)
    phi = {(g, h): (g, gpd.comp[(g, h)]) for (g, h) in fib_s.basis}
    delta = {x: 1.0 for x in gpd.objects}
    check_corr_isomorphism(fib_s, fib_t, phi, delta).require()
    return ref_induced_unitary(fib_s, fib_t, phi, delta).matrix


# ---------------------------------------------------------------------------
# helpers

def same_reports(new, ref):
    """Same names, verdicts and witnesses; defects equal up to rounding."""
    got = [(c.name, c.passed, repr(c.witness)) for c in new.checks]
    want = [(c.name, c.passed, repr(c.witness)) for c in ref.checks]
    assert got == want
    for c, r in zip(new.checks, ref.checks):
        assert np.isnan(c.defect) == np.isnan(r.defect), c.name
        assert np.isnan(c.defect) or abs(c.defect - r.defect) <= 1e-14, \
            (c.name, c.defect, r.defect)


def cocycle_rep(name, seed=5, coeff_size=2):
    gpd, w = fixture(name)
    module, blocks = random_cocycle(SplitMix64(seed), gpd, w,
                                    coeff_size=coeff_size, max_dim=2)
    return gpd, w, module, blocks


def reps_of(name):
    gpd, w, module, blocks = cocycle_rep(name)
    return [regular_representation(gpd, w),
            from_cocycle(gpd, w, module, blocks)]


# ---------------------------------------------------------------------------
# parity on the fixtures

@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_tensor_basis_order_matches_scan(name):
    gpd, w = fixture(name)
    fam = groupoid_families(gpd, w)
    cs = arrow_correspondence(gpd, w, "s")
    cr = arrow_correspondence(gpd, w, "r")
    spaces = [fam.alpha, fam.alpha_r, fam.lam0, fam.lam1, fam.lam2, cs, cr]
    for e in spaces:
        for f in spaces:
            new, ref = tensor(e, f), ref_tensor(e, f)
            assert new.basis == ref.basis
            assert new.left == ref.left and new.right == ref.right
            assert new.weight == ref.weight


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_relabelings_exactly_equal(name):
    gpd, w = fixture(name)
    fam = groupoid_families(gpd, w)
    for lam in (fam.lam0, fam.lam1, fam.lam2):
        for mu in (fam.alpha, fam.alpha_r):
            assert np.array_equal(gamma_compose(lam, mu).matrix,
                                  ref_gamma_compose(lam, mu).matrix)
    e, f = fam.alpha, fam.alpha_r
    for a, b, c in ((e, f, e), (f, e, f), (e, e, f)):
        assert np.array_equal(associator(tensor(tensor(a, b), c),
                                         tensor(a, tensor(b, c))).matrix,
                              ref_regroup(a, b, c).matrix)
    c1 = fam.alpha
    phi = {p: p for p in c1.basis}
    delta = {x: 0.5 + x if isinstance(x, int) else 2.0 for x in gpd.objects}
    assert np.array_equal(induced_unitary(c1, c1, phi, delta).matrix,
                          ref_induced_unitary(c1, c1, phi, delta).matrix)
    assert np.array_equal(regular_representation(gpd, w).umap.matrix,
                          ref_regular_matrix(gpd, w))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_tensor_maps_and_adjoints_exactly_equal(name):
    for rep in reps_of(name):
        umap = rep.umap
        for leg in (rep.source_leg, rep.target_leg):
            assert np.array_equal(tensor_map_left(leg, umap).matrix,
                                  ref_tensor_map_left(leg,
                                                      dense(umap)).matrix)
        coeff = rep.module.right_space
        ebasis = GradedSpace([(c, "e") for c in coeff],
                             {(c, "e"): c for c in coeff},
                             {(c, "e"): "e" for c in coeff},
                             {(c, "e"): 2.0 for c in coeff})
        assert np.array_equal(tensor_map(umap, ebasis).matrix,
                              ref_tensor_map(dense(umap), ebasis).matrix)
        # a dense factor to lift, with zeros and a complex entry
        mat = np.array(umap.matrix)
        mat[mat != 0] *= 1.0 - 0.5j
        vdense = ModuleMap(umap.source, umap.target, mat)
        assert np.array_equal(tensor_map(vdense, ebasis).matrix,
                              ref_tensor_map(dense(vdense), ebasis).matrix)
        assert np.array_equal(umap.adjoint().matrix,
                              dense(umap).adjoint().matrix)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_face_transfers_exactly_equal(name):
    for rep in reps_of(name):
        for i in range(3):
            new, ref = face_transfer(rep, i), ref_face_transfer(rep, i)
            assert new.source.basis == ref.source.basis
            assert new.target.basis == ref.target.basis
            assert np.array_equal(new.matrix, ref.matrix)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_from_cocycle_exactly_equal(name):
    gpd, w, module, blocks = cocycle_rep(name)
    rep = from_cocycle(gpd, w, module, blocks)
    raw = {g: np.sqrt(w[gpd.rng[g]] / w[gpd.src[g]]) * np.asarray(blocks[g])
           for g in gpd.arrows}
    assert np.array_equal(rep.umap.matrix, ref_from_cocycle_matrix(rep, raw))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_battery_verdicts_match_reference(name):
    for rep in reps_of(name):
        same_reports(check_representation(rep), ref_check_representation(rep))
    gpd, w = fixture(name)
    same_reports(check_gamma(gpd, w), ref_check_gamma(gpd, w))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_intertwiner_verdicts_match_reference(name):
    gpd, w, module, blocks = cocycle_rep(name)
    rep = from_cocycle(gpd, w, module, blocks)
    n = module.dim
    rng = SplitMix64(11)
    same_left = np.array([[module.left[a] == module.left[b]
                           and module.right[a] == module.right[b]
                           for b in module.basis] for a in module.basis])
    graded = np.array([[rng.cgauss() for _ in range(n)]
                       for _ in range(n)]) * same_left
    leaking = np.ones((n, n), dtype=complex)
    for mat in (np.eye(n), 2.0 * np.eye(n), graded, leaking):
        vmap = ModuleMap(module, module, mat)
        same_reports(check_intertwiner(rep, rep, vmap),
                     ref_check_intertwiner(rep, rep, vmap))
    big = induce(rep, GradedSpace([(c, "e") for c in module.right_space],
                                  {(c, "e"): c for c in module.right_space},
                                  {(c, "e"): "e" for c in module.right_space},
                                  {(c, "e"): 1.0 for c in module.right_space}))
    same_reports(check_representation(big), ref_check_representation(big))


def _same_blocks(fam, raw, uni):
    for got, want in ((fam.raw, raw), (fam.unitaries, uni)):
        assert list(got) == list(want)
        for g in want:
            assert got[g].shape == want[g].shape, g
            assert np.array_equal(got[g], want[g]), g


@pytest.mark.parametrize("name", FIXTURE_NAMES + ("pair:4",))
def test_blockwise_entry_and_dense_forms_exactly_equal(name):
    gpd, w = fixture(name) if name in FIXTURE_NAMES else parse_preset(name)
    module, blocks = random_cocycle(SplitMix64(5), gpd, w, coeff_size=2,
                                    max_dim=2)
    for rep in (regular_representation(gpd, w),
                from_cocycle(gpd, w, module, blocks)):
        u = rep.umap
        assert u.vals is not None
        # one more entry, off every block: from the last arrow's vectors
        # to the first arrow's
        leaky = Representation(gpd, w, rep.module, ModuleMap(
            rep.source, rep.target, entries=(
                np.append(u.rows, 0), np.append(u.cols, rep.source.dim - 1),
                np.append(u.vals, 0.25j))))
        for r in (rep, leaky):
            raw, uni = ref_blockwise(r)
            dense_rep = Representation(gpd, w, r.module, ModuleMap(
                r.source, r.target, np.array(r.umap.matrix)))
            _same_blocks(blockwise(r), raw, uni)
            _same_blocks(blockwise(dense_rep), raw, uni)


def _graded(labels):
    grade = dict(zip(labels, ("u", "v")))
    return GradedSpace(labels, grade, grade, dict.fromkeys(labels, 1.0))


def test_lift_and_associator_refuse_factors_of_another_basis():
    # f has the size and grades of e, but other labels
    e, f, g = _graded(["a", "b"]), _graded(["c", "d"]), _graded(["x", "y"])
    m = ModuleMap(e, e, np.diag([2.0, 3.0j]))
    assert np.array_equal(lift(m, tensor(e, g), tensor(e, g), 0).matrix,
                          tensor_map(m, g).matrix)
    for src, tgt, side in ((tensor(f, g), tensor(e, g), 0),
                           (tensor(e, g), tensor(f, g), 0),
                           (tensor(e, g), tensor(e, f), 0),
                           (tensor(g, f), tensor(g, e), 1),
                           (tensor(f, e), tensor(g, e), 1)):
        with pytest.raises(ValueError, match="do not fit"):
            lift(m, src, tgt, side)
    for src, tgt in ((tensor(tensor(f, f), g), tensor(e, tensor(f, g))),
                     (tensor(tensor(e, f), g), tensor(e, tensor(e, g))),
                     (tensor(tensor(e, f), f), tensor(e, tensor(f, g)))):
        with pytest.raises(ValueError, match="different triples"):
            associator(src, tgt)
    assert identity_map(e).matrix.tolist() == np.eye(2).tolist()


# ---------------------------------------------------------------------------
# mutants

def _blocks_mutant(name, change):
    gpd, w, module, blocks = cocycle_rep(name)
    blocks = {g: np.array(b, dtype=complex) for g, b in blocks.items()}
    change(gpd, blocks)
    return from_cocycle(gpd, w, module, blocks)


def _last_non_unit(gpd):
    units = set(gpd.unit.values())
    return [g for g in gpd.arrows if g not in units][-1]


@pytest.mark.parametrize("name", ["Z2", "P2", "W2", "T2"])
def test_non_multiplicative_block_fails_transfer(name):
    def flip(gpd, blocks):
        g = _last_non_unit(gpd)
        blocks[g] = blocks[g] * np.exp(0.3j)
    rep = _blocks_mutant(name, flip)
    new, ref = check_representation(rep), ref_check_representation(rep)
    same_reports(new, ref)
    transfer = {c.name: c for c in new.checks}["transfer-cocycle"]
    assert not transfer.passed and transfer.defect > 0.1


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_nan_block_matches_reference(name):
    def poison(gpd, blocks):
        g = gpd.arrows[-1]
        blocks[g] = np.full_like(blocks[g], np.nan)
    rep = _blocks_mutant(name, poison)
    new, ref = check_representation(rep), ref_check_representation(rep)
    same_reports(new, ref)
    assert not new.ok
    transfer = {c.name: c for c in new.checks}["transfer-cocycle"]
    assert not transfer.passed and np.isnan(transfer.defect)


@pytest.mark.parametrize("name", ["Z2", "P2", "W2", "X2"])
def test_grade_leaking_unitary_matches_reference(name):
    gpd, w, module, blocks = cocycle_rep(name)
    good = from_cocycle(gpd, w, module, blocks)
    u = good.umap
    # mass from the first arrow's column into the last arrow's row
    g0, g1 = gpd.arrows[0], gpd.arrows[-1]
    col = next(i for i, (g, _) in enumerate(u.source.basis) if g == g0)
    row = next(i for i, (g, _) in enumerate(u.target.basis) if g == g1)
    leak = ModuleMap(u.source, u.target, entries=(
        np.append(u.rows, row), np.append(u.cols, col),
        np.append(u.vals, 0.25 + 0.5j)))
    rep = Representation(gpd, w, module, leak)
    new, ref = check_representation(rep), ref_check_representation(rep)
    same_reports(new, ref)
    checks = {c.name: c for c in new.checks}
    assert not checks["arrow-left-grade-preserved"].passed
    assert not checks["transfer-cocycle"].passed
    assert "map moves left grade" in checks["transfer-cocycle"].witness


def test_grade_leak_tie_takes_first_source_in_any_entry_order():
    sp = GradedSpace(("a", "b", "c"), {"a": "x", "b": "y", "c": "x"},
                     {"a": 0, "b": 0, "c": 0}, {"a": 1.0, "b": 1.0, "c": 1.0})
    tp = GradedSpace(("d", "e", "f"), {"d": "x", "e": "y", "f": "y"},
                     {"d": 0, "e": 0, "f": 0}, {"d": 1.0, "e": 1.0, "f": 1.0})
    # three leaks of size 2 ((a, e), (a, f), (c, e)) stored target-major
    # and reversed; the scan must still name (a, e)
    rows, cols = [2, 1, 1, 0], [2, 2, 0, 1]
    vals = [2.0j, 2.0, -2.0, 1.0]
    m = ModuleMap(sp, tp, entries=(rows, cols, vals))
    ref = DenseMap(sp, tp, m.matrix)
    assert grade_leak(m, "left") == ref_grade_leak(ref, "left") \
        == (2.0, ("a", "e"))
    out = is_intertwiner(m, tol=0.5)
    assert not out.ok and out.checks[0].witness == ("a", "e")


@pytest.mark.parametrize("kind", ["planted", "none", "tie", "nan"])
def test_grade_leak_entries_match_dense(kind):
    rng = SplitMix64(23)
    grades = ("x", "y", 3)
    for _ in range(30):
        sb = tuple(("s", i) for i in range(1 + rng.randint(6)))
        tb = tuple(("t", i) for i in range(1 + rng.randint(6)))
        src = GradedSpace(sb, {b: rng.choice(grades) for b in sb},
                          {b: rng.choice(grades) for b in sb},
                          {b: 1.0 for b in sb})
        tgt = GradedSpace(tb, {b: rng.choice(grades) for b in tb},
                          {b: rng.choice(grades) for b in tb},
                          {b: 1.0 for b in tb})
        mat = np.array([[rng.cgauss() for _ in sb] for _ in tb])
        mat[np.abs(mat) < 0.7] = 0.0
        leaks = [(i, j) for i, b2 in enumerate(tb) for j, b in enumerate(sb)
                 if tgt.left[b2] != src.left[b]]
        if kind == "none":
            for i, j in leaks:
                mat[i, j] = 0.0
        if kind in ("planted", "nan") and leaks:
            i, j = leaks[rng.randint(len(leaks))]
            mat[i, j] = 3.0 + 4.0j if kind == "planted" else np.nan
        if kind == "tie":
            for n, (i, j) in enumerate(leaks):
                mat[i, j] = (2.0, -2.0, 2.0j)[n % 3]
        rows, cols = np.nonzero(mat)
        order = np.arange(len(rows))[::-1]
        m = ModuleMap(src, tgt, entries=(rows[order], cols[order],
                                         mat[rows, cols][order]))
        want = ref_grade_leak(DenseMap(src, tgt, mat), "left")
        assert repr(grade_leak(m, "left")) == repr(want)
        # a dense map reads its nonzeros and takes the same scan
        dense = ModuleMap(src, tgt, mat)
        assert repr(grade_leak(dense, "left")) == repr(want)


def test_dense_factor_composes_densely():
    rep = reps_of("W2")[1]
    u = rep.umap
    d = ModuleMap(u.target, u.target, np.eye(u.target.dim) * (1.0 + 1.0j))
    out = d.compose(u)
    assert out.vals is None
    assert np.array_equal(out.matrix, d.matrix @ u.matrix)


def test_entry_matrix_is_read_only():
    u = reps_of("P2")[1].umap
    assert u.vals is not None
    with pytest.raises(ValueError):
        u.matrix[0, 0] = 1.0
    # the view is cached: one array per map
    assert u.matrix is u.matrix


@pytest.mark.parametrize("entries", [
    ([0, 1], [0], [1.0, 1.0]),              # lengths differ
    ([[0, 1]], [[0, 1]], [[1.0, 1.0]]),     # not flat
    ([2], [0], [1.0]),                      # row past the target
    ([0], [2], [1.0]),                      # column past the source
    ([-1], [0], [1.0]),                     # negative row
    ([0], [-1], [1.0]),                     # negative column
    ([0, 1, 0], [1, 0, 1], [1.0, 2.0, 3.0]),  # (0, 1) twice
])
def test_bad_entries_raise(entries):
    sp = GradedSpace(("a", "b"), {"a": 0, "b": 0}, {"a": 0, "b": 0},
                     {"a": 1.0, "b": 1.0})
    with pytest.raises(ValueError):
        ModuleMap(sp, sp, entries=entries)
    ModuleMap(sp, sp, entries=([0, 1, 1], [1, 0, 1], [1.0, 2.0, 3.0]))
