"""Entry-form module maps against the dense code they replaced.

The reference below is the dense code kept verbatim apart from names:
a DenseMap holding a full complex matrix, the balanced tensor that
scans every pair, the relabelings and tensor maps filled one entry at
a time, the dense grade-leak scan and the representation battery on
top of them.  Parity tests run both on the fixtures; mutant tests make
a named check fail and require the entry code to report the same
verdicts and witnesses.  Defects are compared up to rounding, since a
sum over the interface index may be taken in another order.

The entry code that weighted partial permutations replaced is kept too:
the join-and-sum compose, the sorted duplicate check, entry_gap by the
sum over the concatenation and the sorted grade-leak scan.  The gather
route must give their entries bit for bit.
"""

import numpy as np
import pytest

from gcstar import hilbmod
from gcstar.cli import parse_preset
from gcstar.fingroupoid import FIXTURE_NAMES, fixture
from gcstar.hilbmod import (ModuleMap, associator, check_gamma,
                            entry_gap, gamma_compose, grade_leak,
                            identity_map, induced_unitary, is_intertwiner,
                            lift, tensor, tensor_map_left)
from gcstar.measures import (GradedSpace, GroupoidFamilies,
                             arrow_correspondence, check_corr_isomorphism,
                             compose_families)
from gcstar.report import Report, max_abs, relative_defects, worst_at
from gcstar.reps import (Representation, blockwise, check_cocycle,
                         check_intertwiner, check_representation,
                         face_transfer, from_cocycle, induce,
                         regular_representation)
from gcstar.sampling import SplitMix64, random_cocycle

from test_measures import positions, views
from test_reps import per_arrow


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
                  if views(e).right[a] == views(f).left[b])
    return GradedSpace(
        basis,
        {(a, b): views(e).left[a] for (a, b) in basis},
        {(a, b): views(f).right[b] for (a, b) in basis},
        {(a, b): views(e).weight[a] * views(f).weight[b] for (a, b) in basis},
        left_space=e.left_space, right_space=f.right_space)


def ref_grade_leak(m, side):
    codes = {}
    grade_s, grade_t = (getattr(views(m.source), side),
                        getattr(views(m.target), side))
    src = np.array([codes.setdefault(grade_s[b], len(codes))
                    for b in m.source.basis], dtype=int)
    tgt = np.array([codes.setdefault(grade_t[b], len(codes))
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


def ref_sorted_grade_leak(m, side):
    """grade_leak as it was before the no-crossing shortcut: the entries
    sorted source-major, every one of them scanned."""
    codes = {}
    src, tgt = (
        np.array([codes.setdefault(y, len(codes))
                  for y in getattr(space, side + "_space")],
                 dtype=np.intp)[getattr(space, side + "_codes")]
        for space in (m.source, m.target))
    rows, cols, vals = hilbmod._entries(m)
    order = np.lexsort((rows, cols))
    rows, cols, vals = rows[order], cols[order], vals[order]
    d, k = worst_at(np.where(src[cols] == tgt[rows], 0.0,
                             np.hypot(vals.real, vals.imag)))
    return d, None if k is None else (m.source.basis[cols[k]],
                                      m.target.basis[rows[k]])


def ref_join_compose(a, b):
    """The entries of a after b by the join on the interface index and
    the sum of the products at each position, row-major: the compose of
    two entry maps before partial permutations took a gather."""
    keys, wanted = a.cols, b.rows
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=a.source.dim)
    first = np.cumsum(counts) - counts
    reps = counts[wanted]
    t = np.repeat(np.arange(len(wanted)), reps)
    within = np.arange(len(t)) - np.repeat(np.cumsum(reps) - reps, reps)
    s = order[first[wanted][t] + within]
    return ref_summed(a.rows[s], b.cols[t], a.vals[s] * b.vals[t],
                      b.source.dim)


def ref_summed(rows, cols, vals, ncols):
    keys = rows.astype(np.int64) * ncols + cols
    uniq, inv = np.unique(keys, return_inverse=True)
    out = np.empty(len(uniq), dtype=complex)
    out.real = np.bincount(inv, weights=vals.real, minlength=len(uniq))
    out.imag = np.bincount(inv, weights=vals.imag, minlength=len(uniq))
    rows, cols = np.divmod(uniq, max(ncols, 1))
    return rows, cols, out


def ref_entry_gap(a, b):
    """entry_gap of two entry maps by the sum over the concatenation."""
    _, _, diff = ref_summed(np.concatenate((a.rows, b.rows)),
                            np.concatenate((a.cols, b.cols)),
                            np.concatenate((a.vals, -b.vals)), a.source.dim)
    return max_abs(diff)


def ref_repeats(rows, cols, ncols):
    """Whether entries hold a position twice, by their sorted keys."""
    key = np.sort(np.asarray(rows, dtype=np.int64) * ncols
                  + np.asarray(cols, dtype=np.int64))
    return bool(np.any(key[1:] == key[:-1]))


def ref_require_graded(m, side):
    leak, bad = ref_grade_leak(m, side)
    if not leak <= 1e-13:
        raise ValueError(f"map moves {side} grade {bad[0]!r} -> {bad[1]!r}")


def tensor_map(m, f):
    """m tensor identity by lift; m must preserve right grades.  The
    batteries lift on the left only (tensor_map_left), so this right
    lift is kept here as a reference."""
    return lift(m, tensor(m.source, f), tensor(m.target, f), 0)


def ref_tensor_map(m, f):
    ref_require_graded(m, "right")
    src = ref_tensor(m.source, f)
    tgt = ref_tensor(m.target, f)
    mat = np.zeros((tgt.dim, src.dim), dtype=complex)
    at_s, at_t = views(src).index, views(tgt).index
    at_ms, at_mt = views(m.source).index, views(m.target).index
    for (a, b) in src.basis:
        j = at_s[(a, b)]
        for a2 in m.target.basis:
            if (a2, b) in at_t:
                mat[at_t[(a2, b)], j] = m.matrix[at_mt[a2], at_ms[a]]
    return DenseMap(src, tgt, mat)


def ref_tensor_map_left(e, m):
    ref_require_graded(m, "left")
    src = ref_tensor(e, m.source)
    tgt = ref_tensor(e, m.target)
    mat = np.zeros((tgt.dim, src.dim), dtype=complex)
    at_s, at_t = views(src).index, views(tgt).index
    at_ms, at_mt = views(m.source).index, views(m.target).index
    for (a, b) in src.basis:
        j = at_s[(a, b)]
        for b2 in m.target.basis:
            if (a, b2) in at_t:
                mat[at_t[(a, b2)], j] = m.matrix[at_mt[b2], at_ms[b]]
    return DenseMap(src, tgt, mat)


def ref_regroup(e, f, g):
    src = ref_tensor(ref_tensor(e, f), g)
    tgt = ref_tensor(e, ref_tensor(f, g))
    mat = np.zeros((tgt.dim, src.dim), dtype=complex)
    for ((a, b), c) in src.basis:
        mat[views(tgt).index[(a, (b, c))], views(src).index[((a, b), c)]] = 1.0
    return DenseMap(src, tgt, mat)


def ref_gamma_compose(lam, mu):
    src = ref_tensor(lam, mu)
    tgt = compose_families(lam, mu)
    mat = np.zeros((tgt.dim, src.dim), dtype=complex)
    for (x, y) in src.basis:
        mat[views(tgt).index[x], views(src).index[(x, y)]] = 1.0
    return DenseMap(src, tgt, mat)


def ref_induced_unitary(c1, c2, phi, delta):
    mat = np.zeros((c2.dim, c1.dim), dtype=complex)
    v1, v2 = views(c1), views(c2)
    for x in c1.basis:
        y = phi[x]
        mat[v2.index[y], v1.index[x]] = np.sqrt(delta[v2.right[y]])
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
    fam = GroupoidFamilies(gpd, weights)
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
    src, tgt = views(rep.source).index, views(rep.target).index
    for g, block in zip(gpd.arrows, blocks_raw):
        sfib = module.left_fiber(gpd.src[g])
        tfib = module.left_fiber(gpd.rng[g])
        for j, m in enumerate(sfib):
            for i, m2 in enumerate(tfib):
                mat[tgt[(g, m2)], src[(g, m)]] = block[i, j]
    return mat


def ref_blockwise(rep):
    """The blocks sliced from the dense matrix by label lookups, as two
    lists in arrow order."""
    gpd, c = rep.groupoid, rep.weights
    src, tgt = views(rep.source).index, views(rep.target).index
    raw, uni = [], []
    for g in gpd.arrows:
        scols = [src[(g, m)] for m in rep.module.left_fiber(gpd.src[g])]
        trows = [tgt[(g, m)] for m in rep.module.left_fiber(gpd.rng[g])]
        block = rep.umap.matrix[np.ix_(trows, scols)] \
            if trows and scols else np.zeros((len(trows), len(scols)),
                                             dtype=complex)
        raw.append(block)
        uni.append(np.sqrt(c[gpd.src[g]] / c[gpd.rng[g]]) * block)
    return raw, uni


def ref_regular_matrix(gpd, weights):
    # ref_tensor is the point loop of the fibre product, so these are
    # the fibre products of the two legs with the arrow module
    fam = GroupoidFamilies(gpd, weights)
    module = arrow_correspondence(gpd, weights, "s")
    fib_s = ref_tensor(fam.alpha_r, module)
    fib_t = ref_tensor(fam.alpha, module)
    phi = {(g, h): (g, gpd.comp[(g, h)]) for (g, h) in fib_s.basis}
    delta = {x: 1.0 for x in gpd.objects}
    check_corr_isomorphism(fib_s, fib_t,
                           *positions(fib_s, fib_t, phi, delta)).require()
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
    return gpd, w, module, list(blocks.values())


def reps_of(name):
    gpd, w, module, blocks = cocycle_rep(name)
    return [regular_representation(gpd, w),
            from_cocycle(gpd, w, module, blocks)]


# ---------------------------------------------------------------------------
# parity on the fixtures

@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_tensor_basis_order_matches_scan(name):
    gpd, w = fixture(name)
    fam = GroupoidFamilies(gpd, w)
    cs = arrow_correspondence(gpd, w, "s")
    cr = arrow_correspondence(gpd, w, "r")
    spaces = [fam.alpha, fam.alpha_r, fam.lam0, fam.lam1, fam.lam2, cs, cr]
    for e in spaces:
        for f in spaces:
            new, ref = tensor(e, f), ref_tensor(e, f)
            assert new.basis == ref.basis
            for view in ("left", "right", "weight"):
                assert getattr(views(new), view) == getattr(views(ref), view)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_relabelings_exactly_equal(name):
    gpd, w = fixture(name)
    fam = GroupoidFamilies(gpd, w)
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
    assert np.array_equal(
        induced_unitary(c1, c1, *positions(c1, c1, phi, delta)).matrix,
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
    raw = [np.sqrt(w[gpd.rng[g]] / w[gpd.src[g]]) * np.asarray(b)
           for g, b in zip(gpd.arrows, blocks)]
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
    same_left = np.array([[views(module).left[a] == views(module).left[b]
                           and views(module).right[a] == views(module).right[b]
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
    for got, want in ((per_arrow(fam, fam.raw), raw),
                      (per_arrow(fam, fam.unitaries), uni)):
        assert len(got) == len(want)
        for k, (a, b) in enumerate(zip(got, want)):
            assert a.shape == b.shape, k
            assert np.array_equal(a, b), k


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
    blocks = [np.array(b, dtype=complex) for b in blocks]
    change(gpd, blocks)
    return from_cocycle(gpd, w, module, blocks)


def _last_non_unit(gpd):
    units = set(gpd.unit.values())
    return [g for g in gpd.arrows if g not in units][-1]


@pytest.mark.parametrize("name", ["Z2", "P2", "W2", "T2"])
def test_non_multiplicative_block_fails_transfer(name):
    def flip(gpd, blocks):
        k = gpd.arrows.index(_last_non_unit(gpd))
        blocks[k] = blocks[k] * np.exp(0.3j)
    rep = _blocks_mutant(name, flip)
    new, ref = check_representation(rep), ref_check_representation(rep)
    same_reports(new, ref)
    transfer = {c.name: c for c in new.checks}["transfer-cocycle"]
    assert not transfer.passed and transfer.defect > 0.1


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_nan_block_matches_reference(name):
    def poison(gpd, blocks):
        blocks[-1] = np.full_like(blocks[-1], np.nan)
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


@pytest.mark.parametrize("kind", ["planted", "none", "tie", "nan",
                                  "nan-inside", "zero-crossing"])
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
                 if views(tgt).left[b2] != views(src).left[b]]
        if kind in ("none", "nan-inside", "zero-crossing"):
            for i, j in leaks:
                mat[i, j] = 0.0
        if kind in ("planted", "nan") and leaks:
            i, j = leaks[rng.randint(len(leaks))]
            mat[i, j] = 3.0 + 4.0j if kind == "planted" else np.nan
        if kind == "tie":
            for n, (i, j) in enumerate(leaks):
                mat[i, j] = (2.0, -2.0, 2.0j)[n % 3]
        if kind == "nan-inside":
            inside = [(i, j) for i, b2 in enumerate(tb)
                      for j, b in enumerate(sb)
                      if views(tgt).left[b2] == views(src).left[b]]
            if inside:
                i, j = inside[rng.randint(len(inside))]
                mat[i, j] = np.nan
        rows, cols = np.nonzero(mat)
        vals = mat[rows, cols]
        if kind == "zero-crossing":
            # an explicit zero stored on a free crossing position
            free = [(i, j) for i, j in leaks if mat[i, j] == 0.0]
            if free:
                i, j = free[rng.randint(len(free))]
                rows, cols = np.append(rows, i), np.append(cols, j)
                vals = np.append(vals, 0.0)
        order = np.arange(len(rows))[::-1]
        m = ModuleMap(src, tgt, entries=(rows[order], cols[order],
                                         vals[order]))
        want = ref_grade_leak(DenseMap(src, tgt, mat), "left")
        assert repr(grade_leak(m, "left")) \
            == repr(ref_sorted_grade_leak(m, "left")) == repr(want)
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


# ---------------------------------------------------------------------------
# weighted partial permutations: the gather route against the join

def _dense(m):
    """The dense matrix of a map, not cached on it."""
    if m.vals is None:
        return m.matrix
    mat = np.zeros((m.target.dim, m.source.dim), dtype=complex)
    mat[m.rows, m.cols] = m.vals
    return mat


def _same_entries(m, want):
    rows, cols, vals = want
    assert np.array_equal(m.rows, rows) and np.array_equal(m.cols, cols)
    assert m.vals.tobytes() == np.asarray(vals, dtype=complex).tobytes()


def _record_composes(monkeypatch):
    """Keep each compose call as (self, other, result, lookups), lookups
    counting the position lookups of the gather route in that call."""
    calls, lookups = [], []
    meet, compose = hilbmod._meet, ModuleMap.compose

    def counted(keys, n, wanted):
        lookups.append(n)
        return meet(keys, n, wanted)

    def recorded(self, other):
        before = len(lookups)
        out = compose(self, other)
        calls.append((self, other, out, len(lookups) - before))
        return out

    monkeypatch.setattr(hilbmod, "_meet", counted)
    monkeypatch.setattr(ModuleMap, "compose", recorded)
    return calls


# the dense products of larger maps (pair:8's face transfers run over
# 4,096 points) are left to the bit-for-bit join reference
_DENSE_CAP = 1 << 18


def _check_composes(calls):
    """Every recorded compose against the join-and-sum reference bit for
    bit and, where small, the dense product: exactly for a gather, one
    product per position, up to rounding for a join, which may add its
    terms in another order; returns (gathers, joins)."""
    routes = [0, 0]
    for a, b, out, lookups in calls:
        assert a.vals is not None and b.vals is not None
        perm = a.partial_perm or b.partial_perm
        assert lookups == perm
        routes[not perm] += 1
        _same_entries(out, ref_join_compose(a, b))
        if max(a.target.dim, a.source.dim, b.source.dim) ** 2 > _DENSE_CAP:
            continue
        got, want = _dense(out), _dense(a) @ _dense(b)
        if perm:
            assert np.array_equal(got, want)
        else:
            assert relative_defects(got[None], want[None])[0] <= 1e-14
    return tuple(routes)


@pytest.mark.parametrize("name", FIXTURE_NAMES + (
    "pair:8", "group:8", "transformation:4", "random"))
def test_gather_compose_equals_join_and_dense_product(name, monkeypatch):
    gpd, w = parse_preset(name, seed=7)
    module, blocks = random_cocycle(SplitMix64(5), gpd, w, coeff_size=2,
                                    max_dim=2)
    reps = [regular_representation(gpd, w),
            from_cocycle(gpd, w, module, blocks)]
    coeff = module.right_space
    ebasis = GradedSpace([(c, "e") for c in coeff],
                         {(c, "e"): c for c in coeff},
                         {(c, "e"): "e" for c in coeff},
                         {(c, "e"): 1.0 for c in coeff})
    calls = _record_composes(monkeypatch)
    for rep in reps:
        # is_unitary, the three face transfers and d2.compose(d0)
        assert check_representation(rep).ok
        induce(rep, ebasis)
    assert check_gamma(gpd, w).ok
    monkeypatch.undo()
    gathers, joins = _check_composes(calls)
    assert gathers > 0
    # the regular unitary and its transfers are partial permutations
    # throughout; a cocycle with a 2 x 2 block leaves the transfers of
    # the cocycle representation to the join
    assert reps[0].umap.partial_perm
    if not reps[1].umap.partial_perm:
        assert joins > 0


def _space(n):
    labels = tuple(range(n))
    return GradedSpace(labels, dict.fromkeys(labels, 0),
                       dict.fromkeys(labels, 0), dict.fromkeys(labels, 1.0))


@pytest.mark.parametrize("entries, message", [
    # injective in its columns, a row twice: valid, not a permutation
    (([0, 0, 2], [0, 1, 2], [1.0, 2.0, 3.0]), None),
    # injective in its rows, a column twice
    (([0, 1, 2], [1, 1, 0], [1.0, 2.0, 3.0]), None),
    (([0, 1, 0], [1, 0, 1], [1.0, 2.0, 3.0]), "entries hold a position twice"),
    (([2, 1, 2], [0, 0, 0], [1.0, 2.0, 3.0]), "entries hold a position twice"),
    (([0, 1], [0], [1.0, 1.0]),
     "entry rows, cols and vals must be flat arrays of one length"),
    (([3], [0], [1.0]), "entry index outside 3 x 3"),
    (([0], [3], [1.0]), "entry index outside 3 x 3"),
    (([-1], [0], [1.0]), "entry index outside 3 x 3"),
    (([0, 1], [-1, 0], [1.0, 1.0]), "entry index outside 3 x 3"),
    (([0, 2], [1, 0], [np.nan, 1.0]), None),
    (([0, 0], [1, 2], [np.nan, 1.0]), None),
    (([], [], []), None),
])
def test_constructor_mutants_keep_their_messages(entries, message):
    sp = _space(3)
    if message is not None:
        with pytest.raises(ValueError, match=f"^{message}$"):
            ModuleMap(sp, sp, entries=entries)
        return
    m = ModuleMap(sp, sp, entries=entries)
    rows, cols, _ = entries
    assert not ref_repeats(rows, cols, sp.dim)
    assert m.partial_perm == (len(set(rows)) == len(rows)
                              and len(set(cols)) == len(cols))
    assert not ModuleMap(sp, sp, _dense(m)).partial_perm


def test_moved_entry_loses_the_flag_and_composes_by_the_join(monkeypatch):
    u = regular_representation(*fixture("P2")).umap
    assert u.partial_perm
    # the last entry moved onto the row of the first, a free position
    rows = u.rows.copy()
    rows[-1] = rows[0]
    moved = ModuleMap(u.source, u.target, entries=(rows, u.cols, u.vals))
    assert not moved.partial_perm
    other = moved.adjoint()
    assert not other.partial_perm
    calls = _record_composes(monkeypatch)
    for a, b in ((moved, other), (other, moved), (moved, identity_map(
            u.source)), (u.adjoint(), moved)):
        a.compose(b)
    monkeypatch.undo()
    assert [c[3] for c in calls] == [0, 0, 1, 1]
    assert _check_composes(calls) == (2, 2)


@pytest.mark.parametrize("case", ["nan", "inf", "inf-inf", "negative-zero",
                                  "permuted", "permuted-in-row",
                                  "other-support"])
def test_entry_gap_matches_the_concatenated_sum(case, monkeypatch):
    sp = _space(4)
    rows, cols = np.array([0, 1, 3, 3]), np.array([2, 0, 1, 3])
    a = np.array([1.0, -2.0j, 0.5 + 0.5j, 3.0])
    b = np.array([1.0, -2.0j, 0.25, 3.0 - 1e-12])
    order = np.arange(4)
    if case == "nan":
        a[1] = np.nan
    if case == "inf":
        b[2] = np.inf
    if case == "inf-inf":
        a[0] = b[0] = -np.inf
    if case == "negative-zero":
        a = np.array([-0.0, 0.0, -0.0j, 1.0])
        b = np.array([0.0, -0.0, 0.0, 1.0])
    if case == "permuted":
        order = np.array([2, 0, 3, 1])
    if case == "permuted-in-row":
        # equal rows arrays, the two columns of row 3 swapped
        order = np.array([0, 1, 3, 2])
    ma = ModuleMap(sp, sp, entries=(rows, cols, a))
    if case == "other-support":
        mb = ModuleMap(sp, sp, entries=(rows[:3], cols[:3], b[:3]))
    else:
        mb = ModuleMap(sp, sp, entries=(rows[order], cols[order], b[order]))
    summed = []
    monkeypatch.setattr(hilbmod, "_summed",
                        lambda *args: summed.append(1)
                        or ref_summed(*args))
    got = entry_gap(ma, mb)
    assert repr(got) == repr(ref_entry_gap(ma, mb))
    # equal supports in equal order skip the sum
    assert len(summed) == (case in ("permuted", "permuted-in-row",
                                    "other-support"))


def test_gather_keeps_the_bits_of_the_one_term_sum():
    # conjugated real values carry -0.0 imaginary parts, whose products
    # the join's sum turns into 0.0; NaN passes through both routes
    sp = _space(3)
    perm = ModuleMap(sp, sp, entries=([0, 1, 2], [2, 0, 1],
                                      [1.0, np.nan, -0.0 + 2.0j]))
    other = ModuleMap(sp, sp, entries=([0, 0, 1, 2], [0, 1, 1, 2],
                                       [1.0, -0.0, 3.0 - 1.0j, 0.5]))
    assert perm.partial_perm and not other.partial_perm
    for a in (perm, perm.adjoint()):
        for b in (other, other.adjoint(), a, a.adjoint()):
            for x, y in ((a, b), (b, a)):
                _same_entries(x.compose(y), ref_join_compose(x, y))
