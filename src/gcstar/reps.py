"""Unitary representations of a weighted groupoid on graded modules.

A representation is a single unitary between two balanced tensor
products: arrow functions weighted along source tensored against a
coefficient module, mapped to arrow functions weighted along range
tensored against the same module.  Requiring the unitary to commute
with the arrow grading makes it a family of fiber blocks, and the
simplicial transfer built here out of the relabeling maps turns the
multiplicativity of those blocks into one matrix identity on the
composable pairs.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .report import Report, VerificationError, max_abs_each, worst_at
from .measures import (GroupoidFamilies, arrow_correspondence,
                       check_corr_isomorphism, haar_system)
from .hilbmod import (ModuleMap, _entries, associator, check_module_map,
                      entry_gap, gamma_compose, grade_leak, induced_unitary,
                      is_intertwiner, is_unitary, lift, same_space, tensor,
                      tensor_map_left)


class Representation:
    """Unitary from the source weighted tensor to the range weighted one.

    module : GradedSpace, left grades objects, right grades coefficient
             labels
    umap   : ModuleMap tensor(source_leg, module) -> tensor(target_leg,
             module), the legs being the arrow spaces weighted along
             source and along range
    frame  : optional ModuleMap of the module into an ambient space,
             recorded by disintegration so raw blocks can be compared
             at the operator level
    families : the groupoid's measure families, whose alpha and alpha_r
             are the two legs; built on first read (face_transfer)

    umap None starts from the zero map on the expected spaces, for the
    caller to fill in.
    """

    def __init__(self, gpd, weights, module, umap, frame=None):
        self.groupoid = gpd
        self.weights = {x: float(weights[x]) for x in gpd.objects}
        self.module = module
        self.frame = frame
        self.target_leg, self.source_leg = haar_system(gpd, self.weights)
        self.source = tensor(self.source_leg, module)
        self.target = tensor(self.target_leg, module)
        if umap is None:
            umap = ModuleMap(self.source, self.target,
                             entries=([], [], []))
        elif not (same_space(umap.source, self.source)
                  and same_space(umap.target, self.target)):
            raise ValueError("unitary does not live on the expected spaces")
        self.umap = umap

    @cached_property
    def families(self):
        """groupoid_families of the groupoid, on the legs of this
        representation; built on first read."""
        return GroupoidFamilies(self.groupoid, self.weights,
                                (self.target_leg, self.source_leg))

    def __repr__(self):
        return (f"Representation({self.groupoid!r}, "
                f"module dim {self.module.dim})")


class CocycleFamily:
    """Fiber blocks of a representation: raw and normalized forms.

    raw[g] maps the source fiber of the module to the range fiber with
    the scaling a representation block carries; unitaries[g] is the
    rescaled block that composes multiplicatively and is unitary for
    the weighted fiber inner products.
    """

    def __init__(self, gpd, weights, module, unitaries, raw=None):
        self.groupoid = gpd
        self.weights = {x: float(weights[x]) for x in gpd.objects}
        self.module = module
        self.unitaries = {g: np.asarray(unitaries[g], dtype=complex)
                          for g in gpd.arrows}
        if raw is None:
            c = self.weights
            raw = {g: np.sqrt(c[gpd.rng[g]] / c[gpd.src[g]])
                   * self.unitaries[g] for g in gpd.arrows}
        self.raw = {g: np.asarray(raw[g], dtype=complex)
                    for g in gpd.arrows}


def _fibre_starts(space):
    """Where each arrow's vectors start in a tensor arrows x module.

    The tensor lists its vectors arrow by arrow, the vectors of arrow
    number k at positions starts[k] to starts[k + 1], one per module
    vector over the arrow's end, in module order.
    """
    (leg, ia), _ = space.factors
    return np.searchsorted(ia, np.arange(leg.dim + 1))


def blockwise(rep):
    """Extract the fiber blocks of a representation arrow by arrow.

    The blocks are filled from the nonzero entries of the unitary, in
    either storage form.  Entries between the vectors of two different
    arrows lie outside every block and are left out.
    """
    gpd = rep.groupoid
    c = rep.weights
    s0, t0 = _fibre_starts(rep.source), _fibre_starts(rep.target)
    slen, tlen = np.diff(s0), np.diff(t0)
    size = slen * tlen
    offset = np.cumsum(size) - size
    (_, sa), _ = rep.source.factors
    (_, ta), _ = rep.target.factors
    rows, cols, vals = _entries(rep.umap)
    keep = ta[rows] == sa[cols]
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    arrow = ta[rows]
    flat = np.zeros(int(size.sum()), dtype=complex)
    flat[offset[arrow] + (rows - t0[arrow]) * slen[arrow]
         + cols - s0[arrow]] = vals
    blocks = [flat[offset[k]:offset[k] + size[k]].reshape(tlen[k], slen[k])
              for k in range(len(gpd.arrows))]
    raw = dict(zip(gpd.arrows, blocks))
    uni = {g: np.sqrt(c[gpd.src[g]] / c[gpd.rng[g]]) * block
           for g, block in raw.items()}
    return CocycleFamily(gpd, c, rep.module, uni, raw)


def from_cocycle(gpd, weights, module, unitaries):
    """Assemble a representation from normalized fiber blocks.

    A block of another shape than (range fiber, source fiber) raises a
    ValueError naming its arrow; any empty array is an empty block.  The
    entries are laid out for all blocks at once, block by block in arrow
    order and row-major within a block.
    """
    fam = CocycleFamily(gpd, weights, module, unitaries)
    rep = Representation(gpd, weights, module, None)
    s0, t0 = _fibre_starts(rep.source), _fibre_starts(rep.target)
    slen, tlen = np.diff(s0), np.diff(t0)
    blocks = [fam.raw[g] for g in gpd.arrows]
    size = np.array([b.size for b in blocks], dtype=np.intp)
    fits = np.array([b.shape == (r, c) for b, r, c in
                     zip(blocks, tlen.tolist(), slen.tolist())], dtype=bool)
    bad = np.flatnonzero(~fits & ((size > 0) | ((tlen > 0) & (slen > 0))))
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"block of arrow {gpd.arrows[k]!r} has shape {blocks[k].shape}, "
            f"expected {(int(tlen[k]), int(slen[k]))} (range fibre, source "
            f"fibre)")
    if size.any():
        arrow = np.repeat(np.arange(len(blocks)), size)
        # the place of each entry in its block, row-major
        e = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        rep.umap = ModuleMap(rep.source, rep.target, entries=(
            t0[arrow] + e // slen[arrow], s0[arrow] + e % slen[arrow],
            np.concatenate([b.ravel() for b in blocks])))
    return rep


def _stacks(blocks, ends):
    """The blocks stacked once per shape, by end object, then in arrow
    order.

    Returns (stacks, stack_of, place, runs): arrow k is block place[k]
    of stacks[stack_of[k]], and each run (end, shape, stack, arrows) is
    the slice of one stack that holds the blocks of one shape at one end
    object, a view, with the arrows of its blocks.
    """
    shapes = {}
    for k, b in enumerate(blocks):
        shapes.setdefault(b.shape, []).append(k)
    stacks, runs = [], []
    stack_of = np.empty(len(blocks), dtype=np.intp)
    place = np.empty(len(blocks), dtype=np.intp)
    for i, (shape, arrows) in enumerate(shapes.items()):
        arrows = np.array(arrows, dtype=np.intp)
        arrows = arrows[np.argsort(ends[arrows], kind="stable")]
        stack_of[arrows], place[arrows] = i, np.arange(len(arrows))
        stacks.append(np.stack([blocks[k] for k in arrows]))
        cut = np.flatnonzero(np.diff(ends[arrows])) + 1
        for lo, hi in zip([0, *cut], [*cut, len(arrows)]):
            runs.append((int(ends[arrows[lo]]), shape, stacks[i][lo:hi],
                         arrows[lo:hi]))
    return stacks, stack_of, place, runs


_CHUNK = 2 ** 15  # entries of one stacked product in check_cocycle


def check_cocycle(fam, tol=1e-10):
    """Units, multiplicativity and weighted unitarity of fiber blocks.

    The blocks are stacked once per shape, by range object, so the
    blocks of one shape into one object are one slice of a stack.  Each
    arrow g meets every such slice into src(g) in one broadcast product,
    with no gather of either factor; only the blocks of the products gh
    are gathered, and rows g of small blocks share one product.  The
    Gram matrices of fiber-unitary are taken a slice at a time.  Every
    product runs in chunks of about _CHUNK entries, and each defect is
    that of the one composable pair or arrow it names, as if the pairs
    and arrows were taken one at a time.
    """
    gpd = fam.groupoid
    t = gpd.codes
    rep = Report("cocycle family")

    def gap(a, b):
        return worst_at(abs(a - b))[0]

    units = [fam.unitaries[gpd.unit[x]] for x in gpd.objects]
    rep.add_worst_at("unit-blocks", np.fromiter(
        (gap(u, np.eye(len(u))) for u in units), float, len(units)), tol,
        lambda k: gpd.objects[k])

    blocks = [fam.unitaries[g] for g in gpd.arrows]
    stacks, stack_of, place, runs = _stacks(blocks, t.rng)
    g_all, h_all = t.pairs
    pair_at = np.full(t.comp.shape, -1, dtype=np.intp)
    pair_at[t.pairs] = np.arange(len(g_all))
    multiplicative = np.zeros(len(g_all))
    for y, (rows, cols), stack, hs in runs:
        out_of = np.flatnonzero(t.src == y)
        for shape in {blocks[g].shape for g in out_of}:
            gs = np.array([g for g in out_of if blocks[g].shape == shape],
                          dtype=np.intp)
            entries = max(shape[0] * cols, 1)
            kstep = max(1, _CHUNK // entries)
            gstep = max(1, _CHUNK // (entries * len(hs))) \
                if kstep >= len(hs) else 1
            for a in range(0, len(gs), gstep):
                grow = gs[a:a + gstep]
                left = np.stack([blocks[g] for g in grow])[:, None]
                for b in range(0, len(hs), kstep):
                    prod = left @ stack[b:b + kstep]
                    hcol = hs[b:b + kstep]
                    gh = t.comp[grow[:, None], hcol]
                    at = pair_at[grow[:, None], hcol]
                    sid = stack_of[gh]
                    # products of one shape skip the masked copies of
                    # the loop below: 10% of group:64 and pair:24
                    if (sid == sid.flat[0]).all():
                        multiplicative[at] = abs(
                            stacks[sid.flat[0]][place[gh]] - prod).max(
                            axis=(2, 3), initial=0.0)
                        continue
                    # products of more than one shape: a stack each
                    for s in set(sid.ravel().tolist()):
                        m = sid == s
                        multiplicative[at[m]] = max_abs_each(
                            stacks[s][place[gh[m]]] - prod[m])
    rep.add_worst_at("multiplicative", multiplicative, tol,
                     lambda k: (gpd.arrows[g_all[k]], gpd.arrows[h_all[k]]))

    module = fam.module
    fibre = [module.weight_array[module.left_positions(x)]
             for x in gpd.objects]
    unitarity = np.zeros(len(blocks))
    for y, (rows, cols), stack, hs in runs:
        wt = fibre[y]
        if stack.size:
            step = max(1, _CHUNK // max(rows * cols + cols * cols, 1))
            for b in range(0, len(hs), step):
                u = stack[b:b + step]
                gram = u.conj().transpose(0, 2, 1) @ (wt[:, None] * u)
                want = np.zeros(gram.shape)
                want[:, np.arange(cols), np.arange(cols)] = np.stack(
                    [fibre[x] for x in t.src[hs[b:b + step]]])
                unitarity[hs[b:b + step]] = max_abs_each(gram - want)
        # an empty block between fibres of different sizes is flagged by
        # the size test, with defect 1
        sizes = np.array([len(fibre[x]) for x in t.src[hs]])
        uneven = hs[sizes != len(wt)]
        unitarity[uneven] = np.maximum(unitarity[uneven], 1.0)
    rep.add_worst_at("fiber-unitary", unitarity, tol,
                     lambda k: gpd.arrows[k])
    return rep


# ---------------------------------------------------------------------------
# simplicial transfer

def face_transfer(rep, index):
    """The unitary a representation induces over the composable pairs.

    Tensors the pair space along face index with the representation
    unitary, conjugated by the exact relabeling maps; the result runs
    between the two composite weighted pair spaces of that face.
    """
    fam = rep.families
    lam = (fam.lam0, fam.lam1, fam.lam2)[index]
    module = rep.module

    # each tensor over the pairs is built once: (lam x leg) x module is
    # the source of the lifted relabeling and of the associator, and
    # lam x (leg x module) reuses the representation's own spaces
    gam_s = gamma_compose(lam, fam.alpha_r)
    gam_t = gamma_compose(lam, fam.alpha)
    left_s = tensor(gam_s.source, module)
    left_t = tensor(gam_t.source, module)
    pair_s = tensor(lam, rep.source)
    pair_t = tensor(lam, rep.target)
    lift_s = lift(gam_s, left_s, tensor(gam_s.target, module), 0)
    lift_t = lift(gam_t, left_t, tensor(gam_t.target, module), 0)
    reg_s = associator(left_s, pair_s)
    reg_t = associator(left_t, pair_t)
    mid = lift(rep.umap, pair_s, pair_t, 1)
    return lift_t.compose(reg_t.adjoint()).compose(mid) \
        .compose(reg_s).compose(lift_s.adjoint())


def check_representation(rep, tol=1e-10):
    """Full battery: structure of the unitary and the transfer identity.

    The final check composes the two outer face transfers and compares
    them against the middle one; it passes exactly when the fiber
    blocks are multiplicative.
    """
    out = Report("representation")
    out.extend(check_module_map(rep.umap, tol))
    out.extend(is_unitary(rep.umap, tol))
    out.extend(is_intertwiner(rep.umap, tol), prefix="arrow-")

    fam = blockwise(rep)
    out.extend(check_cocycle(fam, tol), prefix="block-")

    try:
        d0, d1, d2 = (face_transfer(rep, i) for i in range(3))
    except ValueError as exc:
        out.add("transfer-cocycle", False, witness=str(exc))
        return out
    composed = d2.compose(d0)
    if not (same_space(d1.source, composed.source)
            and same_space(d1.target, composed.target)):
        raise VerificationError("face transfers landed on distinct bases")
    out.add_worst_at("transfer-cocycle", entry_gap(d1, composed), tol)
    return out


# ---------------------------------------------------------------------------
# the regular representation

def regular_representation(gpd, weights):
    """Translation of arrow functions, built from an exact relabeling.

    The two tensor legs against the arrow module are pair sets, and the
    pair bijection (g, h) -> (g, gh) with ratio one carries the first
    onto the second; every matrix entry is zero or one.
    """
    rep = Representation(gpd, weights,
                         arrow_correspondence(gpd, weights, "s"), None)
    phi = {(g, h): (g, gpd.comp[(g, h)]) for (g, h) in rep.source.basis}
    delta = {x: 1.0 for x in gpd.objects}
    check_corr_isomorphism(rep.source, rep.target, phi, delta).require()
    rep.umap = induced_unitary(rep.source, rep.target, phi, delta)
    return rep


# ---------------------------------------------------------------------------
# induction and intertwiners

def induce(rep, ebasis):
    """Tensor the coefficient module with a fixed graded space.

    ebasis left grades must live in the coefficient labels of the
    representation; the induced module is the balanced tensor and the
    unitary acts as before on the first two factors.
    """
    out = Representation(rep.groupoid, rep.weights,
                         tensor(rep.module, ebasis), None)
    src = tensor(rep.source, ebasis)
    tgt = tensor(rep.target, ebasis)
    big = lift(rep.umap, src, tgt, 0)
    out.umap = associator(tgt, out.target).compose(big) \
        .compose(associator(src, out.source).adjoint())
    return out


def check_intertwiner(rep1, rep2, vmap, tol=1e-10):
    """vmap commutes with the two unitaries; reports the defect.

    vmap is a module map from the first coefficient module to the
    second; the condition tensors it with each leg and compares the
    two routes around the square, relative to their largest entry.
    """
    out = Report("intertwiner")
    out.extend(check_module_map(vmap, tol))
    leak, bad = grade_leak(vmap, "left")
    out.add_worst_at("object-grade-preserved", leak, tol, lambda k: bad)
    if not leak <= 1e-13:
        out.add("commutes", False, witness="blocked by grade mismatch")
        return out

    lift_s = tensor_map_left(rep1.source_leg, vmap)
    lift_t = tensor_map_left(rep1.target_leg, vmap)
    one = lift_t.compose(rep1.umap)
    two = rep2.umap.compose(lift_s)
    scale = max(1.0, *(worst_at(abs(_entries(m)[2]))[0] for m in (one, two)))
    out.add_worst_at("commutes", entry_gap(one, two) / scale, tol)
    return out


def invariant_support(rep):
    """Objects carrying a nonzero fiber, with the invariance check.

    Unitarity forces fiber dimensions to be constant along orbits, so
    the support is a union of orbits; the report names any arrow whose
    two ends have fibers of different dimension.
    """
    gpd, t, module = rep.groupoid, rep.groupoid.codes, rep.module
    # one count past the last grade, so that code -1 counts zero
    sizes = np.bincount(module.left_codes,
                        minlength=len(module.left_space) + 1)
    sizes = sizes[[module.left_lookup.get(x, -1) for x in gpd.objects]]
    support = tuple(x for x, n in zip(gpd.objects, sizes) if n)
    out = Report("invariant support")
    bad = np.flatnonzero(sizes[t.src] != sizes[t.rng])
    out.add("orbit-constant-dims", not bad.size,
            witness=gpd.arrows[bad[0]] if bad.size else None)
    return support, out
