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
from .measures import (GroupoidFamilies, _recode, arrow_correspondence,
                       check_corr_isomorphism, haar_system)
from .hilbmod import (ModuleMap, _entries, _find_points, associator,
                      check_module_map, entry_gap, gamma_compose, grade_leak,
                      induced_unitary, is_intertwiner, is_unitary, lift,
                      same_space, tensor, tensor_map_left)


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


def _require_fibre_shapes(gpd, blocks, rows, cols):
    """The sizes of the blocks; ValueError names the first block whose
    shape is not (rows, cols) of its arrow, save an empty array."""
    size = np.array([b.size for b in blocks], dtype=np.intp)
    fits = np.array([b.shape == (r, c) for b, r, c in
                     zip(blocks, rows.tolist(), cols.tolist())], dtype=bool)
    bad = np.flatnonzero(~fits & ((size > 0) | ((rows > 0) & (cols > 0))))
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"block of arrow {gpd.arrows[k]!r} has shape {blocks[k].shape}, "
            f"expected {(int(rows[k]), int(cols[k]))} (range fibre, source "
            f"fibre)")
    return size


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
    size = _require_fibre_shapes(gpd, blocks, tlen, slen)
    if size.any():
        arrow = np.repeat(np.arange(len(blocks)), size)
        # the place of each entry in its block, row-major
        e = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        rep.umap = ModuleMap(rep.source, rep.target, entries=(
            t0[arrow] + e // slen[arrow], s0[arrow] + e % slen[arrow],
            np.concatenate([b.ravel() for b in blocks])))
    return rep


_CHUNK = 2 ** 15  # entries of one stacked product in check_cocycle


def check_cocycle(fam, tol=1e-10):
    """Units, multiplicativity and weighted unitarity of fiber blocks.

    The blocks are stacked once per shape (range fibre, source fibre); a
    block of another shape raises ValueError (save an empty array).  The
    composable pairs, and for fiber-unitary the arrows, are grouped by
    block shape and taken in chunks of about _CHUNK product entries, each
    factor gathered from the stack of its shape (gh by codes.comp), so
    each defect is that of the one pair or arrow it names, bit for bit.
    """
    gpd, module = fam.groupoid, fam.module
    t = gpd.codes
    rep = Report("cocycle family")

    order, starts, sizes = module.left_runs
    obj = _recode(np.arange(len(gpd.objects)), gpd.objects,
                  module.left_space)
    size = sizes[obj]

    def weights(x, n):
        """The module weights over the objects x, of fibre size n each."""
        return module.weight_array[order[starts[obj[x]][:, None]
                                         + np.arange(n)]]

    rows, cols = size[t.rng], size[t.src]
    blocks = [fam.unitaries[g] for g in gpd.arrows]
    _require_fibre_shapes(gpd, blocks, rows, cols)
    # arrow k's block is stack[rows[k], cols[k]][place[k]]
    dims = (int(size.max(initial=0)) + 1,) * 3
    shape = np.ravel_multi_index((rows, cols), dims[:2])
    stack, place = {}, np.empty(len(blocks), dtype=np.intp)
    for key in np.unique(shape):
        r, c = (int(i) for i in np.unravel_index(key, dims[:2]))
        sel = np.flatnonzero(shape == key)
        place[sel] = np.arange(len(sel))
        stack[r, c] = np.stack([blocks[k] for k in sel]) if r * c \
            else np.zeros((len(sel), r, c), dtype=complex)

    unit_gap = np.zeros(len(gpd.objects))
    for n in np.unique(size).tolist():
        xs = np.flatnonzero(size == n)
        unit_gap[xs] = max_abs_each(
            stack[n, n][place[t.unit[xs]]] - np.eye(n))
    rep.add_worst_at("unit-blocks", unit_gap, tol, lambda k: gpd.objects[k])

    g_all, h_all = t.pairs
    multiplicative = np.zeros(len(g_all))
    triple = np.ravel_multi_index((rows[g_all], cols[g_all], cols[h_all]),
                                  dims)
    for key in np.unique(triple):
        r, c, s = (int(i) for i in np.unravel_index(key, dims))
        sel = np.flatnonzero(triple == key)
        step = max(1, _CHUNK // max(r * s, 1))
        for a in range(0, len(sel), step):
            k = sel[a:a + step]
            g, h = g_all[k], h_all[k]
            prod = stack[r, c][place[g]] @ stack[c, s][place[h]]
            multiplicative[k] = max_abs_each(
                stack[r, s][place[t.comp[g, h]]] - prod)
    rep.add_worst_at("multiplicative", multiplicative, tol,
                     lambda k: (gpd.arrows[g_all[k]], gpd.arrows[h_all[k]]))

    unitarity = np.zeros(len(blocks))
    for key in np.unique(shape):
        r, c = (int(i) for i in np.unravel_index(key, dims[:2]))
        sel = np.flatnonzero(shape == key)
        step = max(1, _CHUNK // max(r * c + c * c, 1))
        for a in range(0, len(sel) if r * c else 0, step):
            k = sel[a:a + step]
            u = stack[r, c][a:a + step]
            gram = u.conj().transpose(0, 2, 1) @ (
                weights(t.rng[k], r)[:, :, None] * u)
            unitarity[k] = max_abs_each(
                gram - weights(t.src[k], c)[:, :, None] * np.eye(c))
        # an empty block between fibres of different sizes is flagged by
        # the size test, with defect 1
        if r != c:
            unitarity[sel] = np.maximum(unitarity[sel], 1.0)
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
    pair bijection (g, h) -> (g, gh) with ratio one, taken on positions,
    carries the first onto the second; every matrix entry is zero or one.
    """
    rep = Representation(gpd, weights,
                         arrow_correspondence(gpd, weights, "s"), None)
    # the positions of the arrow module are arrow codes
    (_, g), (_, h) = rep.source.factors
    gh = gpd.codes.comp[g, h]
    phi = np.where(gh >= 0, _find_points(rep.target, g, gh), -1)
    delta = np.ones(len(gpd.objects))
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
    sizes = module.left_runs[2][_recode(np.arange(len(gpd.objects)),
                                        gpd.objects, module.left_space)]
    support = tuple(x for x, n in zip(gpd.objects, sizes) if n)
    out = Report("invariant support")
    bad = np.flatnonzero(sizes[t.src] != sizes[t.rng])
    out.add("orbit-constant-dims", not bad.size,
            witness=gpd.arrows[bad[0]] if bad.size else None)
    return support, out
