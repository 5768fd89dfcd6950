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

from .report import (Report, VerificationError, _chunked, max_abs_each,
                     worst_at)
from .measures import (GroupoidFamilies, _recode, arrow_correspondence,
                       check_corr_isomorphism, haar_system, object_weights)
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
        """GroupoidFamilies of the groupoid, on the legs of this
        representation; built on first read."""
        return GroupoidFamilies(self.groupoid, self.weights,
                                (self.target_leg, self.source_leg))

    def __repr__(self):
        return (f"Representation({self.groupoid!r}, "
                f"module dim {self.module.dim})")


class CocycleFamily:
    """Fiber blocks of a representation: raw and normalized forms.

    unitaries and raw are flat complex arrays in the order of entries =
    _block_entries(gpd, fibres), built on first read, fibres being
    _fibres(gpd, module): arrow by arrow, row-major within a block.  The
    block of arrow number k, from the module fibre over its source to the
    fibre over its range, composes multiplicatively and is unitary for
    the weighted fiber inner products in unitaries; raw holds the same
    maps with the scaling a representation block carries, by default
    sqrt(c(rng) / c(src)) times unitaries.  Either may be given as a list
    of blocks in arrow order instead (_flat_blocks).
    """

    def __init__(self, gpd, weights, module, unitaries, raw=None):
        self.groupoid = gpd
        self.weights = {x: float(weights[x]) for x in gpd.objects}
        self.module = module
        self.fibres = _fibres(gpd, module)
        t, size = gpd.codes, self.fibres[2]
        rows, cols = size[t.rng], size[t.src]
        self.unitaries = _flat_blocks(gpd, rows, cols, unitaries)
        if raw is None:
            c = object_weights(gpd, self.weights)
            raw = np.repeat(np.sqrt(c[t.rng] / c[t.src]), rows * cols) \
                * self.unitaries
        self.raw = _flat_blocks(gpd, rows, cols, raw)

    @cached_property
    def entries(self):
        return _block_entries(self.groupoid, self.fibres)


def _fibres(gpd, module):
    """The module points over each object, read from module.left_runs:
    (points, first, size), the points over object number x being
    points[first[x]:first[x] + size[x]], in module order."""
    order, starts, sizes = module.left_runs
    obj = _recode(np.arange(len(gpd.objects)), gpd.objects,
                  module.left_space)
    size = sizes[obj]
    first = np.cumsum(size) - size
    return (order[np.repeat(starts[obj] - first, size)
                  + np.arange(size.sum())], first, size)


def _block_entries(gpd, fibres):
    """Every fibre-block entry place for the layout fibres = _fibres(gpd,
    module), arrow by arrow and row-major within a block: arrays (arrow,
    i, j, row, col), entry (i, j) of the block of arrow number arrow
    sitting at (row, col) in the module."""
    points, first, size = fibres
    t = gpd.codes
    cols = size[t.src]
    n = size[t.rng] * cols
    arrow = np.repeat(np.arange(len(n)), n)
    i, j = np.divmod(np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n),
                     cols[arrow])
    return (arrow, i, j, points[first[t.rng[arrow]] + i],
            points[first[t.src[arrow]] + j])


def blockwise(rep):
    """Extract the fiber blocks of a representation as a CocycleFamily.

    The flat block array is filled from the nonzero entries of the
    unitary, in either storage form.  Entries between the vectors of two
    different arrows lie outside every block and are left out.  Each
    tensor lists its vectors arrow by arrow, those of arrow k one per
    module vector over its end (_fibres), from t0[k] in the target and
    s0[k] in the source.
    """
    gpd, c, t = rep.groupoid, rep.weights, rep.groupoid.codes
    fibre = _fibres(gpd, rep.module)[2]
    slen, tlen = fibre[t.src], fibre[t.rng]
    s0, t0 = np.cumsum(slen) - slen, np.cumsum(tlen) - tlen
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
    cw = object_weights(gpd, c)
    return CocycleFamily(gpd, c, rep.module, np.repeat(
        np.sqrt(cw[t.src] / cw[t.rng]), size) * flat, flat)


def _flat_blocks(gpd, rows, cols, blocks):
    """Fibre blocks as one flat complex array in block-entry order, the
    block of arrow number k being rows[k] x cols[k]: a flat array as it
    is, a list in arrow order checked and flattened.  ValueError for a
    flat array with another length than the block entries, a dict, a
    list with another length than the arrows, or a block of another
    shape than (range fibre, source fibre), save an empty array; the
    first such block is named."""
    if isinstance(blocks, np.ndarray) and blocks.ndim == 1:
        n = int(np.sum(rows * cols))
        if len(blocks) != n:
            raise ValueError(f"{len(blocks)} entries for {n} block entries")
        return np.asarray(blocks, dtype=complex)
    if isinstance(blocks, dict):
        raise ValueError("blocks must be a list in arrow order")
    if len(blocks) != len(gpd.arrows):
        raise ValueError(f"{len(blocks)} blocks for "
                         f"{len(gpd.arrows)} arrows")
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    for g, b, r, c in zip(gpd.arrows, blocks, rows.tolist(), cols.tolist()):
        if b.shape != (r, c) and (b.size or r * c):
            raise ValueError(
                f"block of arrow {g!r} has shape {b.shape}, expected "
                f"{(r, c)} (range fibre, source fibre)")
    return np.concatenate([np.empty(0, dtype=complex)]
                          + [b.ravel() for b in blocks])


def from_cocycle(gpd, weights, module, unitaries):
    """Assemble a representation from normalized fiber blocks: a flat
    array in block-entry order, a list in arrow order or a dict keyed by
    arrow label (random_cocycle's), read as CocycleFamily reads them, or
    a CocycleFamily on the same groupoid, weights and module, used as it
    is.

    Each entry of the family's raw array goes to its place in the
    unitary: arrow k's vectors in each tensor run over the module fibre
    at its end, one arrow after another.
    """
    if isinstance(unitaries, dict):
        unitaries = [unitaries[g] for g in gpd.arrows]
    fam = unitaries if isinstance(unitaries, CocycleFamily) \
        else CocycleFamily(gpd, weights, module, unitaries)
    rep = Representation(gpd, weights, module, None)
    arrow, i, j, _, _ = fam.entries
    if len(arrow):
        t, size = gpd.codes, fam.fibres[2]
        rows, cols = size[t.rng], size[t.src]
        rep.umap = ModuleMap(rep.source, rep.target, entries=(
            (np.cumsum(rows) - rows)[arrow] + i,
            (np.cumsum(cols) - cols)[arrow] + j, fam.raw))
    return rep


_CHUNK = 2 ** 15  # entries of one stacked product in check_cocycle


def _per_shape(shapes, defects_of):
    """Defects of rows grouped by shape: defects_of(p, *shape) for the
    boolean row mask p of each distinct row of shapes, in row order."""
    out = np.zeros(len(shapes))
    key = np.ravel_multi_index(shapes.T, shapes.max(axis=0, initial=0) + 1)
    for k in set(key.tolist()):
        p = key == k
        out[p] = defects_of(p, *shapes[np.argmax(p)].tolist())
    return out


def check_cocycle(fam, tol=1e-10):
    """Units, multiplicativity and weighted unitarity of fiber blocks.

    The objects, the composable pairs and the arrows are grouped by block
    shape (_per_shape), the pairs and arrows taken in chunks of about
    _CHUNK product entries, and each block is gathered at its shape
    (range fibre, source fibre) from the flat fam.unitaries (gh by
    codes.comp), so each defect is that of the one pair or arrow it
    names, bit for bit.
    """
    gpd, module = fam.groupoid, fam.module
    t = gpd.codes
    rep = Report("cocycle family")

    points, first, size = fam.fibres
    rows, cols = size[t.rng], size[t.src]
    offset = np.cumsum(rows * cols) - rows * cols

    def blocks(k, r, c):
        """The blocks of the arrows k, each r x c."""
        return fam.unitaries[offset[k][:, None] + np.arange(r * c)] \
            .reshape(len(k), r, c)

    def weights(x, n):
        """The module weights over the objects x, of fibre size n each."""
        return module.weight_array[points[first[x][:, None] + np.arange(n)]]

    rep.add_worst_at("unit-blocks", _per_shape(
        size[:, None], lambda p, n: max_abs_each(
            blocks(t.unit[p], n, n) - np.eye(n))),
        tol, lambda k: gpd.objects[k])

    g_all, h_all = t.pairs

    def products(p, r, c, s):
        sel = np.flatnonzero(p)

        def gaps(q):
            g, h = g_all[sel[q]], h_all[sel[q]]
            prod = blocks(g, r, c) @ blocks(h, c, s)
            return max_abs_each(blocks(t.comp[g, h], r, s) - prod)
        return _chunked(gaps, len(sel), r * s, _CHUNK)
    rep.add_worst_at("multiplicative", _per_shape(
        np.stack([rows[g_all], cols[g_all], cols[h_all]], axis=1), products),
        tol, lambda k: (gpd.arrows[g_all[k]], gpd.arrows[h_all[k]]))

    def unitarity(p, r, c):
        sel = np.flatnonzero(p)

        def gaps(q):
            k = sel[q]
            u = blocks(k, r, c)
            gram = u.conj().transpose(0, 2, 1) @ (
                weights(t.rng[k], r)[:, :, None] * u)
            return max_abs_each(
                gram - weights(t.src[k], c)[:, :, None] * np.eye(c))
        out = _chunked(gaps, len(sel), r * c + c * c, _CHUNK) if r * c \
            else np.zeros(len(sel))
        # an empty block between fibres of different sizes is flagged by
        # the size test, with defect 1
        return out if r == c else np.maximum(out, 1.0)
    rep.add_worst_at("fiber-unitary", _per_shape(
        np.stack([rows, cols], axis=1), unitarity),
        tol, lambda k: gpd.arrows[k])
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

    out.extend(check_cocycle(blockwise(rep), tol), prefix="block-")

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
    sizes = _fibres(gpd, module)[2]
    support = tuple(x for x, n in zip(gpd.objects, sizes) if n)
    out = Report("invariant support")
    bad = np.flatnonzero(sizes[t.src] != sizes[t.rng])
    out.add("orbit-constant-dims", not bad.size,
            witness=gpd.arrows[bad[0]] if bad.size else None)
    return support, out
